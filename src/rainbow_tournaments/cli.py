"""Command-line interface: gen, solve, verify, bench, each taking only
the flags it reads.

Instance I/O uses the canonical collection JSON; solve emits an outcome
JSON object and, with --trace, a JSON-lines stage log.  Exit status is 0
exactly when no failure occurred; solve exits 1 when its budget ran out,
verify and bench when their report holds failures.  Exit 2, with one
error line, means bad input: an instance that cannot be read, an output
file that cannot be written, a negative seed or budget, or arguments no
generator or suite can run (a grid with no instance among them, a size
that a fixed family does not build).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import generators, harness, oracle, pipeline
from .core import TournamentCollection
from .oracle import SearchBudget


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rainbow-tournaments",
        description="transversal Hamilton paths and cycles in collections "
                    "of tournaments",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    # no abbreviations: verify and bench must not take --seed for --seeds
    g = sub.add_parser("gen", help="generate an instance", allow_abbrev=False)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--kind", choices=generators.KINDS, required=True)
    g.add_argument("-n", type=int, default=None)
    g.add_argument("-m", type=int, default=None)
    g.add_argument("--out", type=str, default=None)

    s = sub.add_parser("solve", help="solve one instance", allow_abbrev=False)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget-nodes", type=int, default=None)
    s.add_argument("--budget-secs", type=float, default=None)
    s.add_argument("--mode", choices=["path", "cycle"], default="path")
    grp = s.add_mutually_exclusive_group()
    grp.add_argument("--exact", action="store_true")
    grp.add_argument("--constructive", action="store_true")
    s.add_argument("--trace", type=str, default=None)
    s.add_argument("--count-all", action="store_true",
                   help="debug: count all path witnesses (n <= 7)")
    s.add_argument("input", nargs="?", default="-",
                   help="instance file, '-' for stdin")

    v = sub.add_parser("verify", help="run a verification suite",
                       allow_abbrev=False)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--suite", required=True,
                   choices=["theorem-path", "theorem-cycle"]
                   + [f"lemma-{k}" for k in sorted(harness.LEMMA_SUITES)])
    v.add_argument("--mode", choices=["exhaustive", "random"],
                   default=None, help="theorem suites (default random)")
    v.add_argument("--n-min", type=int, default=3)
    v.add_argument("--n-max", type=int, default=6)
    v.add_argument("--sizes", type=str, default=None,
                   help="comma-separated sizes (lemma suites)")
    v.add_argument("--seeds", type=int, default=50,
                   help="number of seeds per size")
    v.add_argument("--no-timing", action="store_true",
                   help="omit timing fields from the report")

    b = sub.add_parser("bench", help="run a benchmark sweep",
                       allow_abbrev=False)
    b.add_argument("--jobs", type=int, default=1)
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--kind", required=True,
                   choices=["oracle", "h_partition", "one_spare", "pipeline"])
    b.add_argument("--sizes", type=str, default="100,200")
    b.add_argument("--seeds", type=int, default=3)
    return ap


def _read_collection(path: str) -> TournamentCollection:
    if path == "-":
        return TournamentCollection.from_json(sys.stdin.read())
    with open(path) as fh:
        return TournamentCollection.from_json(fh.read())


def _error(message: str) -> int:
    """Report a bad argument or input as one line on stderr; exit code 2."""
    print(f"rainbow-tournaments: error: {message}", file=sys.stderr)
    return 2


def _sizes(text: str) -> list[int]:
    """The sizes of a comma-separated list of positive integers."""
    if not all(x.strip().isdecimal() and int(x) for x in text.split(",")):
        raise ValueError(f"--sizes {text!r} are not positive integers")
    return [int(x) for x in text.split(",")]


def _cmd_gen(args) -> int:
    if args.seed < 0:
        return _error(f"--seed {args.seed} is negative")
    n = args.n if args.n is not None else 5
    m = args.m if args.m is not None else n - 1
    tc = generators.generate(args.kind, n, m, args.seed)
    # the fixed families build their own sizes: an explicit other one fails
    for flag, asked, built in (("-n", args.n, tc.n), ("-m", args.m, tc.m)):
        if asked not in (None, built):
            raise ValueError(f"--kind {args.kind} builds n = {tc.n}, "
                             f"m = {tc.m}, not {flag} {asked}")
    text = tc.to_json()
    if not args.out:
        print(text)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        return _error(f"cannot write {args.out!r}: {exc}")
    return 0


def _cmd_solve(args) -> int:
    if args.seed < 0:
        return _error(f"--seed {args.seed} is negative")
    budget: Optional[SearchBudget] = None
    if args.budget_nodes is not None or args.budget_secs is not None:
        budget = SearchBudget(
            max_nodes=args.budget_nodes, max_seconds=args.budget_secs
        )
    try:
        tc = _read_collection(args.input)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        return _error(f"cannot read instance {args.input!r}: {detail}")
    if args.count_all:
        print(json.dumps(
            {"count": oracle.count_transversal_ham_paths(tc)}
        ))
        return 0
    mode = ("exact" if args.exact
            else "constructive" if args.constructive else "auto")
    trace = [] if args.trace else None
    solver = {"path": pipeline.transversal_ham_path,
              "cycle": pipeline.transversal_ham_cycle}[args.mode]
    try:  # before solving: an unwritable trace fails fast
        fh = open(args.trace, "w") if args.trace else None
    except OSError as exc:
        return _error(f"cannot write {args.trace!r}: {exc}")
    out = solver(tc, args.seed, budget=budget, mode=mode, trace=trace)
    if fh is not None:
        with fh:
            for rec in trace:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(json.dumps(out.to_json(), sort_keys=True))
    return 0 if out.status != oracle.BUDGET_EXHAUSTED else 1


def _cmd_verify(args) -> int:
    seeds = range(args.seeds)
    if args.suite.startswith("theorem-"):
        rep = harness.verify_theorem(
            args.suite.removeprefix("theorem-"), args.n_min, args.n_max,
            args.mode or "random", seeds, jobs=args.jobs,
        )
    elif args.mode is not None:
        raise ValueError("--mode applies to theorem suites only")
    else:
        name = args.suite.removeprefix("lemma-")
        sizes = (
            _sizes(args.sizes)
            if args.sizes
            else list(range(args.n_min, args.n_max + 1))
        )
        rep = harness.verify_lemmas(name, sizes, seeds, jobs=args.jobs)
    sys.stdout.write(rep.to_jsonl(include_timing=not args.no_timing))
    return 0 if rep.ok else 1


def _cmd_bench(args) -> int:
    sizes = _sizes(args.sizes)
    rep = harness.bench(args.kind, sizes, range(args.seeds), jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(rep.stats["csv"])
    else:
        sys.stdout.write(rep.to_jsonl())
    return 0 if rep.ok else 1


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    run = {"gen": _cmd_gen, "solve": _cmd_solve, "verify": _cmd_verify,
           "bench": _cmd_bench}[args.cmd]
    try:
        return run(args)
    except ValueError as exc:  # arguments no generator or suite can run
        return _error(f"{args.cmd}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
