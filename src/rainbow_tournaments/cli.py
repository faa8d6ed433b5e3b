"""Command-line interface: gen, solve, count, verify, bench, each taking
only the flags it reads.

Instance I/O uses the canonical collection JSON; solve emits an outcome
JSON object and, with --trace, a JSON-lines stage log; count prints the
number of transversal Hamilton paths (n <= 7); verify and bench run a
grid of --sizes by --seeds.  Exit status is 0 exactly when no failure
occurred; solve exits 1 when its budget ran out, verify and bench when
their report holds failures.  Exit 2, with one error line, means bad
input: an instance that cannot be read, an output file that cannot be
written, a negative seed or budget, a solve flag that its mode does not
read (a budget with --constructive, --seed with --exact), or arguments
no generator or suite can run (a grid with no instance, a size that a
fixed family does not build, a count above n = 7).
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
    s.add_argument("--seed", type=int, default=None, help="default 0")
    s.add_argument("--budget-nodes", type=int, default=None)
    s.add_argument("--budget-secs", type=float, default=None)
    s.add_argument("--mode", choices=["path", "cycle"], default="path")
    grp = s.add_mutually_exclusive_group()
    grp.add_argument("--exact", action="store_true")
    grp.add_argument("--constructive", action="store_true")
    s.add_argument("--trace", type=str, default=None)
    c = sub.add_parser("count", help="count transversal Hamilton paths "
                       "(n <= 7)", allow_abbrev=False)
    for p in (s, c):
        p.add_argument("input", nargs="?", default="-",
                       help="instance file, '-' for stdin")

    v = sub.add_parser("verify", help="run a verification suite",
                       allow_abbrev=False)
    v.add_argument("--suite", required=True,
                   choices=["theorem-path", "theorem-cycle"]
                   + [f"lemma-{k}" for k in sorted(harness.LEMMA_SUITES)])
    v.add_argument("--mode", choices=["exhaustive", "random"],
                   default=None, help="theorem suites (default random)")
    v.add_argument("--no-timing", action="store_true",
                   help="omit timing fields from the report")

    b = sub.add_parser("bench", help="run a benchmark sweep",
                       allow_abbrev=False)
    b.add_argument("--format", choices=["json", "csv"], default="json")
    b.add_argument("--kind", required=True, choices=list(harness.BENCH_KINDS))
    for p, sizes, seeds in ((v, "3,4,5,6", 50), (b, "100,200", 3)):
        p.add_argument("--sizes", type=str, default=sizes,
                       help="comma-separated sizes")
        p.add_argument("--seeds", type=int, default=seeds,
                       help="number of seeds per size")
        p.add_argument("--jobs", type=int, default=1)
    return ap


def _read_collection(path: str) -> TournamentCollection:
    """The instance of path ('-' for stdin); ValueError when unreadable."""
    try:
        if path == "-":
            return TournamentCollection.from_json(sys.stdin.read())
        with open(path) as fh:
            return TournamentCollection.from_json(fh.read())
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read instance {path!r}: {exc}") from None


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
    budgeted = args.budget_nodes is not None or args.budget_secs is not None
    if args.constructive and budgeted:  # constructive mode runs no oracle
        return _error("--constructive does not take --budget-nodes or "
                      "--budget-secs")
    if args.exact and args.seed is not None:  # nor exact mode an attempt
        return _error("--exact does not take --seed")
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        return _error(f"--seed {seed} is negative")
    budget: Optional[SearchBudget] = None
    if budgeted:
        budget = SearchBudget(
            max_nodes=args.budget_nodes, max_seconds=args.budget_secs
        )
    tc = _read_collection(args.input)
    mode = ("exact" if args.exact
            else "constructive" if args.constructive else "auto")
    trace = [] if args.trace else None
    solver = {"path": pipeline.transversal_ham_path,
              "cycle": pipeline.transversal_ham_cycle}[args.mode]
    try:  # before solving: an unwritable trace fails fast
        fh = open(args.trace, "w") if args.trace else None
    except OSError as exc:
        return _error(f"cannot write {args.trace!r}: {exc}")
    out = solver(tc, seed, budget=budget, mode=mode, trace=trace)
    if fh is not None:
        with fh:
            for rec in trace:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(json.dumps(out.to_json(), sort_keys=True))
    return 0 if out.status != oracle.BUDGET_EXHAUSTED else 1


def _cmd_count(args) -> int:
    tc = _read_collection(args.input)
    print(json.dumps({"count": oracle.count_transversal_ham_paths(tc)}))
    return 0


def _cmd_verify(args) -> int:
    sizes, seeds = _sizes(args.sizes), range(args.seeds)
    if args.suite.startswith("theorem-"):
        rep = harness.verify_theorem(
            args.suite.removeprefix("theorem-"), sizes,
            args.mode or "random", seeds, jobs=args.jobs,
        )
    elif args.mode is not None:
        raise ValueError("--mode applies to theorem suites only")
    else:
        rep = harness.verify_lemmas(args.suite.removeprefix("lemma-"),
                                    sizes, seeds, jobs=args.jobs)
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
    ap = _build_parser()
    args, extra = ap.parse_known_args(argv)
    if extra:  # name the flags alone: a flag's value may have become input
        flags = [x for x in extra if x.startswith("-")] or extra
        ap.error(f"unrecognized arguments: {' '.join(flags)}")
    run = {"gen": _cmd_gen, "solve": _cmd_solve, "count": _cmd_count,
           "verify": _cmd_verify, "bench": _cmd_bench}[args.cmd]
    try:
        return run(args)
    except ValueError as exc:  # arguments no generator or suite can run
        return _error(f"{args.cmd}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
