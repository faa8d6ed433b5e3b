"""Command-line interface: gen, solve, verify, bench.

Instance I/O uses the canonical collection JSON; solve emits an outcome
JSON object and, with --trace, a JSON-lines stage log.  Exit status is 0
exactly when no failure occurred; solve exits 1 when its budget ran out
and 2, with one error line, when the instance cannot be read; gen exits
2, with one error line, when its arguments name no instance or the output
file cannot be written.
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--jobs", type=int, default=1)
    common.add_argument("--format", choices=["json", "csv"], default="json")
    common.add_argument("--budget-nodes", type=int, default=None)
    common.add_argument("--budget-secs", type=float, default=None)

    ap = argparse.ArgumentParser(
        prog="rainbow-tournaments",
        description="transversal Hamilton paths and cycles in collections "
                    "of tournaments",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate an instance", parents=[common])
    g.add_argument("--kind", choices=generators.KINDS, required=True)
    g.add_argument("-n", type=int, default=5)
    g.add_argument("-m", type=int, default=None)
    g.add_argument("--out", type=str, default=None)

    s = sub.add_parser("solve", help="solve one instance", parents=[common])
    s.add_argument("--mode", choices=["path", "cycle"], default="path")
    grp = s.add_mutually_exclusive_group()
    grp.add_argument("--exact", action="store_true")
    grp.add_argument("--constructive", action="store_true")
    s.add_argument("--mu", type=float, default=0.01)
    s.add_argument("--gamma", type=float, default=0.05)
    s.add_argument("--beta", type=float, default=0.1)
    s.add_argument("--fallback-n", type=int, default=9)
    s.add_argument("--trace", type=str, default=None)
    s.add_argument("--count-all", action="store_true",
                   help="debug: count all path witnesses (n <= 7)")
    s.add_argument("input", nargs="?", default="-",
                   help="instance file, '-' for stdin")

    v = sub.add_parser("verify", help="run a verification suite", parents=[common])
    v.add_argument("--suite", required=True,
                   choices=["theorem-path", "theorem-cycle"]
                   + [f"lemma-{k}" for k in sorted(harness.LEMMA_SUITES)])
    v.add_argument("--mode", choices=["exhaustive", "random"],
                   default="random")
    v.add_argument("--n-min", type=int, default=3)
    v.add_argument("--n-max", type=int, default=6)
    v.add_argument("--sizes", type=str, default=None,
                   help="comma-separated sizes (lemma suites)")
    v.add_argument("--seeds", type=int, default=50,
                   help="number of seeds per size")
    v.add_argument("--no-timing", action="store_true",
                   help="omit timing fields from the report")

    b = sub.add_parser("bench", help="run a benchmark sweep", parents=[common])
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


def _cmd_gen(args) -> int:
    n = args.n
    m = args.m if args.m is not None else n - 1
    try:
        tc = generators.generate(
            generators.GeneratorSpec(args.kind, n, m, args.seed)
        )
    except ValueError as exc:
        return _error(f"cannot generate {args.kind}: {exc}")
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
    budget: Optional[SearchBudget] = None
    if args.budget_nodes is not None or args.budget_secs is not None:
        budget = SearchBudget(
            max_nodes=args.budget_nodes, max_seconds=args.budget_secs
        )
    mode = "auto"
    if args.exact:
        mode = "exact"
    elif args.constructive:
        mode = "constructive"
    params = pipeline.PipelineParams(
        mu=args.mu, gamma=args.gamma, beta=args.beta,
        seed=args.seed, oracle_fallback_n=args.fallback_n,
    )
    trace = [] if args.trace else None
    solver = (
        pipeline.transversal_ham_path
        if args.mode == "path"
        else pipeline.transversal_ham_cycle
    )
    out = solver(tc, params, budget=budget, mode=mode, trace=trace)
    if args.trace:
        with open(args.trace, "w") as fh:
            for rec in trace:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(json.dumps(out.to_json(), sort_keys=True))
    return 0 if out.status != oracle.BUDGET_EXHAUSTED else 1


def _cmd_verify(args) -> int:
    seeds = range(args.seeds)
    if args.suite == "theorem-path":
        rep = harness.verify_theorem_path(
            args.n_min, args.n_max, args.mode, seeds, jobs=args.jobs
        )
    elif args.suite == "theorem-cycle":
        rep = harness.verify_theorem_cycle(
            args.n_min, args.n_max, args.mode, seeds, jobs=args.jobs
        )
    else:
        name = args.suite.removeprefix("lemma-")
        sizes = (
            [int(x) for x in args.sizes.split(",")]
            if args.sizes
            else list(range(args.n_min, args.n_max + 1))
        )
        rep = harness.verify_lemmas(name, sizes, seeds, jobs=args.jobs)
    sys.stdout.write(rep.to_jsonl(include_timing=not args.no_timing))
    return 0 if rep.ok else 1


def _cmd_bench(args) -> int:
    sizes = [int(x) for x in args.sizes.split(",")]
    rep = harness.bench(args.kind, sizes, range(args.seeds), jobs=args.jobs)
    if args.format == "csv":
        sys.stdout.write(rep.stats["csv"])
    else:
        sys.stdout.write(rep.to_jsonl())
    return 0 if rep.ok else 1


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.cmd == "gen":
        return _cmd_gen(args)
    if args.cmd == "solve":
        return _cmd_solve(args)
    if args.cmd == "verify":
        return _cmd_verify(args)
    if args.cmd == "bench":
        return _cmd_bench(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
