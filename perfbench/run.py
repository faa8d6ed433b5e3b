"""Benchmark of the rainbow_tournaments solvers.

    python3 perfbench/run.py --workload construct-large --seed 1 \
        --seconds 10 --trace 0

One process, one solve at a time (a closed loop with a single client and no
worker pool).  Set-up imports the package from ``src/`` next to this
directory and builds the workload's instances from ``--seed`` several times,
keeping the last copy.  The timed phase then makes passes over the
instances and checks every answer.  The number of passes is ``--seconds``
over the workload's nominal pass time, rounded and at least one, so a run
lasts about ``--seconds`` at the commit that defined the benchmark and every
run of a workload, on any commit, does the same work.

Every time in the JSON is in seconds at a reference machine speed, measured
with ``speedclock.SpeedClock`` from import to the last pass: the host's
speed drifts by more than half within a run, and the clock divides that
drift out.  The unadjusted wall times are printed beside them.

End-to-end metrics (``--trace 0``):

- ``setup_s``: importing the package plus the median time of building the
  inputs;
- ``pass_s``: median time of one pass over the instances;
- ``instances_per_s``: solves or lemma tasks per pass over ``pass_s``;
- ``solve_ms_p50``: median time of one solve or lemma task;
- ``peak_rss_mb``: peak resident memory of the process.

Printed but not in the JSON: ``solve_ms_tail`` (the highest percentile with
ten samples beyond it, from twenty solves up) and ``failed_ratio``, which is
``failed`` over ``attempted``.  A failure is an exception, an invalid
witness, ``BudgetExhausted`` or an unexpected status; ``correct`` is false
when an answer is wrong, not when a solve merely failed.

With ``--trace 1`` the inputs are built once and one untraced pass runs,
then one more pass runs with a wrapper around each public function of the
traced modules.  The per-layer metrics come from that pass, its time
over the untraced pass's is the tracing overhead, and its answers must
equal the untraced ones.  The untraced pass is the process's first, which
runs cold, so the overhead can read below 1.  Per-layer times are wall
times, probes included.  Spans are written to
``perfbench/out/spans-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the run conditions and every metric with its unit.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import speedclock
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
PACKAGE = "rainbow_tournaments"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("instances_per_s", "1/s"),
    ("solve_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
)

# (name, unit); names are <module>.<function>.<stat> or <module>.self_s
PER_LAYER = tuple(
    [
        ("generators.random_collection.calls", "count"),
        ("generators.random_collection.busy_s", "s"),
        ("generators.random_tournament.calls", "count"),
        ("generators.self_s", "s"),
        ("core.majority_subtournament.calls", "count"),
        ("core.majority_subtournament.busy_s", "s"),
        ("core.induced_collection.calls", "count"),
        ("core.induced_collection.busy_s", "s"),
        ("core.Tournament.restrict.calls", "count"),
        ("core.Tournament.restrict.busy_s", "s"),
        ("core.TournamentCollection.arc_color_mask.calls", "count"),
        ("core.validate_transversal.calls", "count"),
        ("core.validate_transversal.busy_s", "s"),
        ("core.is_strongly_connected.calls", "count"),
        ("core.is_strongly_connected.busy_s", "s"),
        ("core.self_s", "s"),
        ("matching.perfect_matching.calls", "count"),
        ("matching.perfect_matching.busy_s", "s"),
        ("matching.perfect_matching.failed", "count"),
        ("matching.matching_with_forced_colors.calls", "count"),
        ("matching.matching_with_forced_colors.busy_s", "s"),
        ("matching.matching_with_forced_colors.failed", "count"),
        ("matching.IncrementalMatcher.push.calls", "count"),
        ("matching.IncrementalMatcher.push.rejected", "count"),
        ("matching.self_s", "s"),
        ("constructive.h_partition.calls", "count"),
        ("constructive.h_partition.busy_s", "s"),
        ("constructive.build_absorber.calls", "count"),
        ("constructive.build_absorber.busy_s", "s"),
        ("constructive.build_absorber.self_s", "s"),
        ("constructive.build_absorber.failed", "count"),
        ("constructive.build_absorber.probes", "count"),
        ("constructive.absorb.calls", "count"),
        ("constructive.absorb.busy_s", "s"),
        ("constructive.tournament_ham_path.calls", "count"),
        ("constructive.tournament_ham_path.busy_s", "s"),
        ("constructive.rainbow_ham_path_one_spare.calls", "count"),
        ("constructive.rainbow_ham_path_one_spare.busy_s", "s"),
        ("constructive.rainbow_ham_path_one_spare.arc_inspections", "count"),
        ("constructive.self_s", "s"),
        ("oracle.backtrack.calls", "count"),
        ("oracle.backtrack.busy_s", "s"),
        ("oracle.backtrack.nodes", "count"),
        ("oracle.backtrack.nodes_per_s", "1/s"),
        ("oracle.backtrack.budget_exhausted", "count"),
        ("oracle.perm.calls", "count"),
        ("oracle.perm.busy_s", "s"),
        ("oracle.perm.nodes", "count"),
        ("oracle.perm.nodes_per_s", "1/s"),
        ("oracle.self_s", "s"),
        ("pipeline.rainbow_dhp.calls", "count"),
        ("pipeline.rainbow_dhp.busy_s", "s"),
        ("pipeline.rainbow_dhp.self_s", "s"),
        ("pipeline.rainbow_dhp.failed", "count"),
        ("pipeline.attempts", "count"),
    ]
    + [
        (f"pipeline.stage_failures.{s}", "count")
        for s in tracing.PIPELINE_STAGES + ("other",)
    ]
    + [(f"pipeline.route.{r}", "count") for r in tracing.ROUTES]
    + [
        ("pipeline.exchange_step.calls", "count"),
        ("pipeline.exchange_step.busy_s", "s"),
        ("pipeline.CycleSearchState.refresh.calls", "count"),
        ("pipeline.CycleSearchState.refresh.busy_s", "s"),
        ("pipeline.self_s", "s"),
        ("harness.self_s", "s"),
        ("trace.overhead", "ratio"),
    ]
)


class SetupError(RuntimeError):
    """The program under test is missing or cannot be imported."""


def import_package() -> None:
    """Import the package and its traced modules from SRC."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SetupError(f"{init} not found; run from a source checkout")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    for mod in tracing.MODULES:
        importlib.import_module(f"{PACKAGE}.{mod}")
    if Path(pkg.__file__).resolve().parent != init.parent.resolve():
        raise SetupError(f"imported {pkg.__file__}, not the package in {SRC}")


def commit_id() -> str:
    """HEAD of the checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def workload_reason(name: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return {w["name"]: w["why"] for w in spec["workloads"]}.get(name, "")
    except (OSError, ValueError, KeyError, TypeError):
        return ""


def tail(samples: list) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least ten samples
    above it, or None below twenty samples."""
    n = len(samples)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def run_pass(wl, solves, tracer=None):
    """Run every solve once; returns (results, (start, end)) with
    ``perf_counter`` readings.

    With a tracer, pipeline solves also hand a trace list to the solver, and
    the route and stage failures read from it go into the tracer's counts.
    """
    results = []
    gc.collect()
    t0 = time.perf_counter()
    for s in solves:
        traced_pipeline = tracer is not None and s.kind in ("path", "cycle")
        records = [] if traced_pipeline else None
        t = time.perf_counter()
        try:
            out, err = wl.execute(s, records), None
        except Exception as exc:  # a failed solve is counted, not fatal
            out, err = None, exc
        results.append(wl.Result(s, t, time.perf_counter(), out, err))
        if records is not None:
            tracer.count_pipeline(records, out)
    return results, (t0, time.perf_counter())


def setup(workload, seed: int, reps: int) -> tuple[list, list[tuple]]:
    """Build the inputs ``reps`` times; keep the last copy.  Returns the
    inputs and the (start, end) readings of each build."""
    solves, spans = None, []
    for _ in range(reps):
        solves = None
        gc.collect()
        t0 = time.perf_counter()
        solves = workload.build(seed)
        spans.append((t0, time.perf_counter()))
    return solves, spans


def layer_values(tracer, traced_wall: float, untraced_wall: float) -> dict:
    stats = tracer.span_stats()
    values: dict = {}
    for name, st in stats.items():
        for stat, v in st.items():
            values[f"{name}.{stat}"] = v
    for mod, v in tracer.module_self(stats).items():
        values[f"{mod}.self_s"] = v
    # counters win over span calls: random_tournament.calls counts draws
    values.update(tracer.counts)
    for engine in ("oracle.backtrack", "oracle.perm"):
        busy = values.get(f"{engine}.busy_s", 0.0)
        nodes = values.get(f"{engine}.nodes", 0)
        values[f"{engine}.nodes_per_s"] = nodes / busy if busy else 0.0
    values["trace.overhead"] = traced_wall / untraced_wall
    return values


@dataclasses.dataclass
class Readings:
    """``perf_counter`` readings of one run, taken while the speed clock ran.
    """

    workload: object
    solves: list
    import_span: tuple
    setup_spans: list
    results: list
    pass_spans: list
    # (tracer, results, span) of the traced pass
    traced: tuple | None = None


def measure(args) -> Readings:
    """Import the package, set up the workload and run its passes."""
    t0 = time.perf_counter()
    import_package()
    import_span = (t0, time.perf_counter())
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        raise SetupError(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]

    # a traced run reports no end-to-end metrics: it sets up once and runs
    # one untraced pass as the reference for overhead and answers
    reps, passes = (1, 1) if args.trace else (
        workload.setup_reps, workload.passes(args.seconds)
    )
    solves, setup_spans = setup(workload, args.seed, reps)
    results, pass_spans = [], []
    for _ in range(passes):
        res, span = run_pass(wl, solves)
        results.extend(res)
        pass_spans.append(span)
    readings = Readings(workload, solves, import_span, setup_spans, results,
                        pass_spans)
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tres, tspan = run_pass(wl, solves, tracer)
        finally:
            tracer.remove()
        readings.traced = (tracer, tres, tspan)
    return readings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    clock = speedclock.SpeedClock()
    try:
        with clock:
            r = measure(args)
    except (SetupError, ImportError) as exc:
        print(f"run.py: cannot set up: {exc}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads as wl

    def ref(span):
        return clock.ref_seconds(*span)

    def wall(span):
        return span[1] - span[0] - clock.probe_time_within(*span)

    solves, results = r.solves, r.results
    first_digest = wl.digest(results[:len(solves)])
    pass_ref = statistics.median(map(ref, r.pass_spans))
    pass_wall = statistics.median(map(wall, r.pass_spans))
    samples_ms = [ref((x.start, x.end)) * 1e3 for x in results]
    wall_ms = [wall((x.start, x.end)) * 1e3 for x in results]
    e2e = {
        "setup_s": ref(r.import_span)
        + statistics.median(map(ref, r.setup_spans)),
        "pass_s": pass_ref,
        "instances_per_s": len(solves) / pass_ref,
        "solve_ms_p50": statistics.median(samples_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    unadjusted = {
        "setup_s": wall(r.import_span)
        + statistics.median(map(wall, r.setup_spans)),
        "pass_s": pass_wall,
        "instances_per_s": len(solves) / pass_wall,
        "solve_ms_p50": statistics.median(wall_ms),
    }

    layer = None
    digest_match = True
    if r.traced is not None:
        tracer, tres, tspan = r.traced
        digest_match = wl.digest(tres) == first_digest
        results = results + tres
        layer = layer_values(tracer, ref(tspan), pass_ref)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv")

    fails = wl.check(results)
    correct = digest_match and not any(f["wrong"] for f in fails)

    speeds = statistics.quantiles(clock.speeds, n=10)
    run_s = clock.ends[-1] - clock.starts[0]
    print(f"workload      {args.workload}: {r.workload.inputs}")
    print(f"why           {workload_reason(args.workload)}")
    print(f"seed          {args.seed}")
    print(f"conditions    nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={np.__version__} "
          f"commit={commit_id()}")
    print(f"loop          closed, 1 client, jobs=1")
    print(f"speed         {len(clock.speeds)} probes every "
          f"{clock.interval} s took {clock.probe_seconds() / run_s:.2%} "
          f"of {run_s:.1f} s; machine speed p10 {speeds[0]:.3f}, "
          f"p50 {speeds[4]:.3f}, p90 {speeds[8]:.3f} of the reference")
    print(f"samples       setup reps={len(r.setup_spans)} "
          f"passes={len(r.pass_spans)} solves={len(samples_ms)} "
          f"({len(solves)} per pass)")
    print("passes        " + ", ".join(
        f"{ref(sp):.4f} ({wall(sp):.4f} wall)" for sp in r.pass_spans
    ) + " s")
    print(f"setup         import {ref(r.import_span):.4f} s, build "
          + ", ".join(f"{ref(sp):.4f}" for sp in r.setup_spans) + " s")
    for name, unit in END_TO_END:
        extra = (f"  (unadjusted wall: {unadjusted[name]:.6g} {unit})"
                 if name in unadjusted else "")
        print(f"metric        {name} = {e2e[name]:.6g} {unit}{extra}")
    t = tail(samples_ms)
    if t is not None:
        print(f"metric        solve_ms_tail = {t[1]:.6g} ms "
              f"(p{t[0]:.1f}, {len(samples_ms)} samples, 10 beyond)")
    print(f"metric        failed_ratio = {len(fails)}/{len(results)} = "
          f"{len(fails) / len(results):.6g}")
    for f in fails[:20]:
        print(f"failure       {f['key']}: {f['why']}")
    print(f"digest        {first_digest}"
          + ("" if digest_match else "  (traced pass differs!)"))
    if layer is not None:
        self_sum = sum(layer[f"{m}.self_s"] for m in tracing.MODULES)
        print(f"trace         overhead {layer['trace.overhead']:.4f}; "
              f"layer self times sum {self_sum:.4f} s (wall); traced pass "
              f"{ref(tspan):.4f} s ({tspan[1] - tspan[0]:.4f} wall); "
              f"untraced pass {pass_ref:.4f} s; spans {len(tracer.names)}")
        for name, unit in PER_LAYER:
            print(f"layer         {name} = {layer.get(name, 0):.6g} {unit}")

    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": len(fails),
        "metrics": {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in chosen
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
