"""Self-test of the benchmark: wrappers, repeatable counts, metric mapping.

    python3 -m pytest perfbench/test_perfbench.py

Runs one untraced and two traced passes of every workload at seed 0, so it
takes a few minutes.
"""

import json
import signal
import sys
import time

import pytest

import run

run.import_package()

import speedclock  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

# per-layer metric -> the workload on which it must be nonzero
MAPPED = {
    "construct-large": [
        "constructive.build_absorber.calls",
        "constructive.build_absorber.busy_s",
        "constructive.build_absorber.self_s",
        "constructive.build_absorber.probes",
        "matching.perfect_matching.calls",
        "matching.perfect_matching.busy_s",
        "core.induced_collection.calls",
        "core.induced_collection.busy_s",
        "core.Tournament.restrict.calls",
        "core.Tournament.restrict.busy_s",
        "core.majority_subtournament.calls",
        "core.majority_subtournament.busy_s",
        "core.TournamentCollection.arc_color_mask.calls",
        "core.validate_transversal.calls",
        "core.validate_transversal.busy_s",
        "core.is_strongly_connected.calls",
        "core.is_strongly_connected.busy_s",
        "core.self_s",
        "matching.matching_with_forced_colors.calls",
        "matching.matching_with_forced_colors.busy_s",
        "matching.self_s",
        "constructive.h_partition.calls",
        "constructive.h_partition.busy_s",
        "constructive.absorb.calls",
        "constructive.absorb.busy_s",
        "constructive.tournament_ham_path.calls",
        "constructive.tournament_ham_path.busy_s",
        "constructive.rainbow_ham_path_one_spare.calls",
        "constructive.rainbow_ham_path_one_spare.busy_s",
        "constructive.rainbow_ham_path_one_spare.arc_inspections",
        "constructive.self_s",
        "pipeline.rainbow_dhp.calls",
        "pipeline.rainbow_dhp.busy_s",
        "pipeline.rainbow_dhp.self_s",
        "pipeline.attempts",
        "pipeline.route.constructive",
        "pipeline.self_s",
    ],
    "auto-sweep": [
        "core.majority_subtournament.calls",
        "constructive.build_absorber.probes",
        "pipeline.attempts",
        "pipeline.stage_failures.path-pre",
        "pipeline.stage_failures.cycle-pre",
        "pipeline.route.constructive",
        "pipeline.route.longest_path",
        "pipeline.route.oracle_fallback",
        "pipeline.exchange_step.calls",
        "pipeline.exchange_step.busy_s",
        "pipeline.CycleSearchState.refresh.calls",
        "pipeline.CycleSearchState.refresh.busy_s",
        "oracle.backtrack.calls",
        "oracle.backtrack.nodes",
        "matching.IncrementalMatcher.push.calls",
    ],
    "oracle-exhaustive": [
        "oracle.backtrack.calls",
        "oracle.backtrack.busy_s",
        "oracle.backtrack.nodes",
        "oracle.backtrack.nodes_per_s",
        "oracle.perm.calls",
        "oracle.perm.busy_s",
        "oracle.perm.nodes",
        "oracle.perm.nodes_per_s",
        "oracle.self_s",
        "matching.IncrementalMatcher.push.calls",
        "matching.IncrementalMatcher.push.rejected",
        "matching.perfect_matching.failed",
    ],
    "lemma-sweep": [
        "generators.random_collection.calls",
        "generators.random_collection.busy_s",
        "generators.random_tournament.calls",
        "generators.self_s",
        "harness.self_s",
        "constructive.h_partition.calls",
        "constructive.rainbow_ham_path_one_spare.calls",
        "constructive.rainbow_ham_path_one_spare.arc_inspections",
        "core.is_strongly_connected.calls",
        "core.validate_transversal.calls",
    ],
}


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert set(MAPPED) == set(wl.WORKLOADS)
    names = {name for name, _ in run.PER_LAYER}
    for metrics in MAPPED.values():
        assert set(metrics) <= names


def _package_bindings():
    for modname, mod in list(sys.modules.items()):
        if modname == tracing.PACKAGE or modname.startswith(
            tracing.PACKAGE + "."
        ):
            yield modname, mod


@pytest.mark.parametrize("func, modules", [
    ("constructive.build_absorber", ("constructive", "pipeline")),
    ("matching.perfect_matching",
     ("matching", "constructive", "pipeline", "oracle")),
    ("core.induced_collection", ("core", "constructive", "pipeline")),
    ("core.majority_subtournament",
     ("core", "constructive", "pipeline", "harness")),
    ("core.validate_transversal", ("core",)),
    ("core.is_strongly_connected", ("core", "generators", "pipeline")),
])
def test_every_binding_is_wrapped_and_restored(func, modules):
    modname, fname = func.split(".")
    original = getattr(sys.modules[f"{tracing.PACKAGE}.{modname}"], fname)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for m in modules:
            bound = getattr(sys.modules[f"{tracing.PACKAGE}.{m}"], fname)
            assert bound is not original, f"{m}.{fname} not wrapped"
        # no module kept a stale copy under any name
        for name, mod in _package_bindings():
            assert all(v is not original for v in vars(mod).values()), name
    finally:
        tracer.remove()
    for m in modules:
        assert getattr(sys.modules[f"{tracing.PACKAGE}.{m}"], fname) \
            is original


def _is_count(name: str, value) -> bool:
    return isinstance(value, int) and not name.endswith("_s")


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_traced_pass_repeats_and_covers_its_layers(name):
    workload = wl.WORKLOADS[name]
    solves = workload.build(0)
    plain, (start, end) = run.run_pass(wl, solves)
    plain_wall = end - start
    assert not wl.check(plain)
    passes = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res, (start, end) = run.run_pass(wl, solves, tracer)
        finally:
            tracer.remove()
        passes.append((res, end - start, tracer))
    digests = {wl.digest(r) for r, _, _ in passes} | {wl.digest(plain)}
    assert len(digests) == 1, "traced witnesses differ from untraced ones"

    values = [run.layer_values(t, w, plain_wall) for _, w, t in passes]
    counts = [
        {k: v for k, v in vals.items() if _is_count(k, v)} for vals in values
    ]
    assert counts[0] == counts[1]
    assert counts[0], "no counts recorded"

    for metric in MAPPED[name]:
        assert values[0].get(metric, 0) > 0, f"{metric} is zero on {name}"

    # self times of all layers add up to the time under the top-level spans
    res, wall, tracer = passes[0]
    self_sum = sum(values[0][f"{m}.self_s"] for m in tracing.MODULES)
    assert self_sum == pytest.approx(tracer.root_time(), rel=1e-9)
    solve_time = sum(r.seconds for r in res)
    assert tracer.root_time() <= solve_time
    assert tracer.root_time() >= 0.95 * solve_time


def test_speed_clock_converts_time_at_the_probed_speed():
    clock = speedclock.SpeedClock()
    # probes at 0-1, 10-11 and 20-21 s; speed 1, then 3, then 1
    clock.starts, clock.ends = [0.0, 10.0, 20.0], [1.0, 11.0, 21.0]
    clock.speeds = [1.0, 3.0, 1.0]
    clock._build()
    # 9 s between probes at a mean speed of 2; no time passes in a probe
    assert clock.ref_seconds(1.0, 10.0) == pytest.approx(18.0)
    assert clock.ref_seconds(0.0, 11.0) == pytest.approx(18.0)
    assert clock.ref_seconds(2.0, 4.0) == pytest.approx(4.0)
    assert clock.ref_seconds(5.0, 25.0) == pytest.approx(10.0 + 18.0 + 4.0)
    assert clock.probe_time_within(0.5, 20.5) == pytest.approx(2.0)


def test_speed_clock_probes_while_running():
    with speedclock.SpeedClock(interval=0.005) as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(clock.speeds) >= 10
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0 < clock.ref_seconds(t0, t1)
    assert clock.probe_time_within(t0, t1) < t1 - t0
