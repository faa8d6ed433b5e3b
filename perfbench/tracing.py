"""Spans and counters recorded around the library's public functions.

Nothing under ``src/`` is edited: ``Tracer.install`` swaps wrappers into
every module attribute (and class attribute) that holds a traced function,
including the copies made by ``from .x import y``, and ``Tracer.remove``
puts the originals back.  Spans (name, start, end, parent) stay in memory
until ``write_spans``; a span's self time is its duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import collections
import functools
import inspect
import re
import sys
import time
from typing import Callable, Optional

PACKAGE = "rainbow_tournaments"
MODULES = (
    "generators", "core", "matching", "constructive", "oracle", "pipeline",
    "harness",
)

# span names that differ from <module>.<function>
ALIASES = {
    "oracle.exact_transversal_ham_path": "oracle.backtrack",
    "oracle.exact_transversal_ham_cycle": "oracle.backtrack",
    "oracle.exact_transversal_ham_path_perm": "oracle.perm",
    "oracle.exact_transversal_ham_cycle_perm": "oracle.perm",
}

# methods and private functions that get a span
EXTRA_SPANS = (
    "core.Tournament.restrict",
    "pipeline.CycleSearchState.refresh",
)

# too hot for a span: counted only.  `_draw_tournament` is one draw of
# `random_tournament`, rejected draws included.
COUNTERS = {
    "core.TournamentCollection.arc_color_mask":
        "core.TournamentCollection.arc_color_mask.calls",
    "matching.IncrementalMatcher.push":
        "matching.IncrementalMatcher.push.calls",
    "generators._draw_tournament": "generators.random_tournament.calls",
    "pipeline._constructive_path": "pipeline.attempts",
    "pipeline._constructive_cycle": "pipeline.attempts",
}

PIPELINE_STAGES = (
    "ledger", "greedy-color", "dhp-pre", "dhp-step1", "dhp-step2",
    "dhp-step3", "dhp-step4", "dhp-assemble", "path-pre", "cycle-pre",
    "cycle-case1", "cycle-assemble",
)
ROUTES = ("oracle", "constructive", "longest_path", "oracle_fallback",
          "budget_exhausted")

_STAGE_TAG = re.compile(r"^\[([^\]]+)\]")


def _module(name: str):
    return sys.modules[f"{PACKAGE}.{name}"]


def _resolve(path: str):
    """(owner, attribute, original) of 'module.func' or 'module.Class.meth'.
    """
    mod, *rest = path.split(".")
    owner = _module(mod)
    for part in rest[:-1]:
        owner = getattr(owner, part)
    return owner, rest[-1], getattr(owner, rest[-1])


def route_of(outcome) -> str:
    """Which route answered a pipeline solve, read from the outcome notes."""
    if outcome.status == "BudgetExhausted":
        return "budget_exhausted"
    if "oracle fallback" in outcome.notes:
        return "oracle_fallback"
    if "longest-path machine" in outcome.notes:
        return "longest_path"
    if "constructive, attempt" in outcome.notes:
        return "constructive"
    return "oracle"


def stage_of(record: dict) -> str:
    """The StageFailure.stage tag of an ``attempt-failed`` trace record."""
    m = _STAGE_TAG.match(record.get("error", ""))
    tag = m.group(1) if m else ""
    return tag if tag in PIPELINE_STAGES else "other"


class Tracer:
    """Span and counter store for one traced pass (single thread)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.failed: list[bool] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------

    def enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.failed.append(False)
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def leave(self, i: int, failed: bool = False) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()
        if failed:
            self.failed[i] = True

    def span_wrapper(
        self,
        name: str,
        fn: Callable,
        failed_if: Optional[Callable] = None,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        enter, leave = self.enter, self.leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = enter(name)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                leave(i, True)
                raise
            leave(i, failed_if is not None and failed_if(res))
            if on_result is not None:
                on_result(res)
            return res

        return wrapper

    def counter_wrapper(
        self, key: str, fn: Callable, rejected_key: Optional[str] = None
    ) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            res = fn(*args, **kwargs)
            if rejected_key is not None and res is False:
                counts[rejected_key] += 1
            return res

        return wrapper

    def count_pipeline(self, records: list, outcome) -> None:
        """Stage failures and route of one pipeline solve, from its trace
        records and its outcome (None when the solve raised)."""
        for rec in records:
            if rec.get("stage") == "attempt-failed":
                self.counts[f"pipeline.stage_failures.{stage_of(rec)}"] += 1
        if outcome is not None:
            self.counts[f"pipeline.route.{route_of(outcome)}"] += 1

    # -- installing wrappers -------------------------------------------

    def _replace(self, original, wrapper) -> None:
        """Point every package module attribute holding ``original`` at
        ``wrapper``, so ``from .x import y`` copies are covered too."""
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every traced module."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        for modname in MODULES:
            mod = _module(modname)
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if (
                    inspect.isfunction(fn)
                    and not inspect.isgeneratorfunction(fn)
                    and fn.__module__ == mod.__name__
                ):
                    self._replace(fn, self._wrap(f"{modname}.{fname}", fn))
        for path in EXTRA_SPANS:
            owner, attr, fn = _resolve(path)
            self._patch_attr(owner, attr, self._wrap(path, fn))
        for path, key in COUNTERS.items():
            owner, attr, fn = _resolve(path)
            rejected = (
                "matching.IncrementalMatcher.push.rejected"
                if path == "matching.IncrementalMatcher.push" else None
            )
            wrapper = self.counter_wrapper(key, fn, rejected)
            if inspect.isclass(owner):
                self._patch_attr(owner, attr, wrapper)
            else:
                self._replace(fn, wrapper)
        harness = _module("harness")
        for suite, fn in list(harness.LEMMA_SUITES.items()):
            self._patch_dict(
                harness.LEMMA_SUITES, suite,
                self.span_wrapper(f"harness.lemma_{suite}", fn,
                                  failed_if=lambda rec: rec is not None),
            )

    def _patch_dict(self, d: dict, key, wrapper) -> None:
        self._patched.append((d, key, d[key]))
        d[key] = wrapper

    def remove(self) -> None:
        """Restore every original binding, last patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def _wrap(self, path: str, fn: Callable) -> Callable:
        name = ALIASES.get(path, path)
        counts = self.counts
        if name in ("oracle.backtrack", "oracle.perm"):
            def on_oracle(out, name=name):
                counts[f"{name}.nodes"] += out.nodes_expanded
                if out.status == "BudgetExhausted":
                    counts[f"{name}.budget_exhausted"] += 1
            return self.span_wrapper(name, fn, on_result=on_oracle)
        if path in ("matching.perfect_matching",
                    "matching.matching_with_forced_colors"):
            return self.span_wrapper(name, fn, failed_if=lambda r: r is None)
        if path == "constructive.rainbow_ham_path_one_spare":
            return self._wrap_one_spare(name, fn)
        return self.span_wrapper(name, fn)

    def _wrap_one_spare(self, name: str, fn: Callable) -> Callable:
        """Count arc inspections through the function's own ``stats`` dict,
        supplying one when the caller passed none."""
        inner = self.span_wrapper(name, fn)
        counts = self.counts
        key = f"{name}.arc_inspections"

        @functools.wraps(fn)
        def wrapper(tc, stats=None, *args, **kwargs):
            if stats is None:
                stats = {}
            before = stats.get("arc_inspections", 0)
            res = inner(tc, stats, *args, **kwargs)
            counts[key] += stats.get("arc_inspections", 0) - before
            return res

        return wrapper

    # -- reduction -----------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """calls, busy_s (outermost spans of a name), self_s and failed per
        span name, plus absorber probes."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        stats: dict[str, dict[str, float]] = {}
        for i in range(n):
            name = self.names[i]
            st = stats.get(name)
            if st is None:
                st = stats[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "failed": 0}
            dur = self.ends[i] - self.starts[i]
            st["calls"] += 1
            st["self_s"] += dur - child[i]
            st["failed"] += self.failed[i]
            if not self._has_ancestor(i, name):
                st["busy_s"] += dur
        probes = sum(
            1 for i in range(n)
            if self.names[i] == "matching.perfect_matching"
            and self._has_ancestor(i, "constructive.build_absorber")
        )
        stats.setdefault("constructive.build_absorber", {})["probes"] = probes
        return stats

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.parents[i]
        while p >= 0:
            if self.names[p] == name:
                return True
            p = self.parents[p]
        return False

    def module_self(self, stats: dict) -> dict[str, float]:
        out = {m: 0.0 for m in MODULES}
        for name, st in stats.items():
            out[name.split(".", 1)[0]] += st.get("self_s", 0.0)
        return out

    def root_time(self) -> float:
        """Wall time covered by top-level spans."""
        return sum(
            self.ends[i] - self.starts[i]
            for i in range(len(self.names)) if self.parents[i] < 0
        )

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start and end in seconds
        from the first span, parent index (-1 for none)."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = [
            f"{self.names[i]}\t{self.starts[i] - t0:.7f}\t"
            f"{self.ends[i] - t0:.7f}\t{self.parents[i]}\n"
            for i in range(len(self.names))
        ]
        with open(path, "w") as fh:
            fh.write("name\tstart_s\tend_s\tparent\n")
            fh.writelines(lines)
