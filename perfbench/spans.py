"""In-memory span tracing of ``repro``'s layers, from outside the package.

:class:`Tracer` replaces public entry points of each layer with timing
wrappers (and puts the originals back on :meth:`Tracer.uninstall`).  A span
records name, start, end, the span that caused it and a few attributes;
spans stay in memory and are written out once, when the run ends.
:func:`layer_metrics` turns the spans of the traced passes into the
per-layer metrics.  Every residual is explicit: a parent's time minus the
time its named children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.algorithm import Algorithm, EvolutionaryAlgorithm
from repro.core.archive import EpsilonParetoArchive
from repro.experiments import figures
from repro.experiments.runner import POPULATION_LABELS
from repro.heuristics import SEEDING_HEURISTICS
from repro.service import dispatch
from repro.service.window import CommittedLedger, WindowEvaluator
from repro.sim.evaluator import ScheduleEvaluator

import workloads

STAGES = ("selection", "variation", "evaluate", "environmental")
#: Kernel counters read from the public ``cache_stats`` around each batch.
KERNEL_COUNTERS = ("hits", "misses", "elements_total", "elements_reused")

#: ``probe(args, kwargs)`` runs before the call and returns a function
#: that maps the call's result to span attributes.
Probe = Callable[[tuple, dict], Callable[[object], dict]]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; :meth:`install` wraps the layers' entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, bool, object]] = []

    def _open(self) -> tuple[int, Optional[int]]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent

    def wrap(self, owner, attr: str, name: str, probe: Optional[Probe] = None):
        """Replace ``owner.attr`` with a wrapper recording span *name*."""
        had = attr in vars(owner)
        original = vars(owner).get(attr)
        fn = getattr(owner, attr)
        # An inherited attribute may already be a wrapper: never nest.
        fn = getattr(fn, "_traced_original", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = probe(args, kwargs) if probe is not None else None
            span_id, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            # Attributes are read after the span has ended.
            attrs = finish(result) if finish is not None else {}
            tracer.spans.append(Span(span_id, name, start, end, parent, attrs))
            return result

        wrapper._traced_original = fn
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, had, original))

    def install(self) -> None:
        """Wrap the entry points of every layer (see the module docstring)."""
        self.wrap(workloads, "build_dataset", "datasets.build")
        self.wrap(figures, "run_seeded_populations", "runner.run")
        for heuristic, cls in SEEDING_HEURISTICS.items():
            self.wrap(cls, "build", "heuristics.build",
                      _constant(heuristic=heuristic))
        self.wrap(Algorithm, "__init__", "core.init", _algorithm_label)
        self.wrap(Algorithm, "run", "ga.run", _algorithm_label)
        self.wrap(EvolutionaryAlgorithm, "step", "core.step", _stage_deltas)
        self.wrap(ScheduleEvaluator, "__init__", "sim.build")
        self.wrap(ScheduleEvaluator, "evaluate_batch", "sim.evaluate_batch",
                  _kernel_deltas)
        self.wrap(dispatch.DispatchService, "process_window", "service.window")
        self.wrap(CommittedLedger, "compact", "ledger.compact")
        self.wrap(CommittedLedger, "commit", "ledger.commit")
        self.wrap(WindowEvaluator, "__init__", "window.build")
        self.wrap(WindowEvaluator, "evaluate_full", "window.evaluate_full")
        self.wrap(dispatch, "repair_mapped_seeds", "seeding.repair",
                  lambda args, kwargs: lambda seeds: {"seeds": len(seeds)})
        self.wrap(EpsilonParetoArchive, "update", "archive.update",
                  lambda args, kwargs: lambda size: {
                      "offered": int(np.shape(args[1])[0])})

    def uninstall(self) -> None:
        """Put every wrapped entry point back."""
        while self._patches:
            owner, attr, had, original = self._patches.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        spans, self.spans = self.spans, []
        return spans


def _constant(**attrs) -> Probe:
    return lambda args, kwargs: lambda result: dict(attrs)


def _algorithm_label(args, kwargs):
    algorithm = args[0]
    return lambda result: {"label": algorithm.label}


def _stage_deltas(args, kwargs):
    totals = args[0].stage_timings.totals
    before = {stage: totals.get(stage, 0.0) for stage in STAGES}
    return lambda result: {
        stage: totals.get(stage, 0.0) - before[stage] for stage in STAGES
    }


def _kernel_deltas(args, kwargs):
    evaluator = args[0]
    assignments = args[1] if len(args) > 1 else kwargs["assignments"]
    before = evaluator.cache_stats

    def finish(result):
        after = evaluator.cache_stats
        attrs = {k: after.get(k, 0) - before.get(k, 0) for k in KERNEL_COUNTERS}
        attrs["rows"] = int(np.shape(assignments)[0])
        return attrs

    return finish


def write_spans(path, passes: list[list[Span]]) -> None:
    """Write the traced passes' spans as JSON, one list per pass."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = [[asdict(s) for s in spans] for spans in passes]
    path.write_text(json.dumps(doc))


# -- per-layer metrics --------------------------------------------------------


def _total(spans, name, **match) -> float:
    return sum(
        s.seconds for s in spans
        if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())
    )


def _mean_ms(total_s: float, count: int) -> float:
    return total_s / count * 1e3 if count else 0.0


def _mean_span_ms(spans) -> float:
    return _mean_ms(sum(s.seconds for s in spans), len(spans))


def _residual(spans, parent_name) -> float:
    """Sum over *parent_name* spans of their time not covered by children."""
    parents = {s.id: s for s in spans if s.name == parent_name}
    covered = sum(s.seconds for s in spans if s.parent in parents)
    return sum(p.seconds for p in parents.values()) - covered


def layer_metrics(
    setup_spans: list[Span],
    passes: list[list[Span]],
    results: list,
    untraced_walls: list[float],
) -> dict:
    """Per-layer metrics averaged over the traced passes.

    Counts and ``_s`` totals are per pass; ``_ms`` metrics are means per
    event (per generation, per construction or per busy window).  Stage
    and window totals reconcile by construction: each ``unattributed``
    metric is the parent's time minus what its children cover.
    """
    n = len(passes)
    spans = [s for p in passes for s in p]
    m: dict[str, float] = {}

    # experiments: data set build (set-up) and the runner.
    m["datasets.build_s"] = _total(setup_spans, "datasets.build")
    pop_total = 0.0
    for label in POPULATION_LABELS:
        pop_s = (
            _total(spans, "core.init", label=label)
            + _total(spans, "ga.run", label=label)
        ) / n
        m[f"runner.pop_s.{label}"] = pop_s
        pop_total += pop_s
    heuristics_s = _total(spans, "heuristics.build") / n
    runner_s = _total(spans, "runner.run") / n
    m["runner.run_s"] = runner_s
    m["runner.unattributed_s"] = (
        runner_s - heuristics_s - pop_total if runner_s else 0.0
    )

    # heuristics
    m["heuristics.build_s"] = heuristics_s
    for heuristic in SEEDING_HEURISTICS:
        m[f"heuristics.{heuristic}_s"] = (
            _total(spans, "heuristics.build", heuristic=heuristic) / n
        )

    # core: every stage is taken from the same calls as the step.
    steps = [s for s in spans if s.name == "core.step"]
    step_ms = [s.seconds * 1e3 for s in steps]
    m["core.step_ms_p50"] = _percentile(step_ms, 50)
    m["core.step_ms_p95"] = _percentile(step_ms, 95)
    m["core.step_ms_mean"] = _mean_span_ms(steps)
    stage_ms = 0.0
    for stage in STAGES:
        ms = _mean_ms(sum(s.attrs[stage] for s in steps), len(steps))
        m[f"core.{stage}_ms"] = ms
        stage_ms += ms
    m["core.step_unattributed_ms"] = m["core.step_ms_mean"] - stage_ms
    m["core.init_ms"] = _mean_span_ms([s for s in spans if s.name == "core.init"])
    m["core.generations"] = len(steps) / n

    # sim
    batches = [s for s in spans if s.name == "sim.evaluate_batch"]
    rows = sum(s.attrs["rows"] for s in batches)
    busy = sum(s.seconds for s in batches)
    m["sim.evaluate_calls"] = len(batches) / n
    m["sim.rows"] = rows / n
    m["sim.evaluate_busy_s"] = busy / n
    m["sim.us_per_row"] = busy / rows * 1e6 if rows else 0.0
    m["sim.evaluator_build_ms"] = _mean_span_ms(
        [s for s in spans if s.name == "sim.build"]
    )
    counters = {
        k: sum(s.attrs[k] for s in batches) for k in KERNEL_COUNTERS
    }
    m["sim.queue_hits"] = counters["hits"] / n
    m["sim.queue_misses"] = counters["misses"] / n
    m["sim.elements_total"] = counters["elements_total"] / n
    m["sim.elements_reused"] = counters["elements_reused"] / n
    m["sim.reuse_rate"] = (
        counters["elements_reused"] / counters["elements_total"]
        if counters["elements_total"] else 0.0
    )

    # service: every _ms metric is a mean per busy window.
    windows = [s for s in spans if s.name == "service.window"]
    window_ids = {s.id for s in windows}
    w = len(windows)

    def per_window(name: str) -> float:
        return _mean_ms(
            sum(s.seconds for s in spans
                if s.name == name and s.parent in window_ids), w
        )

    m["dispatch.window_ms"] = _mean_span_ms(windows)
    m["dispatch.window_growth_ratio"] = _growth(passes)
    m["ledger.compact_ms"] = per_window("ledger.compact")
    m["window.build_ms"] = per_window("window.build")
    m["seeding.repair_ms"] = per_window("seeding.repair")
    m["dispatch.ga_ms"] = per_window("core.init") + per_window("ga.run")
    m["window.evaluate_full_ms"] = per_window("window.evaluate_full")
    m["ledger.commit_ms"] = per_window("ledger.commit")
    m["archive.update_ms"] = per_window("archive.update")
    m["dispatch.unattributed_ms"] = _mean_ms(
        _residual(spans, "service.window"), w
    )
    m["seeding.seeds"] = sum(
        s.attrs["seeds"] for s in spans if s.name == "seeding.repair"
    ) / n
    m["archive.points_offered"] = sum(
        s.attrs["offered"] for s in spans if s.name == "archive.update"
    ) / n
    records = [r for result in results for r in result.windows]
    m["window.adopted_frac"] = (
        sum(r.adopted for r in records) / len(records) if records else 0.0
    )
    m["ledger.compacted_tasks"] = sum(r.compacted for r in records) / n
    ends = [result.windows[-1] for result in results if result.windows]
    m["ledger.active_end"] = statistics.mean(r.active for r in ends) if ends else 0.0
    m["ledger.active_max"] = max((r.active for r in records), default=0)
    m["archive.size_end"] = (
        statistics.mean(r.archive_points.shape[0] for r in ends) if ends else 0.0
    )

    # The first pass runs on a cold heap (more page faults); leave it out
    # of the untraced reference when there are others.
    reference = statistics.median(untraced_walls[1:] or untraced_walls)
    traced = statistics.median(r.wall_s for r in results)
    m["trace.overhead_frac"] = traced / reference - 1.0
    return m


def _growth(passes: list[list[Span]]) -> float:
    """Mean of the last tenth of windows over the first tenth, per pass.

    The ledger horizon grows through the stream, so late windows cost more.
    """
    ratios = []
    for spans in passes:
        windows = sorted(
            (s for s in spans if s.name == "service.window"),
            key=lambda s: s.start,
        )
        k = len(windows) // 10
        if k:
            late = sum(s.seconds for s in windows[-k:])
            early = sum(s.seconds for s in windows[:k])
            ratios.append(late / early)
    return statistics.mean(ratios) if ratios else 0.0


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0
