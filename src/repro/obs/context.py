"""The run-scoped observability context.

A :class:`RunContext` bundles the three telemetry channels — tracer,
metrics registry, event log — with run identity (run id, dataset, seed,
population label, ...) and the directory they stream to.  Every
instrumented layer (`NSGA2`, the evaluator, the checkpoint store, the
runner, the fault harness, the dispatch service) accepts one and treats
it uniformly:

* **disabled** (the default, :data:`NULL_CONTEXT`): every hook is a
  no-op behind a single ``if obs.enabled`` predicate, so the hot loop
  pays one branch and nothing else — the zero-overhead-by-default
  contract asserted by the benchmark's observability budget;
* **enabled**: the directory holds the five ``repro.obs/1`` files from
  the moment the context exists (``meta.json`` — run identity and clock
  anchors — never changes afterwards).  Events append as they are
  emitted; finished spans append one complete tree at a time, whenever
  the open-span stack empties; ``metrics.json`` / ``metrics.prom`` are
  rewritten atomically at creation and after every tree.  A process
  killed at any point leaves a schema-valid directory holding
  everything up to its last finished tree — the same rule for the
  coordinator, the dispatch service and every pool worker.

Determinism contract: nothing in this module draws from NumPy RNG or
mutates any stochastic stream; enabling observability changes *only*
wall-clock-derived telemetry values, never optimization results —
asserted by ``tests/test_obs_integration.py``.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional, Union

from repro.errors import ObservabilityError
from repro.obs.events import LEVELS, EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["RunContext", "NULL_CONTEXT"]

#: Observability artifact format tag (stamped into ``meta.json``).
OBS_FORMAT = "repro.obs/1"


class _NullSpan:
    """A reusable no-op context manager (the disabled ``span()``)."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


def _replace(path: Path, text: str) -> None:
    """Rewrite *path* atomically (same-directory temp + ``os.replace``)."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class RunContext:
    """One run's observability state (or the shared disabled stand-in).

    Build an enabled context with :meth:`create`; pass
    :data:`NULL_CONTEXT` (or ``None`` at any instrumented call site) to
    run dark.  Instrumented code follows one discipline::

        if obs.enabled:                      # the only cost when dark
            obs.record_span("ga.stage.evaluate", seconds, generation=g)

    Attributes
    ----------
    enabled:
        ``False`` only on :data:`NULL_CONTEXT`.
    run_id:
        Caller-chosen or wall-clock/pid-derived identifier (never
        RNG-derived — observability must not touch seeded streams).
    obs_dir:
        The directory every channel streams to.
    fields:
        Run-scoped identity merged into every event (dataset, seed,
        label, generation, ...).
    tracer, metrics, events:
        The three channels (shared, not copied, by :meth:`bind`).
    """

    enabled = True

    def __init__(
        self, obs_dir: Path, *, run_id: str, level: str, fields: dict
    ) -> None:
        self.run_id = run_id
        self.level = level
        self.obs_dir = obs_dir
        self.fields = fields
        obs_dir.mkdir(parents=True, exist_ok=True)
        # One epoch for both channels: the monotonic reading every span
        # and event timestamp is relative to, and the wall-clock instant
        # it corresponds to — what the collector aligns processes with.
        epoch = time.perf_counter()
        meta = {
            "format": OBS_FORMAT,
            "run_id": run_id,
            "level": level,
            "fields": fields,
            "clock": {"monotonic_s": epoch, "unix_s": time.time()},
        }
        _replace(
            obs_dir / "meta.json",
            json.dumps(meta, indent=2, allow_nan=False) + "\n",
        )
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(
            obs_dir / "trace.jsonl", epoch_s=epoch,
            on_tree=self._write_snapshot,
        )
        self.events = EventLog(
            obs_dir / "events.jsonl", level=level, epoch_s=epoch
        )
        self._write_snapshot()

    # -- construction --------------------------------------------------------

    @classmethod
    def create(
        cls,
        obs_dir: Union[str, Path],
        run_id: Optional[str] = None,
        level: str = "info",
        **fields,
    ) -> "RunContext":
        """An enabled context streaming to *obs_dir* (created now).

        *level* gates both the event log and per-generation stage spans
        (``debug`` records one span per stage per generation; ``info``
        and above keep only aggregate stage spans plus block spans).
        """
        if level not in LEVELS:
            raise ObservabilityError(
                f"unknown observability level {level!r}; have {sorted(LEVELS)}"
            )
        if run_id is None:
            # Wall clock + pid, not RNG: ids must never consume from any
            # seeded stream.
            run_id = f"run-{int(time.time())}-{os.getpid()}"
        return cls(Path(obs_dir), run_id=run_id, level=level, fields=fields)

    @classmethod
    def disabled(cls) -> "RunContext":
        """The shared no-op context."""
        return NULL_CONTEXT

    def bind(self, **fields) -> "RunContext":
        """A view of this context with extra run-scoped *fields*.

        Channels are shared (spans/metrics/events all land in the same
        files); only the identity fields differ.  Binding the disabled
        context returns it unchanged.
        """
        if not self.enabled:
            return self
        view = copy.copy(self)
        view.fields = {**self.fields, **fields}
        return view

    # -- channel facade ------------------------------------------------------

    @property
    def debug(self) -> bool:
        """Whether per-generation (high-volume) recording is on."""
        return self.enabled and self.level == "debug"

    def span(self, name: str, **attrs):
        """Context manager timing a block (no-op when disabled); its
        ``set(**attrs)`` adds attributes before the span closes."""
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def record_span(self, name: str, seconds: float, **attrs) -> None:
        """File an externally timed span (no-op when disabled)."""
        if self.enabled:
            self.tracer.record(name, seconds, **attrs)

    def event(self, name: str, level: str = "info", **fields) -> None:
        """Emit a structured event with the bound fields merged in."""
        if self.enabled:
            self.events.emit(name, level=level, **{**self.fields, **fields})

    def counter(self, name: str, help: str = "", unit: str = ""):
        """Shortcut for ``metrics.counter`` (``None`` when disabled)."""
        return self.metrics.counter(name, help=help, unit=unit) if self.enabled else None

    def sample_rss(self) -> None:
        """Record the process's peak RSS as a gauge (best effort)."""
        if not self.enabled:
            return
        try:
            import resource

            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except (ImportError, OSError):  # pragma: no cover - non-POSIX
            return
        # Linux reports KiB; macOS reports bytes.
        scale = 1 if sys.platform == "darwin" else 1024
        self.metrics.gauge(
            "process_max_rss_bytes",
            help="peak resident set size of this process",
            unit="bytes",
        ).set(rss * scale)

    # -- persistence ---------------------------------------------------------

    def _write_snapshot(self) -> None:
        metrics = self.metrics
        _replace(
            self.obs_dir / "metrics.json",
            json.dumps(metrics.as_dict(), allow_nan=False) + "\n",
        )
        _replace(self.obs_dir / "metrics.prom", metrics.to_prometheus_text())

    def flush(self) -> Optional[Path]:
        """Write the final metrics snapshot; returns the directory.

        Spans and events are already on disk.  A parallel run with
        worker telemetry leaves per-worker sub-directories under
        ``workers/``; flushing folds them and this coordinator trace
        into one causally-linked ``merged/`` view.  Idempotent; the
        disabled context returns ``None``.
        """
        if not self.enabled:
            return None
        self.sample_rss()
        self._write_snapshot()
        out = self.obs_dir
        if (out / "workers").is_dir():
            from repro.obs.collect import merge_obs_dir

            merge_obs_dir(out)
        return out


def _disabled_context() -> RunContext:
    ctx = object.__new__(RunContext)
    ctx.enabled = False
    ctx.run_id, ctx.level, ctx.obs_dir, ctx.fields = "", "info", None, {}
    ctx.tracer = ctx.metrics = ctx.events = None
    return ctx


#: The process-wide disabled context: every hook no-ops behind one branch.
NULL_CONTEXT = _disabled_context()
