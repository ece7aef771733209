"""Cross-process telemetry: context propagation + the worker-side sink.

The coordinator's :class:`~repro.obs.context.RunContext` cannot cross a
process boundary (it holds its open-span stack and metrics registry),
so each pool worker streams to a sink of its own.  This module carries
what a worker needs across the boundary and opens that sink:

* :class:`TraceContext` — the causal identity of a unit of work
  (run / grid / cell / attempt / worker ids).  Frozen, tiny, and
  picklable; the coordinator creates one per run, the engine derives a
  child per cell attempt, and every worker-recorded span carries its
  scalar fields in ``attrs`` so the collector can re-parent cell spans
  under the coordinator's grid span.
* :class:`WorkerTelemetryConfig` — what ships through the pool
  initializer: the destination root, run identity, and level.  It is
  derived from the driver's enabled ``RunContext``
  (:meth:`WorkerTelemetryConfig.from_context`) and is ``None`` when
  observability is off — workers then pay exactly one ``is None``
  branch per cell (the zero-overhead contract).
* :class:`WorkerTelemetry` — the per-worker sink a pool worker opens
  once from its config: worker identity plus a normal ``RunContext``
  streaming to ``<obs_dir>/workers/<worker-id>/`` in the standard
  ``repro.obs/1`` layout.  The engine runs every cell inside one
  ``cell.run`` span, so each cell is one finished tree and is on disk
  the moment the cell ends; a worker SIGKILL'd mid-cell leaves a
  schema-valid directory holding everything up to its last completed
  cell.

Determinism contract: nothing here consumes from any seeded NumPy
stream.  Worker ids derive from pid + ``os.urandom`` (pids are recycled
across pool generations; the token keeps a rebuilt worker from
appending into its predecessor's trace), and all timestamps stay
monotonic-clock relative with wall-clock *anchors* recorded only in
``meta.json`` for the collector's skew alignment.
"""

from __future__ import annotations

import binascii
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from repro.obs.context import RunContext

__all__ = [
    "WORKERS_DIR_NAME",
    "GRID_SPAN_NAME",
    "CELL_SPAN_NAME",
    "TraceContext",
    "WorkerTelemetryConfig",
    "WorkerTelemetry",
]

#: Sub-directory of an observability directory holding per-worker sinks.
WORKERS_DIR_NAME = "workers"

#: Coordinator span wrapping one whole parallel grid execution; the
#: collector re-parents every worker cell span under it.
GRID_SPAN_NAME = "grid.run"

#: Worker span wrapping one cell-body execution.
CELL_SPAN_NAME = "cell.run"


@dataclass(frozen=True)
class TraceContext:
    """The picklable causal identity of one unit of distributed work.

    Attributes
    ----------
    run_id:
        The coordinator run this work belongs to.
    grid_id:
        The durable grid's journaled identity ("" for in-memory grids).
    cell:
        The grid-cell key (JSON scalar) this context is scoped to, or
        ``None`` for run-scoped contexts.
    attempt:
        Which attempt of the cell (0 = not cell-scoped).
    worker:
        The executing worker's pid (``None`` until a worker adopts it).
    """

    run_id: str
    grid_id: str = ""
    cell: object = None
    attempt: int = 0
    worker: Optional[int] = None

    def child(self, **overrides) -> "TraceContext":
        """A derived context with *overrides* applied (frozen-safe)."""
        return replace(self, **overrides)

    def as_attrs(self) -> dict:
        """The non-empty scalar fields, as span/event attributes.

        ``run_id`` is deliberately excluded — it is run-level identity
        already recorded in ``meta.json``, not per-span payload.
        """
        attrs: dict = {}
        if self.grid_id:
            attrs["grid_id"] = self.grid_id
        if self.cell is not None:
            attrs["cell"] = (
                self.cell if isinstance(self.cell, (int, str))
                else str(self.cell)
            )
        if self.attempt:
            attrs["attempt"] = self.attempt
        if self.worker is not None:
            attrs["worker"] = self.worker
        return attrs


@dataclass(frozen=True)
class WorkerTelemetryConfig:
    """What the pool initializer ships to enable worker-side telemetry.

    Frozen and picklable; :meth:`open` is called worker-side, once per
    worker process.
    """

    root: str
    run_id: str
    level: str = "info"
    grid_id: str = ""

    @classmethod
    def from_context(
        cls, obs: Optional[RunContext], grid_id: str = ""
    ) -> Optional["WorkerTelemetryConfig"]:
        """The config for *obs*, or ``None`` when telemetry is off."""
        if obs is None or not obs.enabled:
            return None
        return cls(
            root=str(Path(obs.obs_dir) / WORKERS_DIR_NAME),
            run_id=obs.run_id,
            level=obs.level,
            grid_id=grid_id,
        )

    def open(self) -> "WorkerTelemetry":
        """Open this worker's sink (call in the worker process)."""
        return WorkerTelemetry(self)


class WorkerTelemetry:
    """One pool worker's observability sink.

    ``obs`` is a real :class:`~repro.obs.context.RunContext`, so the
    cell body's evaluator/algorithm instrumentation works unchanged in
    a worker and persists by the same streaming rule as every context.
    """

    def __init__(self, config: WorkerTelemetryConfig) -> None:
        pid = os.getpid()
        # pid + random token: pids are recycled across pool rebuilds,
        # and two tracer incarnations appending into one file would
        # collide on span ids.  os.urandom never touches seeded RNG.
        token = binascii.hexlify(os.urandom(4)).decode("ascii")
        self.worker_id = f"worker-{pid}-{token}"
        self.pid = pid
        self.dir = Path(config.root) / self.worker_id
        self.context = TraceContext(
            run_id=config.run_id, grid_id=config.grid_id, worker=pid
        )
        fields = {"worker": pid, "worker_id": self.worker_id}
        if config.grid_id:
            fields["grid_id"] = config.grid_id
        self.obs = RunContext.create(
            self.dir, run_id=f"{config.run_id}/{self.worker_id}",
            level=config.level, **fields,
        )
        self._heartbeat_warned = False

    def cell_context(self, key, attempt: int) -> TraceContext:
        """The per-cell child context for (*key*, *attempt*)."""
        return self.context.child(cell=key, attempt=attempt)

    def heartbeat_dropped(self, key, attempt: int, exc: OSError) -> None:
        """Record one dropped manifest heartbeat (never silently).

        Every drop increments ``worker_heartbeat_dropped_total``; the
        first drop per worker additionally emits a ``worker.
        heartbeat_dropped`` warning event carrying the errno detail —
        once, not per cell, so a dead filesystem cannot flood the log.
        """
        self.obs.metrics.counter(
            "worker_heartbeat_dropped_total",
            help="manifest running-heartbeat appends that failed in a worker",
        ).inc()
        if not self._heartbeat_warned:
            self._heartbeat_warned = True
            self.obs.event(
                "worker.heartbeat_dropped", level="warning",
                cell=key if isinstance(key, (int, str)) else str(key),
                attempt=attempt, error=f"{type(exc).__name__}: {exc}",
            )
