"""Exception hierarchy for the :mod:`repro` analysis framework.

All exceptions raised intentionally by this package derive from
:class:`ReproError`, so callers can catch framework failures without
swallowing genuine programming errors (``TypeError`` from misuse of
NumPy, etc.).  The subclasses partition failures by subsystem:

* :class:`ModelError` — inconsistent machine/task/matrix definitions.
* :class:`DataGenerationError` — the synthetic-data pipeline could not
  honour the requested heterogeneity statistics.
* :class:`UtilityFunctionError` — a time-utility function definition is
  not monotone decreasing / has malformed intervals.
* :class:`WorkloadError` — trace generation parameters are infeasible.
* :class:`ScheduleError` — an allocation references unknown tasks or
  infeasible machines.  Its refinement :class:`KernelBuildError` means
  the batch kernel's C library could not be compiled or loaded.
* :class:`OptimizationError` — an optimization engine was configured
  inconsistently (population size, operator probabilities, ...).
* :class:`AlgorithmLookupError` — a requested algorithm name is not in
  the portfolio registry (see :mod:`repro.core.registry`).
* :class:`AnalysisError` — a Pareto-front analysis was asked of an
  empty or degenerate front.
* :class:`ExperimentError` — experiment configuration/IO failures.
* :class:`CheckpointError` — a checkpoint is missing, incompatible with
  the requesting run, or structurally malformed.
* :class:`CorruptArtifactError` — an on-disk artifact exists but failed
  its integrity check (undecodable JSON or checksum mismatch).  Kept
  distinct from the missing-artifact case so callers can decide between
  "restart from scratch" and "refuse to silently discard data".
* :class:`ObservabilityError` — the observability layer was misused
  (duplicate metric registered under a different type, unreadable or
  schema-invalid trace/event artifacts).
* :class:`ParallelExecutionError` — the shared-memory parallel
  execution engine failed (segment creation/attachment, engine misuse).
  Like the checkpoint/artifact errors it refines
  :class:`ExperimentError`, since parallel execution is an experiment
  concern.  It carries a structured failure taxonomy: every instance
  has a ``kind`` drawn from :data:`FAILURE_KINDS` (``worker-death``,
  ``timeout``, ``cell-exception``, ``corrupt-result``) plus the ``cell``
  and ``attempt`` it concerns, so supervisors and the grid manifest can
  journal *why* a cell failed without parsing messages.  The refinements
  :class:`WorkerCrashError`, :class:`CellTimeoutError` (also a
  ``TimeoutError``), and :class:`CorruptResultError` pre-bind their
  kinds; :func:`classify_failure` maps arbitrary exceptions onto the
  taxonomy.
* :class:`GridManifestError` — the durable grid manifest was misused
  (unloadable directory, spec mismatch on resume).  Replay itself is
  total and never raises this for damaged journal *content* — torn
  tails and duplicate transitions are tolerated by design (see
  :mod:`repro.parallel.manifest`).
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from typing import Any, Optional

__all__ = [
    "ReproError",
    "ModelError",
    "DataGenerationError",
    "UtilityFunctionError",
    "WorkloadError",
    "ScheduleError",
    "KernelBuildError",
    "OptimizationError",
    "AlgorithmLookupError",
    "AnalysisError",
    "ExperimentError",
    "CheckpointError",
    "CorruptArtifactError",
    "ObservabilityError",
    "ParallelExecutionError",
    "WorkerCrashError",
    "CellTimeoutError",
    "CorruptResultError",
    "GridManifestError",
    "FAILURE_KINDS",
    "classify_failure",
]


class ReproError(Exception):
    """Base class for every intentional failure raised by :mod:`repro`."""


class ModelError(ReproError):
    """The system model (machines, task types, ETC/EPC) is inconsistent."""


class DataGenerationError(ReproError):
    """Synthetic data generation failed or was configured infeasibly."""


class UtilityFunctionError(ReproError):
    """A time-utility function definition violates the TUF contract."""


class WorkloadError(ReproError):
    """Workload/trace generation parameters are invalid."""


class ScheduleError(ReproError):
    """A resource allocation is malformed or infeasible."""


class KernelBuildError(ScheduleError):
    """The ``batch`` kernel's C library could not be built or loaded.

    ``stderr`` holds the compiler's diagnostics (empty when the failure
    was not a compile).  ``kernel_method="batch-reference"`` evaluates
    the same semantics without a compiler.
    """

    def __init__(self, message: str, stderr: str = "") -> None:
        super().__init__(message)
        self.stderr = stderr


class OptimizationError(ReproError):
    """The bi-objective optimizer was configured or used incorrectly."""


class AlgorithmLookupError(OptimizationError):
    """A requested algorithm name is not registered in the portfolio."""


class AnalysisError(ReproError):
    """A Pareto-front analysis could not be performed."""


class ExperimentError(ReproError):
    """An experiment definition or its IO failed."""


class CheckpointError(ExperimentError):
    """A checkpoint is missing, malformed, or incompatible with the run."""


class CorruptArtifactError(ExperimentError):
    """An on-disk artifact failed its integrity (checksum/decode) check."""


class ObservabilityError(ReproError):
    """The observability layer was misconfigured or fed invalid data."""


#: The structured failure taxonomy of parallel grid execution.
FAILURE_KINDS = ("worker-death", "timeout", "cell-exception", "corrupt-result")


class ParallelExecutionError(ExperimentError):
    """The shared-memory parallel execution engine failed.

    Attributes
    ----------
    kind:
        One of :data:`FAILURE_KINDS`, or ``None`` for engine-misuse
        errors that are not a cell failure (bad worker count, closed
        engine, ...).
    cell:
        The grid-cell key the failure concerns, when known.
    attempt:
        The 1-based attempt that failed, when known.
    """

    def __init__(
        self,
        message: str,
        *,
        kind: Optional[str] = None,
        cell: Any = None,
        attempt: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.cell = cell
        self.attempt = attempt


class WorkerCrashError(ParallelExecutionError):
    """A pool worker died (SIGKILL, OOM, segfault) while holding a cell."""

    def __init__(self, message: str, **kwargs: Any) -> None:
        kwargs.setdefault("kind", "worker-death")
        super().__init__(message, **kwargs)


class CellTimeoutError(ParallelExecutionError, TimeoutError):
    """A cell attempt exceeded its per-attempt deadline.

    Also a ``TimeoutError`` so pre-taxonomy callers that matched on the
    builtin keep working.
    """

    def __init__(self, message: str, **kwargs: Any) -> None:
        kwargs.setdefault("kind", "timeout")
        super().__init__(message, **kwargs)


class CorruptResultError(ParallelExecutionError):
    """A completed cell's stored result failed its integrity check."""

    def __init__(self, message: str, **kwargs: Any) -> None:
        kwargs.setdefault("kind", "corrupt-result")
        super().__init__(message, **kwargs)


class GridManifestError(ExperimentError):
    """The durable grid manifest was misused (missing dir, bad spec)."""


def classify_failure(exc: BaseException) -> str:
    """Map *exc* onto the :data:`FAILURE_KINDS` taxonomy.

    Exceptions that already carry a valid ``kind`` attribute (the
    :class:`ParallelExecutionError` refinements) keep it; otherwise
    timeouts map to ``timeout``, executor breakage (a worker killed
    under the pool) to ``worker-death``, damaged artifacts to
    ``corrupt-result``, and everything else — an exception raised *by*
    the cell body — to ``cell-exception``.
    """
    kind = getattr(exc, "kind", None)
    if kind in FAILURE_KINDS:
        return kind
    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, BrokenExecutor):
        return "worker-death"
    if isinstance(exc, CorruptArtifactError):
        return "corrupt-result"
    return "cell-exception"
