"""Vectorized schedule evaluation — the simulator hot path.

Semantics (paper Section IV): tasks queue on their assigned machine in
global-scheduling-order (ties by task index); a task's start time is
``max(machine available, arrival)``; its completion adds its ETC; its
utility is ``Υ_τ(completion − arrival)``; its energy is
``EEC(τ, Ω(m)) = ETC·EPC`` regardless of queueing.

There is one evaluation semantics, the batch fold order of
:mod:`repro.sim.batchkernel`: each queue is a left fold in ascending
``(order key, task)`` order, and a chromosome's utility ``U`` (Eq. 1)
and energy ``E`` (Eq. 3) are left folds of the per-queue sums over
ascending queue id.  Two kernels compute it:

* ``"batch"`` (default) — the population-at-once kernel with
  queue-state reuse, whose per-element passes run in C;
* ``"batch-reference"`` — :func:`~repro.sim.batchkernel.batch_reference_row`,
  the same folds as scalar Python loops: the exactness oracle, and the
  fallback when no C compiler is available.

Both return bit-identical objectives, and :meth:`ScheduleEvaluator.evaluate`
uses the oracle for the full per-task result in either mode.  Both fold
every machine queue from the evaluator's *backlog* (see
:mod:`repro.sim.batchkernel`): the identity by default, the committed
queue prefixes' end state in the online service.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.sim.schedule import ResourceAllocation
from repro.types import BoolArray, FloatArray, IntArray
from repro.utility.vectorized import TUFTable
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.context import RunContext

__all__ = [
    "EvaluationResult",
    "EvaluatorArrays",
    "ScheduleEvaluator",
    "DEFAULT_KERNEL_METHOD",
    "KERNEL_METHODS",
]

#: Default evaluation kernel: the compiled population-at-once kernel.
DEFAULT_KERNEL_METHOD = "batch"

#: Every valid ``kernel_method``: the production kernel and its scalar
#: oracle.  The evaluators, :class:`~repro.experiments.config.ExperimentConfig`
#: and both CLIs validate against this tuple.
KERNEL_METHODS = ("batch", "batch-reference")

#: Default bound on cached queue states.  Sized from measured working
#: sets at the benchmark scales: a 125-generation Figure-3 run inserts
#: ~62k distinct queue states, so 2¹⁷ entries leave ~2× headroom before
#: a capacity clear while costing ~10 MB for the batch kernel's
#: queue-state table.
DEFAULT_CACHE_SIZE = 131_072


@dataclass(frozen=True)
class EvaluationResult:
    """Full outcome of simulating one resource allocation.

    Attributes
    ----------
    energy:
        Total energy consumed ``E`` (joules) — Eq. (3).
    utility:
        Total utility earned ``U`` — Eq. (1).
    start_times, completion_times:
        ``(T,)`` arrays (seconds).
    task_utilities:
        ``(T,)`` per-task utility earned.
    task_energies:
        ``(T,)`` per-task energy (joules).
    queue_states:
        ``(5, num_queues)`` end fold state of every machine queue (rows
        in :data:`~repro.sim.batchkernel.STATE_FIELDS` order): the
        backlog a continuation of these queues starts from.
    """

    energy: float
    utility: float
    start_times: FloatArray
    completion_times: FloatArray
    task_utilities: FloatArray
    task_energies: FloatArray
    queue_states: FloatArray

    @property
    def makespan(self) -> float:
        """Latest completion time across all tasks."""
        return float(self.completion_times.max())

    @property
    def objectives(self) -> tuple[float, float]:
        """``(energy, utility)`` pair for the optimizer."""
        return (self.energy, self.utility)


@dataclass(frozen=True)
class EvaluatorArrays:
    """The evaluator's precomputed per-task gathers, supplied externally.

    Normally :class:`ScheduleEvaluator` derives these from the system
    and trace at construction — a fancy-indexing copy of O(tasks ×
    machines) per array.  The shared-memory parallel engine
    (:mod:`repro.parallel`) computes them once per experiment, publishes
    them into a shared segment, and hands every worker zero-copy views
    wrapped in this container, so evaluator construction in a pool
    worker costs no array materialization at all.  Arrays must match
    what the evaluator would have computed itself — bit for bit — which
    :func:`repro.parallel.descriptors.dataset_arrays` guarantees by
    running the same expressions.

    Attributes
    ----------
    etc_rows, eec_rows:
        ``(T, M)`` per-task ETC / EEC rows (task *i* × machine *m*).
    feasible_rows:
        ``(T, M)`` boolean feasibility per task and machine.
    tuf_table:
        The stacked :class:`~repro.utility.vectorized.TUFTable`.
    """

    etc_rows: FloatArray
    eec_rows: FloatArray
    feasible_rows: BoolArray
    tuf_table: TUFTable

    @classmethod
    def gather(
        cls,
        system: SystemModel,
        task_types: IntArray,
        tuf_table: Optional[TUFTable] = None,
    ) -> "EvaluatorArrays":
        """The rows of *task_types*, with *tuf_table* (built from
        *system* when ``None``) — what an evaluator computes itself."""
        return cls(
            etc_rows=system.etc_task_machine[task_types],
            eec_rows=system.eec_task_machine[task_types],
            feasible_rows=system.feasible_task_machine[task_types],
            tuf_table=(
                tuf_table if tuf_table is not None
                else TUFTable.from_system(system)
            ),
        )


class ScheduleEvaluator:
    """Evaluates allocations for one (system, trace) pair.

    Precomputes the per-task ETC/EEC gathers and the stacked TUF table
    once; every evaluation afterwards is pure array work.

    Parameters
    ----------
    system:
        The :class:`~repro.model.system.SystemModel`; its task types
        must carry utility functions.
    trace:
        The workload :class:`~repro.workload.trace.Trace`.
    check_feasibility:
        Validate every evaluated allocation against the feasibility
        mask (cheap; disable only inside the GA, whose operators
        preserve feasibility by construction).
    queue_groups:
        Optional ``(num_machines,)`` int array mapping each machine
        index to a queue id.  Machines sharing a queue id contend for
        the same sequential queue while keeping their own ETC/EPC —
        this is how the DVFS extension models one physical processor
        exposed at several operating points.  Default: identity (every
        machine is its own queue).
    fault_hook:
        Optional zero-argument callable invoked at the top of every
        :meth:`evaluate` / :meth:`evaluate_batch` call.  Exists for the
        deterministic fault-injection harness
        (:mod:`repro.testing.faults`): tests install a hook that
        crashes or hangs at a chosen evaluation, exercising the
        checkpoint/resume and retry recovery paths.  ``None`` (the
        default) costs one predicate per call.
    cache_size:
        Entry budget of the batch kernel's queue-state table (see
        :class:`~repro.sim.batchkernel.BatchQueueKernel`); ``0``
        disables reuse.  Results are bit-identical whatever the size,
        so this only changes speed.
    kernel_method:
        One of :data:`KERNEL_METHODS`: ``"batch"`` (default) — the
        population-at-once kernel with queue-state reuse (see
        :mod:`repro.sim.batchkernel`); ``"batch-reference"`` — its
        scalar exactness oracle, run row by row.  The two are
        bit-identical.
    obs:
        Optional :class:`~repro.obs.context.RunContext`.  When enabled,
        each batch evaluation records an ``evaluator.batch`` span and
        feeds the chromosome / queue-hit / queue-miss / eviction
        counters; when disabled (default), evaluation pays exactly one
        predicate — the kernel itself is untouched either way, so
        objectives are bit-identical with observability on or off.
    precomputed:
        Optional :class:`EvaluatorArrays` carrying the per-task
        ETC/EEC/feasibility gathers and the TUF table, e.g. zero-copy
        views of a shared-memory segment (see :mod:`repro.parallel`).
        When given, construction performs no array materialization and
        the system's task types need not carry utility functions (the
        table is taken as supplied).  Results are bit-identical to a
        self-computed evaluator because the arrays are the same values.
    backlog:
        Optional ``(5, num_queues)`` fold state every machine queue
        starts from (rows in :data:`~repro.sim.batchkernel.STATE_FIELDS`
        order), e.g. the end state of committed work queued ahead of
        this trace's tasks.  ``None`` (default) is the identity: empty
        queues.  Fixed for the evaluator's life.
    """

    def __init__(
        self,
        system: SystemModel,
        trace: Trace,
        check_feasibility: bool = True,
        queue_groups: Optional[IntArray] = None,
        fault_hook: Optional[Callable[[], None]] = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        kernel_method: str = DEFAULT_KERNEL_METHOD,
        obs: Optional["RunContext"] = None,
        precomputed: Optional[EvaluatorArrays] = None,
        backlog: Optional[FloatArray] = None,
    ) -> None:
        trace.validate_against(system.num_task_types)
        if kernel_method not in KERNEL_METHODS:
            raise ScheduleError(
                f"kernel_method must be one of {KERNEL_METHODS}; "
                f"got {kernel_method!r}"
            )
        self.system = system
        self.trace = trace
        self.check_feasibility = check_feasibility
        self.fault_hook = fault_hook
        self.kernel_method = kernel_method
        if obs is None:
            from repro.obs.context import NULL_CONTEXT

            obs = NULL_CONTEXT
        self.obs = obs
        self.num_tasks = trace.num_tasks
        self.num_machines = system.num_machines

        self._task_types = trace.task_types
        self._arrivals = trace.arrival_times
        if precomputed is None:
            # Per-task rows of the machine-instance-expanded matrices.
            precomputed = EvaluatorArrays.gather(system, self._task_types)
        expected = (self.num_tasks, self.num_machines)
        if precomputed.etc_rows.shape != expected:
            raise ScheduleError(
                f"precomputed etc_rows shape {precomputed.etc_rows.shape} "
                f"does not match (tasks, machines) = {expected}"
            )
        self._etc_rows = precomputed.etc_rows
        self._eec_rows = precomputed.eec_rows
        self._feasible_rows = precomputed.feasible_rows
        self._tuf_table = precomputed.tuf_table
        # Flat (task, machine) views for the kernel and its oracle (a
        # ravel of a C-contiguous array — the shared-view case — is
        # zero-copy).
        self._etc_flat = np.ascontiguousarray(self._etc_rows).reshape(-1)
        self._eec_flat = np.ascontiguousarray(self._eec_rows).reshape(-1)
        self._row_index = np.arange(self.num_tasks)
        if queue_groups is None:
            self._queue_groups = np.arange(self.num_machines, dtype=np.int64)
            self._num_queues = self.num_machines
        else:
            qg = np.asarray(queue_groups, dtype=np.int64)
            if qg.shape != (self.num_machines,):
                raise ScheduleError(
                    f"queue_groups must have shape ({self.num_machines},); "
                    f"got {qg.shape}"
                )
            if np.any(qg < 0):
                raise ScheduleError("queue ids must be >= 0")
            self._queue_groups = qg.copy()
            self._num_queues = int(qg.max()) + 1
        self._backlog = None
        if backlog is not None:
            from repro.sim.batchkernel import STATE_FIELDS

            bl = np.array(backlog, dtype=np.float64)
            if bl.shape != (len(STATE_FIELDS), self._num_queues):
                raise ScheduleError(
                    f"backlog must have shape ({len(STATE_FIELDS)}, "
                    f"{self._num_queues}); got {bl.shape}"
                )
            bl.setflags(write=False)
            self._backlog = bl
        self._batch_kernel = None
        if kernel_method == "batch":
            # Imported here so ``import repro`` does not load the
            # compiled kernel's build machinery.
            from repro.sim.batchkernel import BatchQueueKernel

            self._batch_kernel = BatchQueueKernel(self, cache_size=cache_size)

    @property
    def tuf_table(self) -> TUFTable:
        """The stacked TUF table (shared with heuristics)."""
        return self._tuf_table

    # -- single allocation -------------------------------------------------

    def evaluate(self, allocation: ResourceAllocation) -> EvaluationResult:
        """Simulate one allocation and return the full result.

        Totals come from :func:`~repro.sim.batchkernel.batch_reference_row`
        in both kernel modes, so they agree bit for bit with
        :meth:`evaluate_batch`.
        """
        if self.fault_hook is not None:
            self.fault_hook()
        if allocation.num_tasks != self.num_tasks:
            raise ScheduleError(
                f"allocation covers {allocation.num_tasks} tasks; trace has "
                f"{self.num_tasks}"
            )
        assignment = allocation.machine_assignment
        if int(assignment.max()) >= self.num_machines:
            raise ScheduleError(
                f"allocation references machine {int(assignment.max())}; system "
                f"has {self.num_machines}"
            )
        if self.check_feasibility:
            ok = self._feasible_rows[self._row_index, assignment]
            if not np.all(ok):
                bad = int(np.flatnonzero(~ok)[0])
                raise ScheduleError(
                    f"task {bad} assigned to machine {int(assignment[bad])}, "
                    "which cannot execute its task type"
                )
        from repro.sim.batchkernel import batch_reference_row

        energy, utility, finish, states, task_u = batch_reference_row(
            self, assignment, allocation.scheduling_order
        )
        return EvaluationResult(
            energy=energy,
            utility=utility,
            start_times=finish - self._etc_rows[self._row_index, assignment],
            completion_times=finish,
            task_utilities=task_u,
            task_energies=self._eec_rows[self._row_index, assignment],
            queue_states=states,
        )

    def objectives(self, allocation: ResourceAllocation) -> tuple[float, float]:
        """``(energy, utility)`` of one allocation."""
        return self.evaluate(allocation).objectives

    @property
    def cache_stats(self) -> dict:
        """The batch kernel's queue-state table counters, including
        element-level ``reuse_rate`` (all zero for ``batch-reference``,
        which caches nothing)."""
        if self._batch_kernel is not None:
            return self._batch_kernel.stats
        return {"hits": 0, "misses": 0, "entries": 0, "evictions": 0,
                "hit_rate": 0.0}

    def clear_cache(self) -> None:
        """Drop all cached queue states (no-op for ``batch-reference``)."""
        if self._batch_kernel is not None:
            self._batch_kernel.clear()

    def queue_states(
        self, assignment: IntArray, order: IntArray
    ) -> FloatArray:
        """End fold state of every machine queue for one chromosome.

        The ``(5, num_queues)`` plane a continuation of these queues
        starts from — what :attr:`EvaluationResult.queue_states` holds —
        computed by the batch kernel (``"batch"``) or its oracle
        (``"batch-reference"``), bit-identically.  The kernel path skips
        the per-task result, so it stays cheap on long traces.
        """
        if self._batch_kernel is not None:
            return self._batch_kernel.queue_states(assignment, order)
        from repro.sim.batchkernel import batch_reference_row

        return batch_reference_row(self, assignment, order)[3]

    # -- population batch ----------------------------------------------------

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """Objectives for a whole population in one pass.

        Parameters
        ----------
        assignments, orders:
            ``(N, T)`` arrays: one chromosome per row.

        Returns
        -------
        ``(energies, utilities)`` — each ``(N,)`` float arrays.
        """
        obs = self.obs
        if not obs.enabled:
            return self._evaluate_batch_impl(assignments, orders)
        kernel = self._batch_kernel
        evict0 = kernel.queue_table.evictions if kernel is not None else 0
        t0 = time.perf_counter()
        result = self._evaluate_batch_impl(assignments, orders)
        seconds = time.perf_counter() - t0
        rows = int(result[0].shape[0])
        metrics = obs.metrics
        # Reuse is counted per machine queue, not per chromosome row.
        batch = kernel.last_batch if kernel is not None else {}
        hits = int(batch.get("queue_hits", 0))
        misses = int(batch.get("queue_misses", 0))
        reuse_rate = float(batch.get("reuse_rate", 0.0))
        obs.record_span(
            "evaluator.batch", seconds, rows=rows, cache_hits=hits,
            cache_misses=misses, reuse_rate=reuse_rate,
            kernel=self.kernel_method,
        )
        metrics.gauge(
            "evaluator_reuse_rate",
            help="fraction of queue elements answered from cached "
            "queue state in the latest batch",
        ).set(reuse_rate)
        metrics.counter(
            "evaluator_queue_states_reused_total",
            help="queue elements covered by cached full-queue state",
        ).inc(int(batch.get("elements_reused", 0)))
        metrics.counter(
            "evaluator_chromosomes_total",
            help="chromosome rows evaluated",
        ).inc(rows)
        metrics.counter(
            "evaluator_cache_hits_total",
            help="machine queues answered from the queue-state table",
        ).inc(hits)
        metrics.counter(
            "evaluator_cache_misses_total",
            help="machine queues folded because the queue-state table "
            "missed",
        ).inc(misses)
        evictions = (
            kernel.queue_table.evictions - evict0 if kernel is not None else 0
        )
        if evictions:
            metrics.counter(
                "evaluator_cache_evictions_total",
                help="capacity clears of the queue-state table",
            ).inc(evictions)
        metrics.histogram(
            "evaluator_batch_seconds",
            help="wall-clock per evaluate_batch call",
            unit="seconds",
        ).observe(seconds)
        return result

    def _evaluate_batch_impl(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """The uninstrumented batch path (see :meth:`evaluate_batch`)."""
        if self.fault_hook is not None:
            self.fault_hook()
        assignments = np.asarray(assignments, dtype=np.int64)
        orders = np.asarray(orders, dtype=np.int64)
        if assignments.ndim != 2 or assignments.shape != orders.shape:
            raise ScheduleError(
                f"batch arrays must be equal-shape 2-D; got {assignments.shape} "
                f"and {orders.shape}"
            )
        N, T = assignments.shape
        if T != self.num_tasks:
            raise ScheduleError(
                f"batch covers {T} tasks per chromosome; trace has {self.num_tasks}"
            )
        if N == 0:
            return (np.empty(0), np.empty(0))
        if int(assignments.max()) >= self.num_machines or int(assignments.min()) < 0:
            raise ScheduleError("batch references machine indices out of range")
        if self.check_feasibility:
            ok = self._feasible_rows[
                np.broadcast_to(self._row_index, (N, T)), assignments
            ]
            if not np.all(ok):
                row, col = np.argwhere(~ok)[0]
                raise ScheduleError(
                    f"chromosome {int(row)}: task {int(col)} assigned to an "
                    "infeasible machine"
                )
        if self._batch_kernel is not None:
            return self._batch_kernel.evaluate_population(assignments, orders)
        from repro.sim.batchkernel import batch_reference_row

        energies = np.empty(N, dtype=np.float64)
        utilities = np.empty(N, dtype=np.float64)
        for i in range(N):
            energies[i], utilities[i], *_ = batch_reference_row(
                self, assignments[i], orders[i]
            )
        return energies, utilities
