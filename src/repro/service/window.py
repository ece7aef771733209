"""Pinned-prefix window evaluation over a growing committed horizon.

The optimization trick behind the service: instead of re-optimizing
each window in isolation (which would ignore queue backlogs left by
earlier dispatches), every window is optimized over the *full* horizon
— all committed (already-dispatched) tasks plus the window's free
tasks — with the committed genes frozen in every chromosome:

* Committed order keys are the keys the winning chromosome carried
  when its window was optimized; free keys are offset by
  ``order_base`` (the count of every task committed so far), so
  committed tasks sort strictly before free tasks in every machine
  queue and their queue prefix is **identical across the whole
  population and across generations**.
* Every objective is a left fold along each machine queue (see
  :mod:`repro.sim.batchkernel`), so an identical prefix has one end
  state per queue — the *backlog*.  The window evaluates its **free
  tasks only**, starting every queue from the ledger's backlog: bit
  for bit the fold over the whole horizon, at O(free tasks) per row.
* Because committed tasks occupy the head of their queues, their
  finish times, energies, and utilities are *constants* with respect
  to the free genes — the committed contribution shifts every
  objective point by the same vector, preserving Pareto structure
  while making each window's objectives service-cumulative.

:class:`CommittedLedger` is the durable record of dispatched tasks and
carries the backlog from window to window: a commit stores the end
states of the dispatched chromosome's queues.  :class:`WindowEvaluator`
is the evaluator adapter the per-window algorithm runs against.
Compaction drops committed tasks that can no longer interact with
future arrivals (queue-prefix finish times at or before the window
start), bounding the horizon for indefinite streams; the survivors are
then folded from empty queues once to rebuild the backlog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ScheduleError
from repro.sim.evaluator import (
    DEFAULT_CACHE_SIZE,
    DEFAULT_KERNEL_METHOD,
    EvaluatorArrays,
    ScheduleEvaluator,
)
from repro.sim.schedule import ResourceAllocation
from repro.types import FloatArray, IntArray
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.system import SystemModel
    from repro.obs.context import RunContext
    from repro.service.stream import WindowBatch
    from repro.utility.vectorized import TUFTable

__all__ = ["CommittedLedger", "WindowEvaluator"]


def _empty_i64() -> IntArray:
    return np.empty(0, dtype=np.int64)


def _empty_f64() -> FloatArray:
    return np.empty(0, dtype=np.float64)


@dataclass
class CommittedLedger:
    """Record of every dispatched (committed) task still on the horizon.

    Arrays are aligned and arrival-sorted (windows commit in order).
    ``order_keys`` are the absolute scheduling keys committed tasks
    carried when their window was optimized — kept verbatim so the
    committed queue order never changes after commit.
    ``energy_offset``/``utility_offset`` accumulate the contributions of
    *compacted* tasks, which leave the horizon but stay in the service
    totals.  ``backlog`` is the end fold state of every machine queue's
    committed prefix, the state the next window's free tasks start from.
    """

    task_types: IntArray = field(default_factory=_empty_i64)
    arrival_times: FloatArray = field(default_factory=_empty_f64)
    machine_assignment: IntArray = field(default_factory=_empty_i64)
    order_keys: IntArray = field(default_factory=_empty_i64)
    finish_times: FloatArray = field(default_factory=_empty_f64)
    task_energies: FloatArray = field(default_factory=_empty_f64)
    task_utilities: FloatArray = field(default_factory=_empty_f64)
    energy_offset: float = 0.0
    utility_offset: float = 0.0
    #: Next window's free order keys start here (>= every committed key
    #: + 1, so committed tasks always sort first in their queues).
    order_base: int = 0
    dispatched_total: int = 0
    compacted_total: int = 0
    #: Bumped on every compaction that drops tasks (horizon task
    #: indices and order keys are renumbered).
    epoch: int = 0
    #: ``(5, num_queues)`` end state of the committed queue prefixes
    #: (rows in :data:`~repro.sim.batchkernel.STATE_FIELDS` order), or
    #: ``None`` when stale — after a compaction, or a commit that
    #: supplied no states; :meth:`backlog_for` then refolds it once.
    backlog: Optional[FloatArray] = None

    @property
    def active(self) -> int:
        """Committed tasks still in the horizon trace."""
        return int(self.task_types.shape[0])

    @property
    def total_energy(self) -> float:
        """Cumulative energy of every task ever dispatched."""
        return float(self.task_energies.sum()) + self.energy_offset

    @property
    def total_utility(self) -> float:
        """Cumulative utility of every task ever dispatched."""
        return float(self.task_utilities.sum()) + self.utility_offset

    def commit(
        self,
        batch: "WindowBatch",
        assignment: IntArray,
        order_keys: IntArray,
        finish_times: FloatArray,
        task_energies: FloatArray,
        task_utilities: FloatArray,
        queue_states: Optional[FloatArray] = None,
    ) -> None:
        """Append one window's dispatched tasks.

        *order_keys* are the absolute keys used during the window's
        optimization (free keys already offset by :attr:`order_base`);
        keeping them verbatim keeps the committed queue order stable.
        *queue_states* are the end states of the dispatched chromosome's
        queues (:attr:`~repro.sim.evaluator.EvaluationResult.queue_states`
        of :meth:`WindowEvaluator.evaluate_full`) and become the
        :attr:`backlog`; without them the backlog goes stale and is
        refolded from the ledger when next needed.
        """
        count = batch.count
        arrays = (assignment, order_keys, finish_times, task_energies,
                  task_utilities)
        if any(a.shape != (count,) for a in arrays):
            raise ScheduleError(
                f"commit arrays must all have shape ({count},)"
            )
        if count and self.arrival_times.size and (
            batch.arrival_times[0] < self.arrival_times[-1]
        ):
            raise ScheduleError(
                "windows must commit in arrival order (append-only horizon)"
            )
        if count and int(order_keys.min()) < self.order_base:
            raise ScheduleError(
                "committed order keys must not collide with earlier windows"
            )
        self.task_types = np.concatenate([self.task_types, batch.task_types])
        self.arrival_times = np.concatenate(
            [self.arrival_times, batch.arrival_times]
        )
        self.machine_assignment = np.concatenate(
            [self.machine_assignment, assignment.astype(np.int64)]
        )
        self.order_keys = np.concatenate(
            [self.order_keys, order_keys.astype(np.int64)]
        )
        self.finish_times = np.concatenate(
            [self.finish_times, finish_times.astype(np.float64)]
        )
        self.task_energies = np.concatenate(
            [self.task_energies, task_energies.astype(np.float64)]
        )
        self.task_utilities = np.concatenate(
            [self.task_utilities, task_utilities.astype(np.float64)]
        )
        self.dispatched_total += count
        self.backlog = (
            None if queue_states is None
            else np.array(queue_states, dtype=np.float64)
        )
        # Advance the base past this window's keys (a permutation of
        # [order_base, order_base + count)), so the next window's free
        # tasks sort strictly after everything committed.
        self.order_base += count

    def compact(self, horizon_start: float) -> int:
        """Drop committed tasks that can no longer affect the future.

        A committed queue prefix is droppable when its last finish time
        is at or before both *horizon_start* (no future arrival can
        slot in front of it) and the arrival of the next committed task
        in the same queue (the survivor's start recurrence then no
        longer depends on the dropped prefix).  Finish times are
        nondecreasing along a queue, so checking the boundary task
        suffices.  Dropped contributions move into the offsets; the
        remaining keys are renumbered densely (order preserved) so
        order keys stay small forever; :attr:`epoch` is bumped and the
        :attr:`backlog` goes stale: the survivors are folded from empty
        queues, exactly as a horizon that never held the dropped tasks.

        Returns the number of tasks dropped (0 = nothing to do, and the
        ledger — including :attr:`epoch` and :attr:`backlog` — is
        untouched).
        """
        C = self.active
        if C == 0:
            return 0
        drop = np.zeros(C, dtype=bool)
        for m in np.unique(self.machine_assignment):
            idx = np.flatnonzero(self.machine_assignment == m)
            queue = idx[np.argsort(self.order_keys[idx], kind="stable")]
            finishes = self.finish_times[queue]
            # Longest droppable prefix: walk from the back so one scan
            # finds it (prefix finishes are nondecreasing).
            for r in range(queue.size, 0, -1):
                boundary = (
                    self.arrival_times[queue[r]] if r < queue.size
                    else horizon_start
                )
                if finishes[r - 1] <= min(horizon_start, boundary):
                    drop[queue[:r]] = True
                    break
        dropped = int(drop.sum())
        if dropped == 0:
            return 0
        self.energy_offset += float(self.task_energies[drop].sum())
        self.utility_offset += float(self.task_utilities[drop].sum())
        keep = ~drop
        self.task_types = self.task_types[keep]
        self.arrival_times = self.arrival_times[keep]
        self.machine_assignment = self.machine_assignment[keep]
        self.finish_times = self.finish_times[keep]
        self.task_energies = self.task_energies[keep]
        self.task_utilities = self.task_utilities[keep]
        kept_keys = self.order_keys[keep]
        # Dense renumber preserving relative order: keys stay bounded
        # by the active horizon length no matter how long the stream
        # runs, which keeps the kernel's order-key table applicable.
        self.order_keys = np.argsort(
            np.argsort(kept_keys, kind="stable"), kind="stable"
        ).astype(np.int64)
        self.order_base = int(self.order_keys.shape[0])
        self.compacted_total += dropped
        self.epoch += 1
        self.backlog = None
        return dropped

    def backlog_for(
        self,
        system: "SystemModel",
        kernel_method: str = DEFAULT_KERNEL_METHOD,
        tuf_table: Optional["TUFTable"] = None,
    ) -> FloatArray:
        """The committed queues' end fold state on *system*'s machines.

        The identity for an empty ledger; otherwise the carried
        :attr:`backlog`, refolded once (and stored) when stale by
        folding the committed chromosome from empty queues with
        *kernel_method*'s kernel.
        """
        if self.active == 0:
            # Imported here so ``import repro.service`` does not load
            # the compiled kernel's build machinery.
            from repro.sim.batchkernel import identity_backlog

            return identity_backlog(system.num_machines)
        if self.backlog is None:
            committed = Trace(
                task_types=self.task_types,
                arrival_times=self.arrival_times,
                window=float(self.arrival_times[-1]) + 1.0,
            )
            evaluator = ScheduleEvaluator(
                system, committed,
                check_feasibility=False,
                cache_size=0,
                kernel_method=kernel_method,
                precomputed=EvaluatorArrays.gather(
                    system, self.task_types, tuf_table
                ),
            )
            self.backlog = evaluator.queue_states(
                self.machine_assignment, self.order_keys
            )
        return self.backlog


class WindowEvaluator:
    """Evaluator adapter for one dispatch window (free genes only).

    Presents the GA-facing evaluator surface (``system``, ``trace``,
    ``num_tasks``, ``evaluate_batch``) over the window's **free** tasks
    and evaluates exactly those: a :class:`ScheduleEvaluator` over the
    free tasks whose machine queues start from the ledger's backlog, so
    each row folds O(free tasks) elements however long the committed
    horizon is.  Committed genes are frozen and sort first in every
    queue; free order keys are offset by the ledger's ``order_base``
    when committed.  Objectives returned are service-cumulative:
    horizon totals plus the ledger's compaction offsets.

    *tuf_table* lets a long-running caller build the TUF table once
    instead of once per window; *cache_size* bounds this window's
    queue-state table, which lives and dies with the window (cached
    states are valid for one backlog only).
    """

    def __init__(
        self,
        system: "SystemModel",
        ledger: CommittedLedger,
        batch: "WindowBatch",
        kernel_method: str = DEFAULT_KERNEL_METHOD,
        cache_size: int = DEFAULT_CACHE_SIZE,
        obs: Optional["RunContext"] = None,
        tuf_table: Optional["TUFTable"] = None,
    ) -> None:
        if batch.count == 0:
            raise ScheduleError("cannot build a WindowEvaluator for an "
                                "idle (zero-task) window")
        self.ledger = ledger
        self.batch = batch
        self.order_base = ledger.order_base
        arrays = EvaluatorArrays.gather(system, batch.task_types, tuf_table)
        backlog = ledger.backlog_for(system, kernel_method, arrays.tuf_table)
        #: Whether the window starts from a carried non-empty backlog.
        self.kernel_adopted = ledger.active > 0
        # GA-facing surface: the free tasks as their own trace (absolute
        # arrival times, so finish times stay on the service clock).
        self.system = system
        self.trace = Trace(
            task_types=batch.task_types,
            arrival_times=batch.arrival_times,
            window=batch.end,
        )
        self.num_tasks = batch.count
        self.num_machines = system.num_machines
        self.evaluator = ScheduleEvaluator(
            system, self.trace,
            check_feasibility=False,
            kernel_method=kernel_method,
            cache_size=cache_size,
            obs=obs,
            precomputed=arrays,
            backlog=backlog,
        )

    # -- GA-facing evaluator surface ---------------------------------------

    def evaluate_batch(
        self, assignments: IntArray, orders: IntArray
    ) -> tuple[FloatArray, FloatArray]:
        """Service-cumulative ``(energies, utilities)`` per free-gene row."""
        energies, utilities = self.evaluator.evaluate_batch(
            assignments, orders
        )
        if self.ledger.energy_offset or self.ledger.utility_offset:
            energies = energies + self.ledger.energy_offset
            utilities = utilities + self.ledger.utility_offset
        return energies, utilities

    # -- commit support ----------------------------------------------------

    def evaluate_full(
        self, assignment: IntArray, order: IntArray
    ):
        """Per-task result for one free-gene chromosome, at commit time.

        An :class:`~repro.sim.evaluator.EvaluationResult` over the
        window's free tasks: per-task finish times feed compaction,
        per-task energies/utilities feed the ledger, and
        ``queue_states`` becomes the ledger's next backlog.  Its
        ``energy``/``utility`` are horizon totals (backlog included,
        compaction offsets not), bit-identical to the batch path: the
        scalar oracle runs over the free tasks from the same backlog.
        """
        alloc = ResourceAllocation(
            machine_assignment=np.asarray(assignment, dtype=np.int64),
            scheduling_order=np.asarray(order, dtype=np.int64),
        )
        return self.evaluator.evaluate(alloc)

    def absolute_orders(self, orders: IntArray) -> IntArray:
        """Free GA order keys shifted to their absolute (ledger) values."""
        return np.asarray(orders, dtype=np.int64) + self.order_base

    @property
    def cache_stats(self) -> dict:
        """This window's kernel reuse counters."""
        return self.evaluator.cache_stats

    @property
    def last_batch_stats(self) -> dict:
        """Reuse counters for the most recent batch (empty pre-first)."""
        kernel = self.evaluator._batch_kernel
        return dict(kernel.last_batch) if kernel is not None else {}
