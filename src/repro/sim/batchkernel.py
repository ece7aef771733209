"""Population-at-once evaluation kernel with queue-state reuse caching.

The generational hot loop evaluates a ``(N, T)`` population tensor per
step.  This module reuses work at the granularity where the GA
actually repeats itself: the per-machine queue — crossover offspring
keep most parental queues intact even though almost no offspring row
equals a parent row.

Semantics
---------
Within one queue, tasks run in ascending ``(order key, task index)``
order.  With queue-local exec-time prefix sums ``cs_j`` (a sequential
left fold) the finish time of the *j*-th queued task is::

    f_j = max_{i <= j}(a_i - cs_{i-1}) + cs_j

with the running maximum propagating NaN like ``np.maximum``.
Per-queue utility and energy are sequential left folds in queue order;
per-chromosome totals are left folds over ascending queue id.

Every queue's folds start from its **backlog**: a ``(5, num_queues)``
plane holding, per queue, the fold state of the work queued ahead of
the evaluated tasks — the exec-time sum ``cs``, the running maximum
``rm``, utility, energy and last finish (rows in :data:`STATE_FIELDS`
order).  The identity backlog ``(0, -inf, 0, 0, -inf)`` is an empty
queue and reproduces plain folds from ``+0.0``; the online service
passes the end state of its committed queue prefixes instead, so a
window folds its free tasks only.  Because each fold is sequential,
folding a prefix and then continuing from its end state is the same
computation as folding the concatenated queue.

Every fold is queue-content-deterministic — a queue's numbers depend
only on its backlog and its own ordered content, never on the rest of
the batch — which is what makes cached continuation exact: results are
bit-identical with the cache on, off, across checkpoint resume, and
across serial/parallel execution.
:func:`batch_reference_row` restates the same folds as scalar Python
loops and is the exactness oracle for this kernel
(``kernel_method="batch-reference"``).  These folds are the
repository's one evaluation semantics: every objective value, golden
front and checkpoint is defined by them.

Implementation
--------------
Every per-element pass runs in C (``_batchkernel.c``, built and loaded
by :mod:`repro.sim._native` the first time a kernel is constructed),
in two foreign calls per batch:

1. hash each element, sum the hashes per queue into a *commutative*
   64-bit fingerprint (so no sort is needed to fingerprint), probe the
   :class:`QueueStateTable` for every nonempty queue, then bucket and
   order the elements of the queues that missed and run their
   finish-time and energy folds;
2. fold the missed elements' utilities per queue, insert the new queue
   states, and fold each row's totals.

Between the two, :meth:`~repro.utility.vectorized.TUFTable.evaluate`
turns the missed elements' elapsed times into utilities in NumPy, so
there is one TUF implementation (NumPy's vectorized ``exp`` and libm's
need not agree in the last bit).

An element's hash is a fixed per-``(task, machine)`` random word times
an arithmetic mix of its order key, so a queue's fingerprint depends on
its content alone — never on the rest of the batch or on the trace
length.  Hash collisions would silently reuse a wrong state; keys carry
64 hashed bits plus the queue id and length as a separate check word,
so two distinct contents collide with probability ~2⁻⁶⁴ per pair —
across the ~10⁶ lookup/entry pairs of a long run the chance of even one
collision is below 10⁻⁷, far under the hardware soft-error rate, and any
collision is confined to one run (fingerprints never leave the
process).
"""

from __future__ import annotations

import ctypes
from typing import Optional

import numpy as np

from repro.errors import ScheduleError
from repro.sim import _native

__all__ = [
    "STATE_FIELDS",
    "BatchQueueKernel",
    "QueueStateTable",
    "batch_reference_row",
    "identity_backlog",
]

#: Rows of a backlog / queue end-state plane.
STATE_FIELDS = ("cs", "rm", "utility", "energy", "finish")

#: Fixed seed for the per-symbol hash words: fingerprints must agree
#: across processes and resumed runs.  (They never change *results* —
#: only which computations are skipped — but determinism keeps cache
#: behaviour reproducible.)
_TABLE_SEED = 0x5EED_BA7C


def _odd_random_u64(n: int) -> np.ndarray:
    """*n* odd uniform uint64 values from the fixed deterministic seed."""
    rng = np.random.Generator(np.random.PCG64(_TABLE_SEED + 1))
    vals = rng.integers(0, 2**63, size=n, dtype=np.int64).view(np.uint64)
    return (vals << np.uint64(1)) | np.uint64(1)


def _addr(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def identity_backlog(num_queues: int) -> np.ndarray:
    """The ``(5, num_queues)`` fold state of empty queues."""
    backlog = np.zeros((len(STATE_FIELDS), num_queues), dtype=np.float64)
    backlog[1] = backlog[4] = -np.inf
    return backlog


def _backlog_of(ev) -> np.ndarray:
    """*ev*'s ``_backlog``, or the identity when it carries none."""
    backlog = getattr(ev, "_backlog", None)
    if backlog is None:
        return identity_backlog(int(ev._num_queues))
    return backlog


class QueueStateTable:
    """Open-addressing table: queue fingerprint → (utility, energy, finish).

    Keys are ``(key, check)`` uint64 pairs in parallel arrays; a key's
    home slot is its Fibonacci hash and collisions probe linearly for at
    most 32 slots.  The table clears itself when the entry count would
    exceed half the slots (bounded memory, short probe chains); inserts
    that find no slot within the probe cap are dropped — the cache is lossy by contract, which never changes
    results, only how much work is skipped.  The C passes probe and
    insert; this object owns the arrays.
    """

    def __init__(self, n_slots_log2: int = 18) -> None:
        if not (4 <= n_slots_log2 <= 28):
            raise ValueError(
                f"n_slots_log2 must be in [4, 28]; got {n_slots_log2}"
            )
        n = 1 << n_slots_log2
        self.n_slots = n
        self.shift = 64 - n_slots_log2
        self.capacity = n // 2
        # Only the occupancy bitmap needs zero-init: every read of
        # keys/checks/values is guarded by ``used``, so those arrays can
        # stay uninitialized (np.empty maps lazily — construction stays
        # O(slots/page) instead of a multi-MB memset per kernel).
        self.keys = np.empty(n, dtype=np.uint64)
        self.checks = np.empty(n, dtype=np.uint64)
        self.used = np.zeros(n, dtype=np.uint8)
        self.values = np.empty((3, n), dtype=np.float64)
        self.meta = np.zeros(2, dtype=np.int64)  # entries, evictions
        self.hits = 0
        self.misses = 0

    @property
    def entries(self) -> int:
        return int(self.meta[0])

    @property
    def evictions(self) -> int:
        return int(self.meta[1])

    def clear(self) -> None:
        """Drop every entry (counters keep their lifetime totals)."""
        self.used[:] = 0
        self.meta[0] = 0

    @property
    def stats(self) -> dict:
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": self.entries,
            "evictions": self.evictions,
            "hit_rate": self.hits / total if total else 0.0,
        }


class BatchQueueKernel:
    """Population-at-once evaluation with full-queue state reuse.

    Bound to one evaluator's precomputed arrays (duck-typed: needs
    ``_etc_flat``, ``_eec_flat``, ``_arrivals``, ``_task_types``,
    ``_tuf_table``, ``_queue_groups``, ``_num_queues``,
    ``num_machines``, ``num_tasks``, and optionally ``_backlog`` — the
    identity when absent).  Construction loads the compiled passes,
    building them on first use; a failed build raises
    :class:`~repro.errors.KernelBuildError`.  The backlog is read once:
    cached queue states are valid for that backlog only.

    Parameters
    ----------
    cache_size:
        Entry budget of the queue-state table.  The table clears itself
        at half load, so it gets the smallest power-of-two slot count of
        at least twice the budget (16 to 2²⁸ slots).  ``0`` disables
        reuse: every queue is recomputed each call.  Results are
        bit-identical whatever the size.
    """

    def __init__(self, ev, cache_size: int) -> None:
        if cache_size < 0:
            raise ScheduleError(f"cache_size must be >= 0, got {cache_size}")
        self._lib = _native.load_library()
        self.ev = ev
        self.use_cache = cache_size > 0
        self.M = int(ev.num_machines)
        self.T = int(ev.num_tasks)
        self.Mq = int(ev._num_queues)
        self.qg = np.ascontiguousarray(ev._queue_groups, dtype=np.int64)
        self.queue_table = QueueStateTable(
            min(28, max(4, (2 * cache_size - 1).bit_length()))
        )
        # Per-symbol hash words: symbol = task_index * M + machine
        # (machines sharing a DVFS queue still hash apart — their ETC
        # columns differ).
        self._r_sym = _odd_random_u64(self.T * self.M)
        # The arrays the C passes read, kept alive for the kernel's life.
        self._bound = [
            self.qg,
            self._r_sym,
            np.ascontiguousarray(ev._etc_flat, dtype=np.float64),
            np.ascontiguousarray(ev._eec_flat, dtype=np.float64),
            np.ascontiguousarray(ev._arrivals, dtype=np.float64),
            np.ascontiguousarray(ev._task_types, dtype=np.int64),
            np.array(_backlog_of(ev), dtype=np.float64, order="C"),
        ]
        # The C passes index these arrays unchecked.
        T, M, Mq = self.T, self.M, self.Mq
        if (
            [a.size for a in self._bound]
            != [M, T * M, T * M, T * M, T, T, len(STATE_FIELDS) * Mq]
            or (M and not 0 <= self.qg.min() <= self.qg.max() < Mq)
        ):
            raise ScheduleError(
                "evaluator arrays do not match its tasks, machines and "
                "queue groups"
            )
        self._ctx = _native.Context(
            T=self.T, M=self.M, Mq=self.Mq, use_cache=int(self.use_cache),
        )
        for name, arr in zip(
            ("qg", "r_sym", "etc", "eec", "arrivals", "task_types",
             "backlog"),
            self._bound,
        ):
            setattr(self._ctx, name, _addr(arr))
        self._ctx_addr = ctypes.addressof(self._ctx)
        self._counts = np.zeros(5, dtype=np.int64)
        self._ctx.counts = _addr(self._counts)
        self._rows = 0
        self._bind_table()
        # Reuse statistics (lifetime + last batch).
        self.last_batch: dict = {}
        self.elements_total = 0
        self.elements_reused = 0

    def _bind_table(self) -> None:
        t = self.queue_table
        c = self._ctx
        c.n_slots, c.shift, c.capacity = t.n_slots, t.shift, t.capacity
        c.keys, c.checks, c.used = _addr(t.keys), _addr(t.checks), _addr(t.used)
        c.values, c.table_meta = _addr(t.values), _addr(t.meta)

    def _grow(self, N: int) -> None:
        """Grow-only scratch for *N* rows (fresh MB-scale buffers per call
        would pay first-touch page faults every batch)."""
        rows = max(N, 2 * self._rows)
        seg, elem = rows * self.Mq, rows * self.T
        self._qkey = np.empty(seg, dtype=np.uint64)
        self._segi = np.empty(4 * (seg + 1), dtype=np.int64)
        self._segf = np.empty(len(STATE_FIELDS) * seg, dtype=np.float64)
        self._elems = np.empty(4 * elem, dtype=np.int64)
        self._elapsed = np.empty(elem, dtype=np.float64)
        self._types = np.empty(elem, dtype=np.int64)
        c = self._ctx
        c.seg_cap, c.elem_cap = seg, elem
        c.qkey, c.segi, c.segf = (
            _addr(self._qkey), _addr(self._segi), _addr(self._segf)
        )
        c.elems, c.elapsed, c.types = (
            _addr(self._elems), _addr(self._elapsed), _addr(self._types)
        )
        self._rows = rows

    # -- public API --------------------------------------------------------

    def evaluate_population(
        self, assignments: np.ndarray, orders: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(energies, utilities)`` for an already-validated batch."""
        e, u, _ = self._evaluate(assignments, orders, want_finish=False)
        return e, u

    def evaluate_population_with_finish(
        self, assignments: np.ndarray, orders: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """As above plus per-row makespan (max over queue final finishes;
        ``max`` is rounding-free, so makespans are as exact as the queue
        states themselves)."""
        return self._evaluate(assignments, orders, want_finish=True)

    @property
    def stats(self) -> dict:
        """Queue-reuse counters: table stats + element-level reuse."""
        s = self.queue_table.stats
        s["elements_total"] = self.elements_total
        s["elements_reused"] = self.elements_reused
        s["reuse_rate"] = (
            self.elements_reused / self.elements_total
            if self.elements_total else 0.0
        )
        return s

    def clear(self) -> None:
        """Drop all cached queue states."""
        self.queue_table.clear()

    def queue_states(
        self, assignment: np.ndarray, order: np.ndarray
    ) -> np.ndarray:
        """End fold state of every queue of one chromosome, ``(5, Mq)``.

        Rows follow :data:`STATE_FIELDS`; a queue the chromosome leaves
        empty keeps its backlog.  The table is bypassed (it stores no
        exec-time sums or running maxima) and the reuse counters are
        left alone.
        """
        a = np.asarray(assignment, dtype=np.int64)[None, :]
        o = np.asarray(order, dtype=np.int64)[None, :]
        self._ctx.use_cache = 0
        try:
            self._run(a, o)
        finally:
            self._ctx.use_cache = int(self.use_cache)
        segf = self._segf.reshape(len(STATE_FIELDS), -1)
        return segf[:, : self.Mq].copy()

    # -- core --------------------------------------------------------------

    def _run(self, assignments: np.ndarray, orders: np.ndarray) -> np.ndarray:
        """Both C passes over one batch; ``(3, N)`` energy, utility,
        makespan."""
        assignments = np.ascontiguousarray(assignments, dtype=np.int64)
        orders = np.ascontiguousarray(orders, dtype=np.int64)
        N, T = assignments.shape
        if orders.shape != (N, T) or T != self.T:
            raise ScheduleError(
                f"batch arrays {assignments.shape} and {orders.shape} do "
                f"not cover this kernel's {self.T} tasks"
            )
        if N > self._rows:
            self._grow(N)
        n_missed = self._lib.bk_probe_fold(
            self._ctx_addr, _addr(assignments), _addr(orders), N
        )
        if n_missed < 0:
            raise ScheduleError("batch references machine indices out of range")
        u_addr = None
        if n_missed:
            u = np.ascontiguousarray(
                self.ev._tuf_table.evaluate(
                    self._types[:n_missed], self._elapsed[:n_missed]
                ),
                dtype=np.float64,
            )
            u_addr = _addr(u)
        out = np.empty((3, N), dtype=np.float64)
        self._lib.bk_fold_insert(self._ctx_addr, u_addr, _addr(out), N)
        return out

    def _evaluate(
        self, assignments: np.ndarray, orders: np.ndarray, want_finish: bool
    ) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        out = self._run(assignments, orders)
        N, T = out.shape[1], self.T
        hits, misses, hit_elems, queues, _ = self._counts.tolist()
        table = self.queue_table
        table.hits += hits
        table.misses += misses
        n = N * T
        self.elements_total += n
        self.elements_reused += hit_elems
        self.last_batch = {
            "rows": N,
            "elements": n,
            "queues": queues,
            "queue_hits": hits,
            "queue_misses": misses,
            "elements_reused": hit_elems,
            "reuse_rate": hit_elems / n if n else 0.0,
        }
        return out[0], out[1], (out[2] if want_finish else None)


def batch_reference_row(
    ev, assignment: np.ndarray, order: np.ndarray
) -> tuple[float, float, np.ndarray, np.ndarray, np.ndarray]:
    """Scalar oracle for the batch kernel's exact fold semantics.

    Returns ``(energy, utility, per-task finish times, queue end
    states, per-task utilities)`` for one chromosome, computing every
    queue with plain Python left folds that start from *ev*'s backlog
    (the identity when it carries none).  The end states are a ``(5, num_queues)`` plane in
    :data:`STATE_FIELDS` order — the backlog a continuation of these
    queues would start from.  The TUF table is evaluated through the
    same vectorized :meth:`~repro.utility.vectorized.TUFTable.evaluate`
    — it is elementwise, so composition cannot change its values —
    keeping the oracle honest about the recurrence while staying usable
    in tests.
    """
    T = ev.num_tasks
    qg = ev._queue_groups
    states = np.array(_backlog_of(ev), dtype=np.float64)
    queues: dict[int, list[tuple[int, int]]] = {}
    for t in range(T):
        queues.setdefault(int(qg[assignment[t]]), []).append(
            (int(order[t]), t)
        )
    finish = np.empty(T, dtype=np.float64)
    for qid, items in queues.items():
        items.sort()
        cs = float(states[0, qid])
        rm = float(states[1, qid])
        for o, t in items:
            m = int(assignment[t])
            e = float(ev._etc_flat[t * ev.num_machines + m])
            a = float(ev._arrivals[t])
            cs_prev = cs
            cs = cs + e
            key = a - cs_prev
            rm = max(rm, key)
            finish[t] = rm + cs
        states[0, qid] = cs
        states[1, qid] = rm
        states[4, qid] = finish[items[-1][1]]
    elapsed = finish - ev._arrivals
    task_u = ev._tuf_table.evaluate(ev._task_types, elapsed)
    utility = 0.0
    energy = 0.0
    for qid in range(ev._num_queues):
        u_q = float(states[2, qid])
        e_q = float(states[3, qid])
        for o, t in queues.get(qid, ()):
            m = int(assignment[t])
            u_q = u_q + float(task_u[t])
            e_q = e_q + float(ev._eec_flat[t * ev.num_machines + m])
        states[2, qid] = u_q
        states[3, qid] = e_q
        utility = utility + u_q
        energy = energy + e_q
    return energy, utility, finish, states, task_u
