"""Queue-state cache transparency and kernel exactness at the evaluator.

The cache contract is that caching is invisible: any sequence of
``evaluate_batch`` calls returns bit-identical objectives with the
batch kernel's queue-state table on, off, cleared, full, or pre-warmed,
in any batch composition.  That holds because every fold is a function
of one queue's ordered content alone (see :mod:`repro.sim.batchkernel`).
Exactness is pinned against the scalar oracle
:func:`~repro.sim.batchkernel.batch_reference_row`, including at
magnitudes where any reassociation of the folds would lose low bits,
and the robustness extension's vectorized per-queue fold (the other
place the recurrence runs) against a scalar mirror.
"""

import numpy as np
import pytest

from repro.core.operators import FeasibleMachines
from repro.errors import ScheduleError
from repro.extensions.robustness import _fold_finish_times, _queues
from repro.sim.batchkernel import batch_reference_row
from repro.sim.evaluator import KERNEL_METHODS, ScheduleEvaluator
from repro.sim.events import simulate_reference
from repro.sim.schedule import ResourceAllocation
from repro.workload.trace import Trace


def make_batch(system, trace, n_rows, seed):
    """Random feasible (assignments, orders) rows for (system, trace)."""
    rng = np.random.default_rng(seed)
    feasible = FeasibleMachines.from_system_trace(system, trace)
    assignments = feasible.sample_matrix(n_rows, rng)
    orders = np.array(
        [rng.permutation(trace.num_tasks) for _ in range(n_rows)]
    )
    return assignments, orders


def make_evaluator(system, trace, **kwargs):
    kwargs.setdefault("check_feasibility", False)
    return ScheduleEvaluator(system, trace, **kwargs)


def assert_matches_oracle(ev, assignments, orders):
    energies, utilities = ev.evaluate_batch(assignments, orders)
    for i in range(assignments.shape[0]):
        energy, utility, *_ = batch_reference_row(ev, assignments[i], orders[i])
        assert energies[i] == energy
        assert utilities[i] == utility


# -- cache transparency -------------------------------------------------------


class TestCacheTransparency:
    def test_cache_on_off_bit_identical(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 40, 0)
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        warm = make_evaluator(small_system, small_trace, cache_size=1000)
        e0, u0 = cold.evaluate_batch(assignments, orders)
        e1, u1 = warm.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)
        # Second pass: every queue hits, still bit-identical.
        e2, u2 = warm.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e2)
        np.testing.assert_array_equal(u0, u2)
        batch = warm._batch_kernel.last_batch
        assert batch["queue_misses"] == 0
        assert batch["queue_hits"] == batch["queues"]

    def test_repeated_rows_within_a_batch(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 6, 1)
        dup = np.array([0, 1, 0, 2, 1, 0, 5, 5])
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        warm = make_evaluator(small_system, small_trace)
        e0, u0 = cold.evaluate_batch(assignments[dup], orders[dup])
        e1, u1 = warm.evaluate_batch(assignments[dup], orders[dup])
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)

    def test_partial_hit_batch(self, small_system, small_trace):
        """A batch mixing cached and new queues must equal a cold pass."""
        assignments, orders = make_batch(small_system, small_trace, 30, 2)
        warm = make_evaluator(small_system, small_trace)
        warm.evaluate_batch(assignments[:17], orders[:17])  # pre-warm a prefix
        warmed = warm._batch_kernel.last_batch["queues"]
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        e0, u0 = cold.evaluate_batch(assignments, orders)
        e1, u1 = warm.evaluate_batch(assignments, orders)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)
        batch = warm._batch_kernel.last_batch
        assert batch["queue_hits"] >= warmed
        assert batch["queue_misses"] > 0

    def test_batch_composition_independence(self, small_system, small_trace):
        """Row-by-row evaluation equals one full batch, bit for bit —
        the property that makes cache hits indistinguishable from
        fresh folds under any interleaving."""
        assignments, orders = make_batch(small_system, small_trace, 25, 3)
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        e_full, u_full = ev.evaluate_batch(assignments, orders)
        for i in range(25):
            e_i, u_i = ev.evaluate_batch(
                assignments[i : i + 1], orders[i : i + 1]
            )
            assert e_i[0] == e_full[i]
            assert u_i[0] == u_full[i]

    def test_single_evaluate_matches_batch_row(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 8, 4)
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        e_b, u_b = ev.evaluate_batch(assignments, orders)
        for i in range(8):
            result = ev.evaluate(
                ResourceAllocation(
                    machine_assignment=assignments[i],
                    scheduling_order=orders[i],
                )
            )
            assert result.energy == e_b[i]
            assert result.utility == u_b[i]

    def test_large_order_keys_use_int64_digest(self, small_system, small_trace):
        """Order keys beyond int32 still fingerprint and fold correctly:
        results stay identical to the uncached kernel (ordering is
        unchanged by the constant shift), cold and warm."""
        assignments, orders = make_batch(small_system, small_trace, 10, 5)
        big_orders = orders + 2**40
        cold = make_evaluator(small_system, small_trace, cache_size=0)
        warm = make_evaluator(small_system, small_trace)
        e0, u0 = cold.evaluate_batch(assignments, big_orders)
        e1, u1 = warm.evaluate_batch(assignments, big_orders)
        np.testing.assert_array_equal(e0, e1)
        np.testing.assert_array_equal(u0, u1)
        e2, u2 = warm.evaluate_batch(assignments, big_orders)
        np.testing.assert_array_equal(e0, e2)
        np.testing.assert_array_equal(u0, u2)

    def test_workspace_growth_across_batch_sizes(self, small_system, small_trace):
        """Grow-only kernel scratch serves shrinking and growing batches
        without contaminating results."""
        assignments, orders = make_batch(small_system, small_trace, 32, 6)
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        fresh = make_evaluator(small_system, small_trace, cache_size=0)
        e_all, u_all = fresh.evaluate_batch(assignments, orders)
        for lo, hi in [(0, 3), (3, 25), (25, 30), (0, 32), (30, 32)]:
            e, u = ev.evaluate_batch(assignments[lo:hi], orders[lo:hi])
            np.testing.assert_array_equal(e, e_all[lo:hi])
            np.testing.assert_array_equal(u, u_all[lo:hi])


# -- cache mechanics ----------------------------------------------------------


class TestCacheMechanics:
    def test_clear_on_full(self, small_system, small_trace):
        """A table sized for 8 queue states clears itself when a batch's
        inserts would pass half load, never outgrows its slots, and
        never changes a result."""
        ev = make_evaluator(small_system, small_trace, cache_size=8)
        table = ev._batch_kernel.queue_table
        assert table.n_slots == 16 and table.capacity == 8
        for seed in range(3):
            assignments, orders = make_batch(small_system, small_trace, 6, seed)
            assert_matches_oracle(ev, assignments, orders)
            assert ev.cache_stats["entries"] <= table.n_slots
        assert ev.cache_stats["evictions"] > 0

    def test_stats_and_clear(self, small_system, small_trace):
        assignments, orders = make_batch(small_system, small_trace, 5, 7)
        ev = make_evaluator(small_system, small_trace)
        ev.evaluate_batch(assignments, orders)
        queues = ev._batch_kernel.last_batch["queues"]
        ev.evaluate_batch(assignments, orders)
        stats = ev.cache_stats
        assert stats["hits"] == queues
        assert stats["misses"] == queues
        assert stats["entries"] == queues
        assert stats["evictions"] == 0
        assert stats["hit_rate"] == 0.5
        assert stats["reuse_rate"] == 0.5
        ev.clear_cache()
        assert ev.cache_stats["entries"] == 0
        # Lifetime counters survive a clear; the cleared table misses.
        ev.evaluate_batch(assignments, orders)
        stats = ev.cache_stats
        assert stats["hits"] == queues
        assert stats["misses"] == 2 * queues

    def test_disabled_cache_stats(self, small_system, small_trace):
        ev = make_evaluator(small_system, small_trace, cache_size=0)
        assignments, orders = make_batch(small_system, small_trace, 4, 8)
        ev.evaluate_batch(assignments, orders)
        assert ev.cache_stats["entries"] == 0
        assert ev.cache_stats["hit_rate"] == 0.0
        ev.clear_cache()  # no-op, must not raise
        oracle = make_evaluator(small_system, small_trace,
                                kernel_method="batch-reference")
        assert oracle.cache_stats["hit_rate"] == 0.0
        oracle.clear_cache()

    def test_distinct_chromosomes_distinct_keys(self, small_system,
                                                small_trace):
        """Changing one gene changes the fingerprints of exactly the
        queues it touches: the replayed row hits on every other queue
        and folds the touched ones afresh."""
        assignments, orders = make_batch(small_system, small_trace, 1, 10)
        ev = make_evaluator(small_system, small_trace)
        ev.evaluate_batch(assignments, orders)
        queues = ev._batch_kernel.last_batch["queues"]
        moved = orders.copy()
        t = int(np.argmax(orders[0]))
        moved[0, t] = -1  # task t now runs first on its queue
        assert_matches_oracle(ev, assignments, moved)
        batch = ev._batch_kernel.last_batch
        assert batch["queue_misses"] == 1
        assert batch["queue_hits"] == queues - 1

    def test_invalid_construction(self, small_system, small_trace):
        with pytest.raises(ScheduleError, match="cache_size"):
            make_evaluator(small_system, small_trace, cache_size=-1)
        # Unknown and retired kernel names are rejected with the list
        # of valid ones.
        for name in ("turbo", "fast", "reference"):
            with pytest.raises(ScheduleError, match="batch-reference"):
                make_evaluator(small_system, small_trace, kernel_method=name)


# -- kernel exactness ---------------------------------------------------------


def mirror_finish_times(assignment, order, arrivals, exec_times):
    """Scalar mirror of one row's queue recurrence: per queue, in
    ascending ``(order key, task)`` order, ``cs`` a left fold of the
    execution times and ``f = max_{i <= j}(a_i - cs_{i-1}) + cs_j``."""
    finish = np.empty(len(assignment))
    for machine in sorted(set(assignment.tolist())):
        tasks = sorted(
            (int(order[t]), t)
            for t in range(len(assignment)) if assignment[t] == machine
        )
        cs = 0.0
        runmax = -np.inf
        for _, t in tasks:
            key = float(arrivals[t]) - cs
            cs = cs + float(exec_times[t])
            runmax = max(runmax, key)
            finish[t] = runmax + cs
    return finish


def random_fold_inputs(rng, rows, n, queues, order_span=None):
    """Random ``(assignment, order, arrivals, (rows, n) exec times)``;
    a small *order_span* forces order-key ties."""
    assignment = rng.integers(0, queues, size=n)
    order = rng.integers(0, order_span or n, size=n)
    arrivals = np.sort(rng.uniform(0.0, 100.0, size=n))
    exec_times = rng.uniform(0.1, 30.0, size=(rows, n))
    return assignment, order, arrivals, exec_times


def assert_fold_matches_mirror(assignment, order, arrivals, exec_times):
    finish = _fold_finish_times(_queues(assignment, order), arrivals,
                                exec_times)
    for row, e in zip(finish, exec_times):
        np.testing.assert_array_equal(
            row, mirror_finish_times(assignment, order, arrivals, e)
        )


class TestKernelExactness:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("many_samples", [False, True])
    def test_fast_matches_python_mirror(self, seed, many_samples):
        """The vectorized per-queue fold matches the scalar mirror bit
        for bit, for one sample and for a block of samples, with and
        without order-key ties."""
        rng = np.random.default_rng(seed)
        rows = 16 if many_samples else 1
        for order_span in (None, 7):
            assert_fold_matches_mirror(
                *random_fold_inputs(rng, rows, 200, 9, order_span)
            )

    @pytest.mark.parametrize("row_block", [10, 50])
    def test_row_block_matches_mirror(self, row_block):
        """200 sampled execution times split into rows of *row_block*
        tasks: every row folds independently of the others."""
        rng = np.random.default_rng(10)
        assert_fold_matches_mirror(
            *random_fold_inputs(rng, 200 // row_block, row_block, 5)
        )

    def test_row_block_must_divide_input(self, small_system, small_trace):
        """Batch rows must cover exactly the trace's tasks."""
        assignments, orders = make_batch(small_system, small_trace, 2, 11)
        ev = make_evaluator(small_system, small_trace)
        with pytest.raises(ScheduleError, match="tasks"):
            ev.evaluate_batch(assignments[:, :-1], orders[:, :-1])
        with pytest.raises(ScheduleError, match="equal-shape"):
            ev.evaluate_batch(assignments, orders[:, :-1])

    def test_fast_close_to_reference_at_normal_magnitudes(
        self, small_system, small_trace
    ):
        """The compiled kernel agrees with the event-driven reference
        simulator, which sums in its own order, to float precision."""
        assignments, orders = make_batch(small_system, small_trace, 12, 20)
        ev = make_evaluator(small_system, small_trace)
        energies, utilities = ev.evaluate_batch(assignments, orders)
        for i in range(12):
            ref = simulate_reference(small_system, small_trace,
                                     ResourceAllocation(assignments[i],
                                                        orders[i]))
            assert energies[i] == pytest.approx(ref.energy, rel=1e-12)
            assert utilities[i] == pytest.approx(ref.utility, rel=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_at_extreme_magnitudes(self, small_system, seed):
        """Arrivals around 2⁴⁰ with full mantissas: the regime where any
        reassociation of the queue folds rounds away low bits.  The
        kernel must still match the scalar oracle bit for bit."""
        rng = np.random.default_rng(100 + seed)
        n = 60
        trace = Trace(
            task_types=rng.integers(0, small_system.num_task_types, size=n),
            arrival_times=np.sort(2.0**40 + rng.uniform(0.0, 1.0, size=n)),
            window=2.0**41,
        )
        ev = make_evaluator(small_system, trace)
        assignments, orders = make_batch(small_system, trace, 12, seed)
        assert_matches_oracle(ev, assignments, orders)
        assert_matches_oracle(ev, assignments, orders)  # warm

    def test_negative_and_huge_order_keys(self, small_system, small_trace):
        """Extreme int64 order keys (negative and near ±2⁶²) order
        queues exactly as the oracle's Python sort does."""
        rng = np.random.default_rng(30)
        assignments, _ = make_batch(small_system, small_trace, 8, 9)
        orders = rng.integers(-(2**62), 2**62, size=assignments.shape)
        ev = make_evaluator(small_system, small_trace)
        assert_matches_oracle(ev, assignments, orders)

    def test_kernel_method_dispatch(self, small_system, small_trace):
        """Every configured kernel returns the same objectives, to the
        bit."""
        assignments, orders = make_batch(small_system, small_trace, 12, 8)
        results = [
            make_evaluator(small_system, small_trace, kernel_method=method)
            .evaluate_batch(assignments, orders)
            for method in KERNEL_METHODS
        ]
        for energies, utilities in results[1:]:
            np.testing.assert_array_equal(energies, results[0][0])
            np.testing.assert_array_equal(utilities, results[0][1])
