"""Pinned-prefix ledger and window evaluator (repro.service.window).

The window evaluator folds the free tasks only, from the ledger's queue
backlog; the oracle here is the full-horizon evaluation with the
committed prefix spliced into every row (:func:`spliced_horizon`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScheduleError
from repro.model.system import SystemModel
from repro.service.stream import ArrivalStream, WindowBatch
from repro.service.window import CommittedLedger, WindowEvaluator
from repro.sim.evaluator import KERNEL_METHODS, ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.utility.presets import assign_presets
from repro.workload.generator import TaskTypeMix
from repro.workload.trace import Trace


def stream_for(system, rate=0.2, window=60.0, seed=3):
    return ArrivalStream(
        mix=TaskTypeMix.uniform(system.num_task_types),
        window=window, rate=rate, seed=seed,
    )


def random_free_genes(evaluator: WindowEvaluator, n: int, seed: int):
    """Random feasible (assignments, orders) for the window's free tasks."""
    rng = np.random.default_rng(seed)
    feas = evaluator.system.feasible_task_machine[
        evaluator.trace.task_types
    ]
    T = evaluator.num_tasks
    assignments = np.empty((n, T), dtype=np.int64)
    for t in range(T):
        options = np.flatnonzero(feas[t])
        assignments[:, t] = rng.choice(options, size=n)
    orders = np.stack([rng.permutation(T) for _ in range(n)]).astype(np.int64)
    return assignments, orders


def commit_window(evaluator: WindowEvaluator, ledger, batch, seed=11):
    """Commit one random chromosome, as the service would."""
    assignments, orders = random_free_genes(evaluator, 1, seed)
    full = evaluator.evaluate_full(assignments[0], orders[0])
    ledger.commit(
        batch, assignments[0], evaluator.absolute_orders(orders[0]),
        full.completion_times, full.task_energies, full.task_utilities,
        queue_states=full.queue_states,
    )
    return full


def spliced_horizon(system, ledger, batch, assignments, orders,
                    kernel_method="batch"):
    """The horizon evaluator and full (N, C+F) rows: the committed
    prefix spliced in front of the free genes, free keys shifted past
    every committed key."""
    horizon = Trace(
        task_types=np.concatenate([ledger.task_types, batch.task_types]),
        arrival_times=np.concatenate(
            [ledger.arrival_times, batch.arrival_times]
        ),
        window=batch.end,
    )
    direct = ScheduleEvaluator(
        system, horizon, check_feasibility=False,
        kernel_method=kernel_method,
    )
    N, C = assignments.shape[0], ledger.active
    full_a = np.empty((N, C + batch.count), dtype=np.int64)
    full_o = np.empty((N, C + batch.count), dtype=np.int64)
    full_a[:, :C] = ledger.machine_assignment
    full_o[:, :C] = ledger.order_keys
    full_a[:, C:] = assignments
    full_o[:, C:] = orders + ledger.order_base
    return direct, full_a, full_o


class TestCommittedLedger:
    def test_commit_advances_order_base(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        assert ledger.order_base == b0.count
        assert ledger.dispatched_total == b0.count
        assert int(ledger.order_keys.max()) == b0.count - 1

    def test_colliding_keys_rejected(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        with pytest.raises(ScheduleError, match="collide"):
            # Raw (unshifted) keys overlap window 0's committed range.
            ledger.commit(
                b1, np.zeros(b1.count, dtype=np.int64),
                np.arange(b1.count, dtype=np.int64),
                np.zeros(b1.count), np.zeros(b1.count), np.zeros(b1.count),
            )

    def test_out_of_order_commit_rejected(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b1 = stream.batch(1)
        ev1 = WindowEvaluator(small_system, ledger, b1)
        commit_window(ev1, ledger, b1)
        b0 = stream.batch(0)
        with pytest.raises(ScheduleError, match="arrival order"):
            ledger.commit(
                b0, np.zeros(b0.count, dtype=np.int64),
                np.arange(b0.count, dtype=np.int64) + ledger.order_base,
                np.zeros(b0.count), np.zeros(b0.count), np.zeros(b0.count),
            )

    def test_compact_preserves_totals_and_bumps_epoch(self, small_system):
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        for k in range(3):
            batch = stream.batch(k)
            ev = WindowEvaluator(small_system, ledger, batch)
            commit_window(ev, ledger, batch, seed=k)
        energy_before = ledger.total_energy
        utility_before = ledger.total_utility
        # A horizon start far past every finish makes everything
        # droppable.
        horizon = float(ledger.finish_times.max()) + 1.0
        dropped = ledger.compact(horizon)
        assert dropped == ledger.compacted_total > 0
        assert ledger.epoch == 1
        assert ledger.total_energy == pytest.approx(energy_before, rel=1e-12)
        assert ledger.total_utility == pytest.approx(utility_before, rel=1e-12)
        assert ledger.order_base == ledger.active

    def test_compact_noop_leaves_epoch(self, small_system):
        stream = stream_for(small_system)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        # Nothing finishes by t=0, so nothing drops.
        assert ledger.compact(0.0) == 0
        assert ledger.epoch == 0

    def test_compact_renumbers_keys_densely(self, small_system):
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        for k in range(3):
            batch = stream.batch(k)
            ev = WindowEvaluator(small_system, ledger, batch)
            commit_window(ev, ledger, batch, seed=k)
        mid = float(np.median(ledger.finish_times))
        if ledger.compact(mid) == 0:
            pytest.skip("no droppable prefix at the median finish")
        kept = ledger.order_keys
        assert sorted(kept.tolist()) == list(range(ledger.active))
        # Queue order is preserved: along each machine queue (sorted by
        # key), finish times stay nondecreasing.
        for m in np.unique(ledger.machine_assignment):
            idx = np.flatnonzero(ledger.machine_assignment == m)
            queue = idx[np.argsort(kept[idx])]
            finishes = ledger.finish_times[queue]
            assert np.all(np.diff(finishes) >= 0)


class TestWindowEvaluator:
    def test_zero_task_window_rejected(self, small_system):
        batch = WindowBatch(
            index=0, start=0.0, end=10.0,
            task_types=np.empty(0, dtype=np.int64),
            arrival_times=np.empty(0, dtype=np.float64),
        )
        with pytest.raises(ScheduleError):
            WindowEvaluator(small_system, CommittedLedger(), batch)

    def test_matches_direct_horizon_evaluator(self, small_system):
        """Folding the free genes from the backlog equals evaluating the
        hand-built horizon chromosomes on a plain ScheduleEvaluator —
        bit for bit."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        ev1 = WindowEvaluator(small_system, ledger, b1)
        assignments, orders = random_free_genes(ev1, 6, seed=21)
        energies, utilities = ev1.evaluate_batch(assignments, orders)

        direct, full_a, full_o = spliced_horizon(
            small_system, ledger, b1, assignments, orders
        )
        ref_e, ref_u = direct.evaluate_batch(full_a, full_o)
        np.testing.assert_array_equal(energies, ref_e)
        np.testing.assert_array_equal(utilities, ref_u)

    def test_committed_prefix_is_frozen(self, small_system):
        """Whatever the free genes are, the committed tasks' finish
        times (hence energies/utilities) never change — which is what
        lets their queue end states stand in for them — and the free
        tasks' per-task results equal the spliced horizon's tail."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        ev1 = WindowEvaluator(small_system, ledger, b1)
        C = ledger.active
        for seed in (5, 6, 7):
            a, o = random_free_genes(ev1, 1, seed)
            direct, full_a, full_o = spliced_horizon(
                small_system, ledger, b1, a, o
            )
            horizon = direct.evaluate(ResourceAllocation(
                machine_assignment=full_a[0], scheduling_order=full_o[0]
            ))
            np.testing.assert_array_equal(
                horizon.completion_times[:C], ledger.finish_times
            )
            np.testing.assert_array_equal(
                horizon.task_energies[:C], ledger.task_energies
            )
            np.testing.assert_array_equal(
                horizon.task_utilities[:C], ledger.task_utilities
            )
            free = ev1.evaluate_full(a[0], o[0])
            assert free.completion_times.shape == (b1.count,)
            np.testing.assert_array_equal(
                free.completion_times, horizon.completion_times[C:]
            )
            np.testing.assert_array_equal(
                free.task_utilities, horizon.task_utilities[C:]
            )
            assert (free.energy, free.utility) == (
                horizon.energy, horizon.utility
            )
            np.testing.assert_array_equal(
                free.queue_states, horizon.queue_states
            )

    def test_carried_backlog_equals_refold(self, small_system):
        """The backlog a commit carries is bit for bit the committed
        chromosome folded from empty queues; evaluating from either
        gives identical objectives, and each row folds the free tasks
        only."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        for k in range(3):
            batch = stream.batch(k)
            ev = WindowEvaluator(small_system, ledger, batch)
            assert ev.kernel_adopted == (k > 0)
            commit_window(ev, ledger, batch, seed=30 + k)
        carried = ledger.backlog.copy()
        b3 = stream.batch(3)
        ev_carried = WindowEvaluator(small_system, ledger, b3)
        ledger.backlog = None  # stale: the next evaluator refolds
        ev_refold = WindowEvaluator(
            small_system, ledger, b3, kernel_method="batch-reference"
        )
        np.testing.assert_array_equal(ledger.backlog, carried)
        a, o = random_free_genes(ev_carried, 8, seed=33)
        e, u = ev_carried.evaluate_batch(a, o)
        ref_e, ref_u = ev_refold.evaluate_batch(a, o)
        np.testing.assert_array_equal(e, ref_e)
        np.testing.assert_array_equal(u, ref_u)
        stats = ev_carried.cache_stats
        assert stats["elements_total"] == 8 * b3.count
        # A repeated batch is answered from the window's own table.
        ev_carried.evaluate_batch(a, o)
        assert ev_carried.cache_stats["elements_reused"] > 0

    def test_compaction_refolds_backlog(self, small_system):
        """Compaction drops the carried backlog; the next window folds
        the survivors from empty queues, exactly as the spliced horizon
        of survivors does."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        for k in range(2):
            batch = stream.batch(k)
            ev = WindowEvaluator(small_system, ledger, batch)
            commit_window(ev, ledger, batch, seed=50 + k)
        b2 = stream.batch(2)
        if ledger.compact(b2.start) == 0:
            pytest.skip("window gap too small for compaction")
        assert ledger.backlog is None
        ev2 = WindowEvaluator(small_system, ledger, b2)
        assert ledger.backlog is not None
        assert ev2.kernel_adopted == (ledger.active > 0)
        a, o = random_free_genes(ev2, 5, seed=52)
        e, u = ev2.evaluate_batch(a, o)
        direct, full_a, full_o = spliced_horizon(small_system, ledger, b2, a, o)
        ref_e, ref_u = direct.evaluate_batch(full_a, full_o)
        np.testing.assert_array_equal(e, ref_e + ledger.energy_offset)
        np.testing.assert_array_equal(u, ref_u + ledger.utility_offset)

    def test_offsets_added_after_compaction(self, small_system):
        """Post-compaction objectives stay service-cumulative."""
        stream = stream_for(small_system, rate=0.3)
        ledger = CommittedLedger()
        b0 = stream.batch(0)
        ev0 = WindowEvaluator(small_system, ledger, b0)
        commit_window(ev0, ledger, b0)
        b1 = stream.batch(1)
        ev_pre = WindowEvaluator(small_system, ledger, b1)
        a, o = random_free_genes(ev_pre, 4, seed=41)
        pre_e, pre_u = ev_pre.evaluate_batch(a, o)
        if ledger.compact(b1.start) == 0:
            pytest.skip("window gap too small for compaction")
        ev_post = WindowEvaluator(small_system, ledger, b1)
        post_e, post_u = ev_post.evaluate_batch(a, o)
        # Energy is a pure sum, so the only difference is summation
        # order; utilities additionally depend on finish times, which
        # compaction provably preserves.
        np.testing.assert_allclose(post_e, pre_e, rtol=1e-12)
        np.testing.assert_allclose(post_u, pre_u, rtol=1e-9)


# -- differential property: backlog vs spliced horizon ------------------------


@st.composite
def small_systems(draw):
    n_types = draw(st.integers(1, 3))
    per_type = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    etc = rng.uniform(1.0, 60.0, size=(n_types, len(per_type)))
    epc = rng.uniform(10.0, 200.0, size=(n_types, len(per_type)))
    return SystemModel.from_matrices(
        etc, epc, machines_per_type=per_type
    ).with_utility_functions(assign_presets(n_types, 300.0, seed=seed))


def draw_window(data, system, index, start):
    count = data.draw(st.integers(1, 6))
    gaps = data.draw(st.lists(
        st.floats(0.0, 80.0), min_size=count, max_size=count
    ))
    arrivals = start + np.cumsum(gaps)
    end = float(arrivals[-1]) + data.draw(st.floats(0.5, 120.0))
    types = data.draw(st.lists(
        st.integers(0, system.num_task_types - 1),
        min_size=count, max_size=count,
    ))
    return WindowBatch(
        index=index, start=start, end=end,
        task_types=np.array(types, dtype=np.int64), arrival_times=arrivals,
    )


def draw_free_genes(data, system, batch, n):
    feasible = system.feasible_task_machine[batch.task_types]
    options = [np.flatnonzero(row).tolist() for row in feasible]
    assignments = np.array([
        [data.draw(st.sampled_from(opts)) for opts in options]
        for _ in range(n)
    ], dtype=np.int64)
    orders = np.array([
        data.draw(st.permutations(range(batch.count))) for _ in range(n)
    ], dtype=np.int64)
    return assignments, orders


@settings(max_examples=40, deadline=None)
@given(
    system=small_systems(),
    data=st.data(),
    kernel_method=st.sampled_from(KERNEL_METHODS),
    cache_size=st.sampled_from([0, 8, 4096]),
)
def test_free_only_evaluation_equals_spliced_horizon(
    system, data, kernel_method, cache_size
):
    """Over random ledgers — commits with and without carried states,
    compactions at random horizon starts — every window's free-only
    objectives and committed per-task results equal the spliced
    full-horizon evaluation, bit for bit."""
    ledger = CommittedLedger()
    start = 0.0
    for index in range(data.draw(st.integers(1, 5))):
        if ledger.active and data.draw(st.booleans()):
            ledger.compact(data.draw(st.floats(0.0, start)))
        batch = draw_window(data, system, index, start)
        ev = WindowEvaluator(
            system, ledger, batch,
            kernel_method=kernel_method, cache_size=cache_size,
        )
        n = data.draw(st.integers(1, 4))
        assignments, orders = draw_free_genes(data, system, batch, n)
        energies, utilities = ev.evaluate_batch(assignments, orders)
        direct, full_a, full_o = spliced_horizon(
            system, ledger, batch, assignments, orders, kernel_method
        )
        ref_e, ref_u = direct.evaluate_batch(full_a, full_o)
        np.testing.assert_array_equal(energies, ref_e + ledger.energy_offset)
        np.testing.assert_array_equal(utilities, ref_u + ledger.utility_offset)

        row = data.draw(st.integers(0, n - 1))
        free = ev.evaluate_full(assignments[row], orders[row])
        horizon = direct.evaluate(ResourceAllocation(
            machine_assignment=full_a[row], scheduling_order=full_o[row]
        ))
        C = ledger.active
        np.testing.assert_array_equal(
            free.completion_times, horizon.completion_times[C:]
        )
        np.testing.assert_array_equal(
            free.task_energies, horizon.task_energies[C:]
        )
        np.testing.assert_array_equal(
            free.task_utilities, horizon.task_utilities[C:]
        )
        np.testing.assert_array_equal(free.queue_states, horizon.queue_states)
        assert (free.energy, free.utility) == (horizon.energy, horizon.utility)
        ledger.commit(
            batch, assignments[row], ev.absolute_orders(orders[row]),
            free.completion_times, free.task_energies, free.task_utilities,
            queue_states=(
                free.queue_states if data.draw(st.booleans()) else None
            ),
        )
        start = batch.end
