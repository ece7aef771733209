"""NSGA-II's sweep machinery: bit-identical fronts, shared ranks.

:class:`~repro.core.nsga2.NSGA2` sorts with the O(N log N) sweep and
reuses one ranks computation per generation.  That is *only* a
speedup: every front, snapshot, and checkpoint must be bit-identical to
the O(N²) dominance-matrix oracle
(:class:`~repro.testing.oracles.MatrixNSGA2`) for the same seed, with
the kernel's queue-state cache on or off, through kill-and-resume,
under both parent-selection modes.
"""

import numpy as np
import pytest

from repro.core.algorithm import AlgorithmConfig
from repro.core.crowding import crowding_by_front
from repro.core.nsga2 import NSGA2
from repro.core.operators import FeasibleMachines, OperatorConfig
from repro.core.population import Population
from repro.core.sorting import fast_nondominated_sort
from repro.sim.evaluator import ScheduleEvaluator
from repro.testing.faults import FaultPlan, InjectedFault
from repro.testing.oracles import MatrixNSGA2

GENS = 8
CPS = [2, 5, 8]
SEED = 17
POP = 16


def make_engine(
    system,
    trace,
    matrix=False,
    cache_size=1000,
    parent_selection="uniform",
    seed=SEED,
    fault_hook=None,
    label="fastpath",
):
    evaluator = ScheduleEvaluator(
        system,
        trace,
        check_feasibility=False,
        cache_size=cache_size,
        fault_hook=fault_hook,
    )
    config = AlgorithmConfig(
        population_size=POP,
        operators=OperatorConfig(parent_selection=parent_selection),
    )
    engine = MatrixNSGA2 if matrix else NSGA2
    return engine(evaluator, config, rng=seed, label=label)


def assert_identical_histories(a, b):
    assert a.total_generations == b.total_generations
    assert a.total_evaluations == b.total_evaluations
    assert len(a.snapshots) == len(b.snapshots)
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.generation == sb.generation
        assert sa.evaluations == sb.evaluations
        np.testing.assert_array_equal(sa.front_points, sb.front_points)


class TestBitIdenticalFronts:
    @pytest.mark.parametrize("parent_selection", ["uniform", "tournament"])
    def test_fast_vs_reference_path(self, small_system, small_trace,
                                    parent_selection):
        fast = make_engine(
            small_system, small_trace, parent_selection=parent_selection,
        ).run(GENS, CPS)
        slow = make_engine(
            small_system, small_trace, matrix=True,
            parent_selection=parent_selection,
        ).run(GENS, CPS)
        assert_identical_histories(fast, slow)

    @pytest.mark.parametrize("parent_selection", ["uniform", "tournament"])
    def test_cache_on_vs_off(self, small_system, small_trace, parent_selection):
        cached = make_engine(
            small_system, small_trace, cache_size=1000,
            parent_selection=parent_selection,
        ).run(GENS, CPS)
        uncached = make_engine(
            small_system, small_trace, cache_size=0,
            parent_selection=parent_selection,
        ).run(GENS, CPS)
        assert_identical_histories(cached, uncached)

    def test_populations_identical_every_generation(
        self, small_system, small_trace
    ):
        """Stronger than front equality: the full population (points and
        chromosomes) matches step by step."""
        fast = make_engine(small_system, small_trace)
        slow = make_engine(small_system, small_trace, matrix=True,
                           cache_size=0)
        for _ in range(GENS):
            fast.step()
            slow.step()
            np.testing.assert_array_equal(
                fast.population.objectives, slow.population.objectives
            )
            np.testing.assert_array_equal(
                fast.population.assignments, slow.population.assignments
            )
            np.testing.assert_array_equal(
                fast.population.orders, slow.population.orders
            )

    def test_kill_and_resume_with_fastpath_and_cache(
        self, small_system, small_trace, tmp_path
    ):
        """The resumed engine has a cold queue-state table, so it folds
        queues the uninterrupted run answered from cache — results must
        not differ."""
        straight = make_engine(small_system, small_trace).run(GENS, CPS)
        plan = FaultPlan().crash("evaluate", at_call=6)
        with pytest.raises(InjectedFault):
            make_engine(
                small_system, small_trace, fault_hook=plan.evaluation_hook()
            ).run(GENS, CPS, checkpoint_dir=str(tmp_path))
        resumed = make_engine(small_system, small_trace).run(
            GENS, CPS, checkpoint_dir=str(tmp_path), resume=True
        )
        assert_identical_histories(straight, resumed)


class TestSharedRanks:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cached_ranks_equal_fresh_sort(self, small_system, small_trace,
                                           seed):
        """The ranks carried over from environmental selection must equal
        a from-scratch front peeling of the surviving parents — the
        invariant that lets tournament selection skip a sort."""
        engine = make_engine(small_system, small_trace, seed=seed,
                             parent_selection="tournament")
        for _ in range(5):
            engine.step()
            assert engine._ranks is not None
            fresh = fast_nondominated_sort(engine.population.objectives)
            np.testing.assert_array_equal(engine._ranks, fresh)

    def test_ranks_cache_reset_forces_resort(self, small_system, small_trace):
        """Dropping the cache (as checkpoint restore does) must be safe:
        the next generation recomputes and stays on-track."""
        a = make_engine(small_system, small_trace,
                        parent_selection="tournament")
        b = make_engine(small_system, small_trace,
                        parent_selection="tournament")
        for _ in range(3):
            a.step()
            b.step()
        b._ranks = None  # simulate a restored engine
        a.step()
        b.step()
        np.testing.assert_array_equal(
            a.population.objectives, b.population.objectives
        )

    def test_crowding_by_front_matches_per_front(self, small_system,
                                                 small_trace):
        from repro.core.crowding import crowding_distance
        from repro.core.sorting import fronts_from_ranks

        engine = make_engine(small_system, small_trace)
        engine.step()
        pts = engine.population.objectives
        ranks = fast_nondominated_sort(pts)
        combined = crowding_by_front(pts, ranks)
        for front in fronts_from_ranks(ranks):
            expected = np.nan_to_num(
                crowding_distance(pts[front]), posinf=np.finfo(np.float64).max
            )
            per_front = np.nan_to_num(
                combined[front], posinf=np.finfo(np.float64).max
            )
            np.testing.assert_array_equal(per_front, expected)


class TestOrderSampling:
    def test_vectorized_orders_are_permutations(self, small_system,
                                                small_trace):
        """Every initial order row is a permutation of the task indices
        (the one remaining order stream; the name predates its removal)."""
        feasible = FeasibleMachines.from_system_trace(small_system, small_trace)
        pop = Population.random(feasible, 12, np.random.default_rng(5))
        T = small_trace.num_tasks
        for row in pop.orders:
            np.testing.assert_array_equal(np.sort(row), np.arange(T))

    def test_legacy_is_the_default_stream(self, small_system, small_trace):
        """Initial orders are one ``rng.permutation`` per row after the
        machine draw — the stream existing seeds and checkpoints
        replay."""
        feasible = FeasibleMachines.from_system_trace(small_system, small_trace)
        pop = Population.random(feasible, 6, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(
            pop.assignments, feasible.sample_matrix(6, rng)
        )
        for row in pop.orders:
            np.testing.assert_array_equal(
                row, rng.permutation(small_trace.num_tasks)
            )


class TestStageTimings:
    def test_timings_populated_after_steps(self, small_system, small_trace):
        engine = make_engine(small_system, small_trace)
        assert engine.stage_timings.as_dict() == {}
        for _ in range(3):
            engine.step()
        timings = engine.stage_timings.as_dict()
        for stage in ("selection", "variation", "evaluate", "environmental"):
            assert timings[stage]["count"] == 3
            assert timings[stage]["total_s"] >= 0.0
            assert timings[stage]["mean_ms"] >= 0.0
        engine.stage_timings.reset()
        assert engine.stage_timings.as_dict() == {}
