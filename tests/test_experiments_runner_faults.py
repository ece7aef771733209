"""Fault tolerance of the seeded-population runner.

Recovery paths (retry with backoff, graceful degradation, checkpointed
retries, per-attempt timeouts) are exercised with deterministic
injected faults — see :mod:`repro.testing.faults`.
"""

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.experiments.runner import (
    PopulationFailure,
    RetryPolicy,
    run_seeded_populations,
)
from repro.model.system import SystemModel
from repro.testing.faults import FaultPlan
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator

CFG = ExperimentConfig(
    population_size=10, generations=4, checkpoints=(2, 4), base_seed=5,
)

#: No-delay policy so retry tests run in milliseconds.
FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def bundle() -> DatasetBundle:
    rng = np.random.default_rng(42)
    etc = rng.uniform(5.0, 120.0, size=(5, 6))
    epc = rng.uniform(40.0, 250.0, size=(5, 6))
    system = SystemModel.from_matrices(
        etc, epc, machines_per_type=[1, 2, 1, 1, 2, 1]
    ).with_utility_functions(assign_presets(5, 600.0, seed=43))
    trace = WorkloadGenerator.uniform_for(5).generate(40, 600.0, seed=44)
    return DatasetBundle(
        name="tiny", system=system, trace=trace,
        horizon_seconds=600.0, seed=0,
    )


class TestLabelValidation:
    def test_duplicate_labels_rejected(self, bundle):
        with pytest.raises(ExperimentError, match="duplicate"):
            run_seeded_populations(
                bundle, CFG, labels=["random", "min-energy", "random"]
            )

    def test_unknown_label_still_rejected(self, bundle):
        with pytest.raises(ExperimentError, match="unknown"):
            run_seeded_populations(bundle, CFG, labels=["bogus"])


class TestRetry:
    def test_transient_fault_recovers(self, bundle):
        """A worker that fails twice then succeeds still yields a
        complete result."""
        plan = FaultPlan().transient("min-energy", failures=2)
        sleeps = []
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "random"],
            retry=RetryPolicy(max_attempts=3, backoff_base=0.5, jitter=0.0),
            fault_hook=plan.on_attempt,
            sleep=sleeps.append,
        )
        assert set(result.histories) == {"min-energy", "random"}
        assert result.failures == ()
        # Two failed attempts => two exponential backoffs (0.5, 1.0).
        assert sleeps == [0.5, 1.0]

    def test_retry_matches_unfaulted_run(self, bundle):
        """Retries do not perturb results: derived RNG streams restart
        identically on every attempt."""
        clean = run_seeded_populations(bundle, CFG, labels=["random"])
        plan = FaultPlan().transient("random", failures=1)
        retried = run_seeded_populations(
            bundle, CFG, labels=["random"], retry=FAST,
            fault_hook=plan.on_attempt, sleep=lambda s: None,
        )
        np.testing.assert_array_equal(
            clean.histories["random"].final.front_points,
            retried.histories["random"].final.front_points,
        )

    def test_checkpointed_retry_resumes_bit_identical(self, bundle, tmp_path):
        """A mid-run crash retried with a checkpoint_dir resumes from
        the durable checkpoint and finishes bit-identical to an
        uninterrupted run."""
        clean = run_seeded_populations(bundle, CFG, labels=["random"])
        # Evaluation calls: 1 = init population, +1 per generation.
        # Crashing at call 4 kills attempt 1 inside generation 3.
        plan = FaultPlan().crash("evaluate", at_call=4)
        result = run_seeded_populations(
            bundle, CFG, labels=["random"], retry=FAST,
            evaluation_fault_hook=plan.evaluation_hook(),
            checkpoint_dir=str(tmp_path),
            sleep=lambda s: None,
        )
        assert result.failures == ()
        history = result.histories["random"]
        reference = clean.histories["random"]
        assert history.total_evaluations == reference.total_evaluations
        for a, b in zip(reference.snapshots, history.snapshots):
            assert a.generation == b.generation
            np.testing.assert_array_equal(a.front_points, b.front_points)


class TestGracefulDegradation:
    def test_permanent_failure_degrades(self, bundle):
        plan = FaultPlan().crash("min-energy")
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "min-min-completion-time", "random"],
            retry=FAST, fault_hook=plan.on_attempt, sleep=lambda s: None,
        )
        assert set(result.histories) == {"min-min-completion-time", "random"}
        assert result.failed_labels == ("min-energy",)
        failure = result.failures[0]
        assert isinstance(failure, PopulationFailure)
        assert failure.attempts == 3
        assert "InjectedFault" in failure.error
        # Surviving populations still support front analysis.
        assert result.combined_front().size >= 1
        assert set(result.fronts_at(2)) == set(result.histories)

    def test_front_of_failed_population_explains(self, bundle):
        plan = FaultPlan().crash("min-energy")
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "random"],
            retry=FAST, fault_hook=plan.on_attempt, sleep=lambda s: None,
        )
        with pytest.raises(ExperimentError, match="failed after 3"):
            result.front("min-energy")

    def test_strict_reraises(self, bundle):
        plan = FaultPlan().crash("min-energy")
        with pytest.raises(ExperimentError, match="min-energy"):
            run_seeded_populations(
                bundle, CFG, labels=["min-energy", "random"],
                retry=FAST, strict=True,
                fault_hook=plan.on_attempt, sleep=lambda s: None,
            )

    def test_total_loss_raises(self, bundle):
        plan = FaultPlan().crash("min-energy").crash("random")
        with pytest.raises(ExperimentError, match="every population failed"):
            run_seeded_populations(
                bundle, CFG, labels=["min-energy", "random"],
                retry=FAST, fault_hook=plan.on_attempt, sleep=lambda s: None,
            )


class TestParallelFaults:
    def test_parallel_degrades_gracefully(self, bundle):
        plan = FaultPlan().crash("min-energy")
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "random"], workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
            fault_hook=plan.on_attempt,
        )
        assert "random" in result.histories
        assert result.failed_labels == ("min-energy",)
        assert result.failures[0].attempts == 2

    def test_parallel_transient_recovers_and_matches(self, bundle):
        clean = run_seeded_populations(bundle, CFG, labels=["min-energy", "random"])
        plan = FaultPlan().transient("random", failures=1)
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "random"], workers=2,
            retry=FAST, fault_hook=plan.on_attempt,
        )
        assert result.failures == ()
        for label in ("min-energy", "random"):
            np.testing.assert_array_equal(
                clean.histories[label].final.front_points,
                result.histories[label].final.front_points,
            )

    def test_parallel_timeout_retries(self, bundle):
        """A hung first attempt trips the per-attempt timeout; the
        retry (which does not hang) completes the population."""
        plan = FaultPlan().hang("random", seconds=1.5, failures=1)
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "random"], workers=3,
            retry=RetryPolicy(
                max_attempts=2, timeout=0.4, backoff_base=0.0, jitter=0.0
            ),
            fault_hook=plan.on_attempt,
        )
        assert set(result.histories) == {"min-energy", "random"}
        assert result.failures == ()

    def test_parallel_permanent_timeout_degrades(self, bundle):
        plan = FaultPlan().hang("random", seconds=1.5, failures=2)
        result = run_seeded_populations(
            bundle, CFG, labels=["min-energy", "random"], workers=3,
            retry=RetryPolicy(
                max_attempts=2, timeout=0.4, backoff_base=0.0, jitter=0.0
            ),
            fault_hook=plan.on_attempt,
        )
        assert "min-energy" in result.histories
        assert result.failed_labels == ("random",)
        assert "TimeoutError" in result.failures[0].error


class TestRetryPolicyValidation:
    def test_bounds(self):
        with pytest.raises(ExperimentError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ExperimentError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ExperimentError):
            RetryPolicy(backoff_base=-1.0)

    def test_delay_schedule(self):
        policy = RetryPolicy(backoff_base=1.0, backoff_max=3.0, jitter=0.0)
        rng = np.random.default_rng(0)
        assert [policy.delay(k, rng) for k in (1, 2, 3, 4)] == [1.0, 2.0, 3.0, 3.0]

    def test_jitter_is_bounded(self):
        policy = RetryPolicy(backoff_base=1.0, jitter=0.5)
        rng = np.random.default_rng(0)
        for k in range(1, 5):
            delay = policy.delay(1, rng)
            assert 1.0 <= delay <= 1.5

    def test_jitter_mode_validated(self):
        with pytest.raises(ExperimentError, match="jitter_mode"):
            RetryPolicy(jitter_mode="thundering-herd")


class TestDecorrelatedJitter:
    POLICY = RetryPolicy(
        backoff_base=0.5, backoff_max=8.0, jitter_mode="decorrelated"
    )

    def _chain(self, seed, n=6):
        """The prev-chained delay sequence a retrying cell would see."""
        rng = np.random.default_rng(seed)
        delays, prev = [], None
        for attempt in range(1, n + 1):
            prev = self.POLICY.delay(attempt, rng, prev=prev)
            delays.append(prev)
        return delays

    def test_deterministic_under_seeded_rng(self):
        assert self._chain(seed=42) == self._chain(seed=42)

    def test_bounded_by_floor_and_cap(self):
        for seed in range(20):
            for delay in self._chain(seed, n=10):
                assert (
                    self.POLICY.backoff_base
                    <= delay
                    <= self.POLICY.backoff_max
                )

    def test_distinct_streams_decorrelate(self):
        # Two cells that failed at the same instant (same attempt
        # number) draw different schedules from their per-label
        # streams — the herd fans out.
        assert self._chain(seed=1) != self._chain(seed=2)

    def test_delays_spread_within_one_stream(self):
        delays = self._chain(seed=3, n=10)
        assert len(set(delays)) > 1

    def test_first_retry_ignores_missing_prev(self):
        rng = np.random.default_rng(0)
        delay = self.POLICY.delay(1, rng, prev=None)
        # With no history the draw is over [floor, 3 * floor].
        assert 0.5 <= delay <= 1.5
