"""Parallel drivers produce bit-identical science to the serial path.

The contract under test: ``workers=N`` is purely an execution-strategy
knob — fronts, snapshots, and aggregate statistics match the serial
run bit for bit, whatever the worker count, transport, or completion
order, because every RNG stream is derived from the config seed.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.datasets import DatasetBundle
from repro.experiments.repetitions import run_repetitions
from repro.experiments.runner import run_seeded_populations
from repro.model.system import SystemModel
from repro.obs.context import RunContext
from repro.parallel import shm
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator

CFG = ExperimentConfig(
    population_size=10, generations=4, checkpoints=(2, 4), base_seed=5
)


@pytest.fixture(scope="module")
def bundle() -> DatasetBundle:
    rng = np.random.default_rng(21)
    etc = rng.uniform(5.0, 120.0, size=(5, 6))
    epc = rng.uniform(40.0, 250.0, size=(5, 6))
    system = SystemModel.from_matrices(
        etc, epc, machines_per_type=[1, 2, 1, 1, 2, 1]
    ).with_utility_functions(assign_presets(5, 600.0, seed=22))
    trace = WorkloadGenerator.uniform_for(5).generate(40, 600.0, seed=23)
    return DatasetBundle(
        name="par-test", system=system, trace=trace,
        horizon_seconds=600.0, seed=0,
    )


class TestRepetitionsBitIdentity:
    def test_parallel_matches_serial(self, bundle):
        serial = run_repetitions(
            bundle, repetitions=3, generations=4, population_size=10
        )
        parallel = run_repetitions(
            bundle, repetitions=3, generations=4, population_size=10,
            workers=2,
        )
        assert len(parallel.fronts) == 3
        for s, p in zip(serial.fronts, parallel.fronts):
            np.testing.assert_array_equal(s, p)
        assert serial.hypervolume == parallel.hypervolume
        assert shm.owned_segments() == ()
        assert shm.leaked_segments() == ()

    def test_pickle_transport_matches(self, bundle):
        serial = run_repetitions(
            bundle, repetitions=2, generations=3, population_size=10
        )
        parallel = run_repetitions(
            bundle, repetitions=2, generations=3, population_size=10,
            workers=2, transport="pickle",
        )
        for s, p in zip(serial.fronts, parallel.fronts):
            np.testing.assert_array_equal(s, p)

    def test_heuristic_seeded_parallel_matches(self, bundle):
        serial = run_repetitions(
            bundle, repetitions=2, generations=3, population_size=10,
            seed_label="min-energy",
        )
        parallel = run_repetitions(
            bundle, repetitions=2, generations=3, population_size=10,
            seed_label="min-energy", workers=2,
        )
        for s, p in zip(serial.fronts, parallel.fronts):
            np.testing.assert_array_equal(s, p)

    def test_single_repetition_stays_serial(self, bundle):
        # workers > repetitions makes no sense to fan out; the driver
        # quietly takes the in-process path.
        result = run_repetitions(
            bundle, repetitions=1, generations=2, population_size=10,
            workers=4,
        )
        assert len(result.fronts) == 1
        assert shm.owned_segments() == ()

    def test_parallel_records_coordinator_metrics(self, bundle, tmp_path):
        obs = RunContext.create(tmp_path / "obs")
        run_repetitions(
            bundle, repetitions=3, generations=3, population_size=10,
            workers=2, obs=obs,
        )
        snap = obs.metrics.as_dict()
        assert snap["parallel_segment_bytes"]["value"] > 0
        assert snap["parallel_cells_total"]["value"] == 3
        assert 1 <= snap["parallel_attach_total"]["value"] <= 2
        assert snap["parallel_queue_wait_seconds"]["count"] == 3
        assert snap["repetitions_hypervolume_mean"]["value"] > 0


class TestSeededPopulationsBitIdentity:
    LABELS = ["random", "min-energy", "min-min-completion-time"]

    def test_parallel_matches_serial(self, bundle):
        serial = run_seeded_populations(bundle, CFG, labels=self.LABELS)
        parallel = run_seeded_populations(
            bundle, CFG, labels=self.LABELS, workers=2
        )
        # Label order, not completion order: downstream report/table
        # iteration must match the serial run exactly.
        assert list(parallel.histories) == self.LABELS
        for label in self.LABELS:
            ref = serial.histories[label]
            got = parallel.histories[label]
            assert ref.total_evaluations == got.total_evaluations
            for a, b in zip(ref.snapshots, got.snapshots):
                assert a.generation == b.generation
                np.testing.assert_array_equal(a.front_points, b.front_points)
        assert shm.owned_segments() == ()
        assert shm.leaked_segments() == ()

    def test_pickle_transport_matches(self, bundle):
        serial = run_seeded_populations(bundle, CFG, labels=["random"])
        parallel = run_seeded_populations(
            bundle, CFG, labels=["random"], workers=2, transport="pickle"
        )
        np.testing.assert_array_equal(
            serial.histories["random"].final.front_points,
            parallel.histories["random"].final.front_points,
        )

    def test_parallel_records_coordinator_metrics(self, bundle, tmp_path):
        obs = RunContext.create(tmp_path / "obs")
        run_seeded_populations(
            bundle, CFG, labels=["random", "min-energy"], workers=2, obs=obs
        )
        snap = obs.metrics.as_dict()
        assert snap["parallel_segment_bytes"]["value"] > 0
        assert snap["parallel_cells_total"]["value"] == 2
        assert snap["parallel_queue_wait_seconds"]["count"] == 2


class TestAlgorithmChoiceShipsToWorkers:
    """The portfolio redesign's parallel contract: the algorithm name
    travels to pool workers inside the pickled cell extras, and a
    non-NSGA-II parallel run is bit-identical to its serial twin."""

    def test_repetitions_spea2_parallel_matches_serial(self, bundle):
        serial = run_repetitions(
            bundle, repetitions=2, generations=3, population_size=10,
            algorithm="spea2",
        )
        parallel = run_repetitions(
            bundle, repetitions=2, generations=3, population_size=10,
            workers=2, algorithm="spea2",
        )
        for s, p in zip(serial.fronts, parallel.fronts):
            np.testing.assert_array_equal(s, p)

    def test_seeded_populations_moead_parallel_matches_serial(self, bundle):
        cfg = ExperimentConfig(
            population_size=10, generations=4, checkpoints=(2, 4),
            base_seed=5, algorithm="moead",
        )
        serial = run_seeded_populations(
            bundle, cfg, labels=["random", "min-energy"]
        )
        parallel = run_seeded_populations(
            bundle, cfg, labels=["random", "min-energy"], workers=2
        )
        for label in ("random", "min-energy"):
            np.testing.assert_array_equal(
                serial.histories[label].final.front_points,
                parallel.histories[label].final.front_points,
            )

    def test_algorithm_changes_the_run(self, bundle):
        """Sanity that the flag is honoured, not silently ignored: two
        algorithms on identical seeds/config produce different fronts."""
        nsga = run_repetitions(
            bundle, repetitions=1, generations=4, population_size=10,
        )
        spea = run_repetitions(
            bundle, repetitions=1, generations=4, population_size=10,
            algorithm="spea2",
        )
        assert not (
            nsga.fronts[0].shape == spea.fronts[0].shape
            and np.array_equal(nsga.fronts[0], spea.fronts[0])
        )
