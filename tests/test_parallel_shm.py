"""Shared-memory transport and dataset descriptors (repro.parallel).

Covers the zero-copy contract (views alias the segment, nothing is
copied on attach or restore), the segment lifecycle (close/unlink,
atexit safety nets, leak detection), the pickle fallback, and the
bit-identity of evaluators built over shared views.
"""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.errors import ParallelExecutionError
from repro.experiments.datasets import DatasetBundle
from repro.model.system import SystemModel
from repro.parallel import descriptors, shm
from repro.sim.evaluator import ScheduleEvaluator
from repro.sim.schedule import ResourceAllocation
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator
from repro.workload.trace import Trace


@pytest.fixture(scope="module")
def bundle() -> DatasetBundle:
    rng = np.random.default_rng(7)
    etc = rng.uniform(5.0, 120.0, size=(4, 5))
    epc = rng.uniform(40.0, 250.0, size=(4, 5))
    system = SystemModel.from_matrices(
        etc, epc, machines_per_type=[1, 2, 1, 1, 1]
    ).with_utility_functions(assign_presets(4, 500.0, seed=8))
    trace = WorkloadGenerator.uniform_for(4).generate(30, 500.0, seed=9)
    return DatasetBundle(
        name="shm-test", system=system, trace=trace,
        horizon_seconds=500.0, seed=0,
    )


def _random_alloc(bundle, seed=0) -> ResourceAllocation:
    rng = np.random.default_rng(seed)
    feasible = bundle.system.feasible_task_machine[bundle.trace.task_types]
    machine = np.array(
        [rng.choice(np.flatnonzero(row)) for row in feasible], dtype=np.int64
    )
    order = np.arange(bundle.trace.num_tasks, dtype=np.int64)
    return ResourceAllocation(machine_assignment=machine, scheduling_order=order)


class TestPack:
    def test_publish_attach_roundtrip(self):
        arrays = {
            "a": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([True, False, True]),
            "c": np.arange(5, dtype=np.int64),
        }
        with shm.publish(arrays) as pack:
            assert pack.spec.keys() == ("a", "b", "c")
            views = shm.attach(pack.spec)
            for key, arr in arrays.items():
                np.testing.assert_array_equal(views[key], arr)
                assert views[key].dtype == arr.dtype
                assert not views[key].flags.writeable

    def test_views_alias_segment_not_copies(self):
        src = np.arange(8, dtype=np.float64)
        with shm.publish({"x": src}) as pack:
            v1 = shm.attach(pack.spec)["x"]
            v2 = shm.attach(pack.spec)["x"]
            # Memoized attach: the same view object both times.
            assert v1 is v2
            # The view's memory is the shared buffer, not a copy of src.
            assert v1.base is not None
            assert not np.shares_memory(v1, src)

    def test_arrays_are_64_byte_aligned(self):
        arrays = {"a": np.ones(3), "b": np.ones(7), "c": np.ones(1)}
        with shm.publish(arrays) as pack:
            for spec in pack.spec.arrays:
                assert spec.offset % 64 == 0

    def test_empty_pack_rejected(self):
        with pytest.raises(ParallelExecutionError):
            shm.publish({})

    def test_close_unlinks_and_is_idempotent(self):
        pack = shm.publish({"x": np.ones(4)})
        name = pack.spec.segment
        assert name in shm.owned_segments()
        pack.close()
        pack.close()
        assert name not in shm.owned_segments()
        assert name not in shm.leaked_segments()
        with pytest.raises(ParallelExecutionError):
            # detach first so the memoized mapping doesn't mask the unlink
            shm.detach_all()
            shm.attach(pack.spec)

    def test_leak_detection_and_cleanup(self):
        pack = shm.publish({"x": np.ones(16)})
        name = pack.spec.segment
        # Simulate a crashed coordinator: forget ownership w/o unlink.
        shm.forget_owned()
        try:
            assert name in shm.leaked_segments()
            assert shm.unlink_segments([name]) == 1
            assert name not in shm.leaked_segments()
        finally:
            shm._OWNED.pop(name, None)

    def test_pack_spec_is_tiny_and_picklable(self):
        big = np.zeros((1000, 30))
        with shm.publish({"big": big}) as pack:
            blob = pickle.dumps(pack.spec)
            assert len(blob) < 1024
            spec = pickle.loads(blob)
            assert spec.segment == pack.spec.segment
            assert spec.arrays[0].shape == (1000, 30)


def _attach_then_die(spec):
    """Pool-worker stand-in: attach a pack, then SIGKILL yourself.

    Mirrors the worker initializer (``forget_owned``) so the attach is
    a genuine second mapping, not the owner's in-process shortcut.
    """
    shm.forget_owned()
    views = shm.attach(spec)
    assert float(views["x"][0]) == 0.0
    os.kill(os.getpid(), signal.SIGKILL)


class TestJanitorSafety:
    def test_mid_attach_sigkill_leaves_live_segment_alone(self):
        """A worker SIGKILL'd while attached must not let any audit —
        this process's or a foreign janitor's — unlink the segment
        while its creator is still alive."""
        with shm.publish({"x": np.arange(64, dtype=np.float64)}) as pack:
            name = pack.spec.segment
            ctx = multiprocessing.get_context("fork")
            proc = ctx.Process(target=_attach_then_die, args=(pack.spec,))
            proc.start()
            proc.join(timeout=30)
            assert proc.exitcode == -signal.SIGKILL
            # Local audit: the segment is owned here, so it is neither
            # leaked nor sweepable.
            assert name not in shm.leaked_segments()
            assert name not in shm.janitor_sweep()
            # Foreign audit: a separate process sees a live creator pid
            # and must leave the segment untouched.
            script = textwrap.dedent(
                """
                import sys
                from repro.parallel import shm
                name = sys.argv[1]
                leaked = name in shm.leaked_segments()
                swept = name in shm.janitor_sweep()
                print(int(leaked), int(swept))
                """
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, ["src", env.get("PYTHONPATH")])
            )
            out = subprocess.run(
                [sys.executable, "-c", script, name],
                cwd="/root/repo", env=env,
                capture_output=True, text=True, timeout=60,
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == ["0", "0"]
            # The segment survived every audit and is still readable.
            assert os.path.exists(f"/dev/shm/{name}")
            views = shm.attach(pack.spec)
            np.testing.assert_array_equal(
                views["x"], np.arange(64, dtype=np.float64)
            )


class TestTraceAdoption:
    def test_trace_adopts_read_only_arrays_without_copy(self):
        types = np.array([0, 1, 0], dtype=np.int64)
        arrivals = np.array([0.0, 1.0, 2.0])
        types.setflags(write=False)
        arrivals.setflags(write=False)
        trace = Trace(task_types=types, arrival_times=arrivals, window=10.0)
        assert trace.task_types is types
        assert trace.arrival_times is arrivals

    def test_trace_still_copies_writable_arrays(self):
        types = np.array([0, 1, 0], dtype=np.int64)
        trace = Trace(
            task_types=types, arrival_times=np.array([0.0, 1.0, 2.0]),
            window=10.0,
        )
        assert trace.task_types is not types
        assert not trace.task_types.flags.writeable


class TestPublishDataset:
    def test_handle_is_small_and_restores_identically(self, bundle):
        with descriptors.publish_dataset(bundle) as published:
            assert published.transport == "shm"
            blob = pickle.dumps(published.handle)
            # O(1) in the trace size: metadata + segment spec only.
            assert len(blob) < 16_384
            handle = pickle.loads(blob)
            restored = handle.restore()
            assert restored.bundle.name == bundle.name
            assert restored.bundle.trace.num_tasks == bundle.trace.num_tasks
            alloc = _random_alloc(bundle)
            shared = restored.make_evaluator(check_feasibility=False)
            plain = ScheduleEvaluator(
                bundle.system, bundle.trace, check_feasibility=False
            )
            assert shared.objectives(alloc) == plain.objectives(alloc)

    def test_restore_is_memoized_per_process(self, bundle):
        with descriptors.publish_dataset(bundle) as published:
            first = published.handle.restore()
            second = published.handle.restore()
            assert first is second

    def test_restored_views_are_zero_copy(self, bundle):
        with descriptors.publish_dataset(bundle) as published:
            restored = published.handle.restore()
            views = shm.attach(published.handle.segment)
            arrays = restored.evaluator_arrays
            assert np.shares_memory(arrays.etc_rows, views["etc_rows"])
            assert np.shares_memory(
                restored.bundle.trace.arrival_times, views["trace_arrivals"]
            )
            assert not arrays.etc_rows.flags.writeable

    def test_pickle_transport_identical(self, bundle):
        alloc = _random_alloc(bundle, seed=3)
        plain = ScheduleEvaluator(
            bundle.system, bundle.trace, check_feasibility=False
        )
        with descriptors.publish_dataset(bundle, transport="pickle") as pub:
            assert pub.transport == "pickle"
            assert pub.handle.segment is None
            handle = pickle.loads(pickle.dumps(pub.handle))
            shared = handle.restore().make_evaluator(check_feasibility=False)
            assert shared.objectives(alloc) == plain.objectives(alloc)

    def test_unknown_transport_rejected(self, bundle):
        with pytest.raises(ParallelExecutionError, match="transport"):
            descriptors.publish_dataset(bundle, transport="carrier-pigeon")

    def test_close_releases_segment(self, bundle):
        published = descriptors.publish_dataset(bundle)
        name = published.handle.segment.segment
        published.close()
        assert name not in shm.owned_segments()
        assert name not in shm.leaked_segments()

    def test_publish_records_obs(self, bundle, tmp_path):
        from repro.obs.context import RunContext

        obs = RunContext.create(tmp_path / "obs")
        with descriptors.publish_dataset(bundle, obs=obs) as published:
            snap = obs.metrics.as_dict()
            assert snap["parallel_segment_bytes"]["value"] == published.nbytes

    def test_dataset_arrays_match_evaluator_expressions(self, bundle):
        arrays = descriptors.dataset_arrays(bundle)
        task_types = bundle.trace.task_types
        np.testing.assert_array_equal(
            arrays["etc_rows"], bundle.system.etc_task_machine[task_types]
        )
        np.testing.assert_array_equal(
            arrays["feasible_rows"],
            bundle.system.feasible_task_machine[task_types],
        )

    def test_share_convenience(self, bundle):
        with bundle.share() as published:
            assert published.handle.dataset_id.startswith(bundle.name)
