"""The parallel engine: pool lifecycle, retries, timeouts, leases.

Cell bodies live at module level so pool workers (fork or spawn) can
unpickle them by qualified name.
"""

import multiprocessing
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ParallelExecutionError
from repro.experiments.datasets import DatasetBundle
from repro.experiments.runner import RetryPolicy
from repro.model.system import SystemModel
from repro.parallel import descriptors, shm
from repro.parallel.engine import ParallelEngine
from repro.utility.presets import assign_presets
from repro.workload.generator import WorkloadGenerator

FAST = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def bundle() -> DatasetBundle:
    rng = np.random.default_rng(11)
    etc = rng.uniform(5.0, 120.0, size=(4, 5))
    epc = rng.uniform(40.0, 250.0, size=(4, 5))
    system = SystemModel.from_matrices(
        etc, epc, machines_per_type=[1, 1, 2, 1, 1]
    ).with_utility_functions(assign_presets(4, 500.0, seed=12))
    trace = WorkloadGenerator.uniform_for(4).generate(25, 500.0, seed=13)
    return DatasetBundle(
        name="engine-test", system=system, trace=trace,
        horizon_seconds=500.0, seed=0,
    )


# -- cell bodies (module-level, picklable) ------------------------------------


def _echo_cell(restored, extra, key, attempt, payload):
    return (key, attempt, payload, extra["tag"])


def _sum_etc_cell(restored, extra, key, attempt, payload):
    # Touch the shared views to prove the worker sees real data.
    return float(restored.evaluator_arrays.etc_rows.sum())


def _flaky_cell(restored, extra, key, attempt, payload):
    if attempt <= extra["failures"].get(key, 0):
        raise RuntimeError(f"{key} fails on attempt {attempt}")
    return f"{key}-ok-{attempt}"


def _lease_probe_cell(restored, extra, key, attempt, payload):
    start = time.monotonic()
    if attempt == 1:
        time.sleep(extra["hang"])
    end = time.monotonic()
    Path(extra["dir"], f"{key}.attempt{attempt}").write_text(f"{start} {end}")
    if attempt == 1:
        raise RuntimeError("attempt 1 fails after hanging")
    return "recovered"


def _die_cell(restored, extra, key, attempt, payload):
    os._exit(3)


# -- tests --------------------------------------------------------------------


class TestBasics:
    def test_cells_fan_out_and_collect(self, bundle):
        results = {}
        with descriptors.publish_dataset(bundle) as published:
            with ParallelEngine(
                2, handle=published.handle, extra={"tag": "t"}
            ) as engine:
                engine.run(
                    _echo_cell, ["a", "b", "c", "d"],
                    payload_for=lambda k, a: f"p-{k}",
                    policy=FAST,
                    backoff_for=lambda k, a: 0.0,
                    give_up=lambda k, a, e: pytest.fail(f"gave up on {k}: {e}"),
                    on_result=lambda r: results.__setitem__(r.key, r),
                )
        assert set(results) == {"a", "b", "c", "d"}
        for key, reply in results.items():
            assert reply.result == (key, 1, f"p-{key}", "t")
            assert reply.attempt == 1
            assert reply.queue_wait >= 0.0
            assert reply.elapsed >= 0.0
        # One attach per worker process, at most the pool size.
        assert 1 <= len({r.pid for r in results.values()}) <= 2

    def test_workers_see_shared_arrays(self, bundle):
        results = []
        expected = float(
            bundle.system.etc_task_machine[bundle.trace.task_types].sum()
        )
        with descriptors.publish_dataset(bundle) as published:
            with ParallelEngine(2, handle=published.handle) as engine:
                engine.run(
                    _sum_etc_cell, [0, 1, 2],
                    payload_for=lambda k, a: None,
                    policy=FAST,
                    backoff_for=lambda k, a: 0.0,
                    give_up=lambda k, a, e: pytest.fail(str(e)),
                    on_result=lambda r: results.append(r.result),
                )
        assert results == [expected] * 3

    def test_invalid_worker_count(self):
        with pytest.raises(ParallelExecutionError, match="workers"):
            ParallelEngine(0)

    def test_closed_engine_rejects_run(self):
        engine = ParallelEngine(1)
        engine.close()
        with pytest.raises(ParallelExecutionError, match="closed"):
            engine.run(
                _echo_cell, ["a"], payload_for=lambda k, a: None,
                policy=FAST, backoff_for=lambda k, a: 0.0,
                give_up=lambda k, a, e: None, on_result=lambda r: None,
            )


class TestRetries:
    def test_heap_scheduled_retries_recover(self):
        """Transient failures retry after their backoff and recover;
        backoff_for is consulted exactly once per scheduled retry."""
        results = {}
        backoff_calls = []

        def backoff_for(key, attempt):
            backoff_calls.append((key, attempt))
            return 0.01 * (1 + hash(key) % 3)

        with ParallelEngine(
            2, extra={"failures": {"x": 2, "y": 1, "z": 0}}
        ) as engine:
            engine.run(
                _flaky_cell, ["x", "y", "z"],
                payload_for=lambda k, a: None,
                policy=FAST,
                backoff_for=backoff_for,
                give_up=lambda k, a, e: pytest.fail(f"gave up on {k}"),
                on_result=lambda r: results.__setitem__(r.key, r.result),
            )
        assert results == {"x": "x-ok-3", "y": "y-ok-2", "z": "z-ok-1"}
        assert sorted(backoff_calls) == [("x", 1), ("x", 2), ("y", 1)]

    def test_give_up_after_max_attempts(self):
        failures = []
        with ParallelEngine(2, extra={"failures": {"x": 99}}) as engine:
            engine.run(
                _flaky_cell, ["x", "y"],
                payload_for=lambda k, a: None,
                policy=RetryPolicy(max_attempts=2, backoff_base=0.0, jitter=0.0),
                backoff_for=lambda k, a: 0.0,
                give_up=lambda k, a, e: failures.append((k, a, str(e))),
                on_result=lambda r: None,
            )
        assert len(failures) == 1
        assert failures[0][0] == "x"
        assert failures[0][1] == 2

    def test_give_up_raise_fails_fast(self):
        with ParallelEngine(2, extra={"failures": {"x": 99}}) as engine:
            with pytest.raises(RuntimeError, match="fail fast"):
                engine.run(
                    _flaky_cell, ["x"],
                    payload_for=lambda k, a: None,
                    policy=RetryPolicy(max_attempts=1),
                    backoff_for=lambda k, a: 0.0,
                    give_up=lambda k, a, e: (_ for _ in ()).throw(
                        RuntimeError("fail fast")
                    ),
                    on_result=lambda r: None,
                )


class TestTimeoutLease:
    def test_timed_out_attempt_never_overlaps_its_retry(self, tmp_path):
        """Regression: a hung attempt past its deadline keeps its cell
        lease, so the retry starts only after the zombie finishes —
        previously both ran concurrently (racing on checkpoints and
        double-consuming pool slots)."""
        results = {}
        with ParallelEngine(
            3, extra={"dir": str(tmp_path), "hang": 0.8}
        ) as engine:
            engine.run(
                _lease_probe_cell, ["cell"],
                payload_for=lambda k, a: None,
                policy=RetryPolicy(
                    max_attempts=2, timeout=0.15,
                    backoff_base=0.0, jitter=0.0,
                ),
                backoff_for=lambda k, a: 0.0,
                give_up=lambda k, a, e: pytest.fail(f"gave up: {e}"),
                on_result=lambda r: results.__setitem__(r.key, r.result),
            )
        assert results == {"cell": "recovered"}
        first_start, first_end = map(
            float, (tmp_path / "cell.attempt1").read_text().split()
        )
        second_start, _ = map(
            float, (tmp_path / "cell.attempt2").read_text().split()
        )
        # With 3 workers and a 0.15 s timeout, an unleased retry would
        # start ~0.6 s before the zombie's hang ends.
        assert second_start >= first_end

    def test_permanent_timeout_gives_up_with_timeout_error(self, tmp_path):
        failures = []
        with ParallelEngine(
            2, extra={"dir": str(tmp_path), "hang": 0.4}
        ) as engine:
            engine.run(
                _lease_probe_cell, ["cell"],
                payload_for=lambda k, a: None,
                policy=RetryPolicy(
                    max_attempts=1, timeout=0.1,
                    backoff_base=0.0, jitter=0.0,
                ),
                backoff_for=lambda k, a: 0.0,
                give_up=lambda k, a, e: failures.append(e),
                on_result=lambda r: None,
            )
        assert len(failures) == 1
        assert isinstance(failures[0], TimeoutError)


class TestCrashLifecycle:
    def test_worker_death_does_not_leak_segments(self, bundle):
        """A worker that dies hard breaks the pool, but the published
        segment is still unlinked by the coordinator's cleanup."""
        published = descriptors.publish_dataset(bundle)
        name = published.handle.segment.segment
        try:
            with pytest.raises(Exception):
                with ParallelEngine(2, handle=published.handle) as engine:
                    engine.run(
                        _die_cell, ["a", "b"],
                        payload_for=lambda k, a: None,
                        policy=RetryPolicy(max_attempts=1),
                        backoff_for=lambda k, a: 0.0,
                        give_up=lambda k, a, e: (_ for _ in ()).throw(e),
                        on_result=lambda r: None,
                    )
        finally:
            published.close()
        assert name not in shm.owned_segments()
        assert name not in shm.leaked_segments()


class TestTransports:
    def test_pickle_and_shm_workers_agree(self, bundle):
        outcomes = {}
        for transport in ("shm", "pickle"):
            results = []
            with descriptors.publish_dataset(
                bundle, transport=transport
            ) as published:
                assert published.transport == transport
                with ParallelEngine(2, handle=published.handle) as engine:
                    engine.run(
                        _sum_etc_cell, [0, 1],
                        payload_for=lambda k, a: None,
                        policy=FAST,
                        backoff_for=lambda k, a: 0.0,
                        give_up=lambda k, a, e: pytest.fail(str(e)),
                        on_result=lambda r: results.append(r.result),
                    )
            outcomes[transport] = results
        assert outcomes["shm"] == outcomes["pickle"]

    def test_spawn_context_smoke(self, bundle):
        """The engine also works under the spawn start method (workers
        import the handle fresh instead of inheriting memory)."""
        results = []
        with descriptors.publish_dataset(bundle) as published:
            with ParallelEngine(
                2, handle=published.handle,
                mp_context=multiprocessing.get_context("spawn"),
            ) as engine:
                engine.run(
                    _sum_etc_cell, [0, 1],
                    payload_for=lambda k, a: None,
                    policy=FAST,
                    backoff_for=lambda k, a: 0.0,
                    give_up=lambda k, a, e: pytest.fail(str(e)),
                    on_result=lambda r: results.append(r.result),
                )
        expected = float(
            bundle.system.etc_task_machine[bundle.trace.task_types].sum()
        )
        assert results == [expected] * 2


class TestObservability:
    def test_coordinator_metrics_recorded(self, bundle, tmp_path):
        from repro.obs.context import RunContext

        obs = RunContext.create(tmp_path / "obs")
        with descriptors.publish_dataset(bundle, obs=obs) as published:
            with ParallelEngine(
                2, handle=published.handle, obs=obs
            ) as engine:
                engine.run(
                    _sum_etc_cell, [0, 1, 2, 3],
                    payload_for=lambda k, a: None,
                    policy=FAST,
                    backoff_for=lambda k, a: 0.0,
                    give_up=lambda k, a, e: pytest.fail(str(e)),
                    on_result=lambda r: None,
                )
            workers_seen = len(engine.seen_pids)
        snap = obs.metrics.as_dict()
        assert snap["parallel_segment_bytes"]["value"] == published.nbytes
        assert snap["parallel_cells_total"]["value"] == 4
        assert snap["parallel_attach_total"]["value"] == workers_seen
        assert snap["parallel_queue_wait_seconds"]["count"] == 4
