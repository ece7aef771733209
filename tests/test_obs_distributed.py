"""Distributed telemetry: context propagation, worker sinks, merging.

The load-bearing guarantees of the cross-process pipeline:

* **determinism** — parallel fronts are bit-identical with worker
  telemetry on vs off, on both transports;
* **causal linkage** — the merged trace is one tree: every worker
  ``cell.run`` span is parented under the coordinator's ``grid.run``
  span and carries worker attribution, and the merged directory passes
  the unchanged ``repro.obs/1`` validators;
* **crash safety** — a SIGKILL'd worker leaves schema-valid sink files
  holding everything up to its last completed cell, and every ``done``
  cell of a chaos-drilled grid has worker-attributed span lineage;
* **loss accounting** — dropped manifest heartbeats surface as the
  ``worker_heartbeat_dropped_total`` counter plus one warning event
  per worker, never as a silent ``pass``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ObservabilityError
from repro.experiments.datasets import dataset1
from repro.experiments.repetitions import run_repetitions
from repro.obs import (
    NULL_CONTEXT,
    RunContext,
    TraceContext,
    WorkerTelemetryConfig,
    merge_obs_dir,
    validate_run_dir,
    worker_dirs,
)
from repro.obs.collect import MERGED_DIR_NAME
from repro.obs.distributed import CELL_SPAN_NAME, GRID_SPAN_NAME


@pytest.fixture(scope="module")
def bundle():
    return dataset1(seed=321)


def _read_spans(run_dir: Path) -> list:
    return [
        json.loads(line)
        for line in (run_dir / "trace.jsonl").read_text().splitlines()
        if line.strip()
    ]


def _run(bundle, tmp, *, obs=None, transport="auto", grid_dir=None):
    return run_repetitions(
        bundle, repetitions=4, generations=3, population_size=12,
        base_seed=77, workers=2, transport=transport, obs=obs,
        grid_dir=grid_dir,
    )


class TestTraceContext:
    def test_child_and_attrs(self):
        ctx = TraceContext(run_id="r1", grid_id="g1")
        cell = ctx.child(cell=3, attempt=2, worker=123)
        assert cell.run_id == "r1"
        assert cell.as_attrs() == {
            "grid_id": "g1", "cell": 3, "attempt": 2, "worker": 123,
        }
        # run-scoped context: empty/zero fields are omitted.
        assert ctx.as_attrs() == {"grid_id": "g1"}

    def test_non_scalar_cell_keys_coerced(self):
        ctx = TraceContext(run_id="r", cell=("a", 1))
        assert ctx.as_attrs()["cell"] == str(("a", 1))

    def test_config_is_none_when_dark(self, tmp_path):
        assert WorkerTelemetryConfig.from_context(None) is None
        assert WorkerTelemetryConfig.from_context(NULL_CONTEXT) is None
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="x")
        config = WorkerTelemetryConfig.from_context(obs, grid_id="g")
        assert config is not None
        assert config.run_id == "x"
        assert config.grid_id == "g"
        assert Path(config.root) == tmp_path / "obs" / "workers"


class TestWorkerTelemetrySink:
    def test_open_creates_schema_valid_dir_eagerly(self, tmp_path):
        """A worker killed before its first cell ends must still leave
        a complete (empty) sink directory."""
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="run")
        telem = WorkerTelemetryConfig.from_context(obs).open()
        assert validate_run_dir(telem.dir) == []
        meta = json.loads((telem.dir / "meta.json").read_text())
        assert meta["fields"]["worker"] == telem.pid
        assert "monotonic_s" in meta["clock"]

    def test_cells_append_incrementally(self, tmp_path):
        """Each finished cell span is on disk before the next cell."""
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="run")
        telem = WorkerTelemetryConfig.from_context(obs).open()
        with telem.obs.span(CELL_SPAN_NAME, cell=0):
            telem.obs.record_span("ga.run", 0.001)
        assert len(_read_spans(telem.dir)) == 2
        with telem.obs.span(CELL_SPAN_NAME, cell=1):
            assert len(_read_spans(telem.dir)) == 2
        spans = _read_spans(telem.dir)
        assert len(spans) == 3
        assert validate_run_dir(telem.dir) == []

    def test_heartbeat_drop_counted_and_warned_once(self, tmp_path):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="run")
        telem = WorkerTelemetryConfig.from_context(obs).open()
        for attempt in (1, 2, 3):
            telem.heartbeat_dropped(0, attempt, OSError("disk gone"))
            # The engine runs the cell next; its span's end persists
            # the metrics snapshot.
            with telem.obs.span(CELL_SPAN_NAME, cell=0, attempt=attempt):
                pass
        metrics = json.loads((telem.dir / "metrics.json").read_text())
        assert metrics["worker_heartbeat_dropped_total"]["value"] == 3.0
        events = [
            json.loads(line)
            for line in (telem.dir / "events.jsonl").read_text().splitlines()
        ]
        warned = [
            e for e in events if e["event"] == "worker.heartbeat_dropped"
        ]
        assert len(warned) == 1  # once per worker, not per drop
        assert warned[0]["level"] == "warning"
        assert "disk gone" in warned[0]["fields"]["error"]


class TestCollector:
    def test_no_worker_dirs_is_a_noop(self, tmp_path):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="serial")
        obs.flush()
        assert merge_obs_dir(tmp_path / "obs") is None
        assert not (tmp_path / "obs" / MERGED_DIR_NAME).exists()

    def test_unflushed_dir_raises(self, tmp_path):
        (tmp_path / "obs" / "workers" / "worker-1-aa").mkdir(parents=True)
        (tmp_path / "obs" / "workers" / "worker-1-aa" / "meta.json").write_text(
            "{}"
        )
        with pytest.raises(ObservabilityError):
            merge_obs_dir(tmp_path / "obs")

    def test_clock_alignment_shifts_worker_timestamps(self, tmp_path):
        """A worker whose monotonic anchor differs by delta lands on the
        coordinator timeline shifted by exactly delta."""
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="coord")
        with obs.span(GRID_SPAN_NAME, grid_id="g"):
            pass
        telem = WorkerTelemetryConfig.from_context(obs).open()
        with telem.obs.span(CELL_SPAN_NAME, cell=0):
            pass
        obs.flush()
        # Skew the worker's anchor 100 s earlier than the coordinator's:
        # its local timestamps are then 100 s "too large" and the
        # collector must subtract the delta.
        meta = json.loads((telem.dir / "meta.json").read_text())
        coord_meta = json.loads((Path(obs.obs_dir) / "meta.json").read_text())
        meta["clock"]["monotonic_s"] = (
            coord_meta["clock"]["monotonic_s"] - 100.0
        )
        (telem.dir / "meta.json").write_text(json.dumps(meta))
        out = merge_obs_dir(tmp_path / "obs")
        merged = _read_spans(out)
        cell = next(s for s in merged if s["name"] == CELL_SPAN_NAME)
        local = _read_spans(telem.dir)[0]
        assert cell["start_s"] == pytest.approx(local["start_s"] - 100.0)

    def test_damaged_worker_lines_skipped_and_counted(self, tmp_path):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="coord")
        telem = WorkerTelemetryConfig.from_context(obs).open()
        with telem.obs.span(CELL_SPAN_NAME, cell=0):
            pass
        # Simulate a SIGKILL mid-append: a torn half-line at the tail.
        with open(telem.dir / "trace.jsonl", "a") as fh:
            fh.write('{"span_id": 99, "name": "cell.ru')
        obs.flush()
        out = tmp_path / "obs" / MERGED_DIR_NAME
        assert validate_run_dir(out) == []
        merged_meta = json.loads((out / "meta.json").read_text())
        assert merged_meta["damaged_lines"] == 1
        assert [s["name"] for s in _read_spans(out)].count(CELL_SPAN_NAME) == 1


class TestParallelRunEndToEnd:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_fronts_bit_identical_with_worker_telemetry(
        self, bundle, tmp_path, transport
    ):
        dark = _run(bundle, tmp_path, transport=transport)
        obs = RunContext.create(
            obs_dir=tmp_path / f"obs-{transport}", run_id="lit"
        )
        lit = _run(bundle, tmp_path, obs=obs, transport=transport)
        obs.flush()
        for d, l in zip(dark.fronts, lit.fronts):
            np.testing.assert_array_equal(d, l)
        assert dark.hypervolume == lit.hypervolume

    def test_merged_trace_is_causally_linked_and_valid(
        self, bundle, tmp_path
    ):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="lit")
        _run(bundle, tmp_path, obs=obs)
        obs.flush()
        assert worker_dirs(tmp_path / "obs")
        merged = tmp_path / "obs" / MERGED_DIR_NAME
        assert validate_run_dir(merged) == []
        spans = _read_spans(merged)
        grid = [s for s in spans if s["name"] == GRID_SPAN_NAME]
        cells = [s for s in spans if s["name"] == CELL_SPAN_NAME]
        assert len(grid) == 1
        assert len(cells) == 4
        for cell in cells:
            assert cell["parent_id"] == grid[0]["span_id"]
            assert "worker" in cell["attrs"]
            assert cell["attrs"]["cell"] in (0, 1, 2, 3)
        # Worker-recorded GA spans nest under their cell spans.
        by_id = {s["span_id"]: s for s in spans}
        ga_runs = [s for s in spans if s["name"] == "ga.run"]
        assert len(ga_runs) == 4
        for span in ga_runs:
            assert by_id[span["parent_id"]]["name"] == CELL_SPAN_NAME
        # Spans are stable-sorted and events time-monotone.
        keys = [
            (s["start_s"], str(s["attrs"].get("worker", "")), s["span_id"])
            for s in spans
        ]
        assert keys == sorted(keys)

    def test_merged_metrics_aggregate_and_per_worker_series(
        self, bundle, tmp_path
    ):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="lit")
        _run(bundle, tmp_path, obs=obs)
        obs.flush()
        metrics = json.loads(
            (tmp_path / "obs" / MERGED_DIR_NAME / "metrics.json").read_text()
        )
        assert metrics["worker_cells_total"]["value"] == 4.0
        labeled = [
            key for key in metrics
            if key.startswith('worker_cells_total{worker="')
        ]
        assert labeled  # per-worker breakdown survives aggregation
        assert sum(metrics[key]["value"] for key in labeled) == 4.0
        hist = metrics["worker_cell_seconds"]
        assert hist["count"] == 4
        # Cumulative bucket counts (the validator checks this too).
        counts = [b["count"] for b in hist["buckets"]]
        assert counts == sorted(counts)

    def test_flush_is_idempotent(self, bundle, tmp_path):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="lit")
        _run(bundle, tmp_path, obs=obs)
        obs.flush()
        first = (
            tmp_path / "obs" / MERGED_DIR_NAME / "trace.jsonl"
        ).read_text()
        obs.flush()
        second = (
            tmp_path / "obs" / MERGED_DIR_NAME / "trace.jsonl"
        ).read_text()
        assert first == second
