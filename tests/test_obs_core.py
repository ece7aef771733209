"""Unit tests for the observability subsystem (``repro.obs``)."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_CONTEXT,
    EventLog,
    MetricsRegistry,
    RunContext,
    Tracer,
)
from repro.obs.context import OBS_FORMAT
from repro.obs.report import load_run_dir, stage_totals, trace_report
from repro.obs.schema import (
    check_run_dir,
    validate_events_file,
    validate_metrics_file,
    validate_run_dir,
    validate_trace_file,
)
from repro.obs.trace import render_flame


class FakeClock:
    """A manually advanced clock for deterministic span durations."""

    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestTracer:
    def test_block_spans_nest(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(tmp_path / "trace.jsonl", clock=clock)
        with tracer.span("outer", label="x"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(0.25)
        # Children close (and are appended) before their parents.
        inner, outer = read_jsonl(tracer.path)
        assert inner["name"] == "inner" and outer["name"] == "outer"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["parent_id"] is None
        assert inner["duration_s"] == pytest.approx(0.25)
        assert outer["duration_s"] == pytest.approx(1.25)
        assert outer["attrs"] == {"label": "x"}
        assert outer["start_s"] == pytest.approx(0.0)

    def test_record_files_under_open_parent(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(tmp_path / "trace.jsonl", clock=clock)
        with tracer.span("run") as run_span:
            clock.advance(2.0)
            tracer.record("stage", 0.5, generation=3)
            run_span.set(stages=1)
        docs = read_jsonl(tracer.path)
        stage = next(d for d in docs if d["name"] == "stage")
        run = next(d for d in docs if d["name"] == "run")
        assert stage["parent_id"] == run["span_id"]
        assert stage["duration_s"] == 0.5
        assert stage["start_s"] == pytest.approx(1.5)
        assert stage["attrs"] == {"generation": 3}
        assert run["attrs"] == {"stages": 1}

    def test_exception_marks_error_status(self, tmp_path):
        tracer = Tracer(tmp_path / "trace.jsonl", clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert read_jsonl(tracer.path)[0]["status"] == "error"

    def test_totals_and_flame(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(tmp_path / "trace.jsonl", clock=clock)
        for _ in range(3):
            with tracer.span("work"):
                clock.advance(1.0)
        docs = read_jsonl(tracer.path)
        assert sum(d["duration_s"] for d in docs) == pytest.approx(3.0)
        flame = render_flame(docs, width=10)
        assert "work" in flame and "x3" in flame
        assert render_flame([]) == "(no spans recorded)"

    def test_jsonl_round_trip(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "trace.jsonl"
        path.write_text("stale\n")
        tracer = Tracer(path, clock=clock)
        assert path.read_text() == ""  # created empty
        with tracer.span("a"):
            clock.advance(0.1)
        docs = read_jsonl(path)
        assert docs[0]["name"] == "a" and docs[0]["status"] == "ok"
        assert validate_trace_file(path) == []

    def test_trees_append_only_when_the_stack_empties(self, tmp_path):
        """The file only ever holds complete trees: a child waits in
        ``pending`` until its root closes, and a root-level record is
        appended at once."""
        trees = []
        tracer = Tracer(
            tmp_path / "trace.jsonl", clock=FakeClock(),
            on_tree=lambda: trees.append(len(read_jsonl(tracer.path))),
        )
        with tracer.span("root"):
            tracer.record("child", 0.1)
            with tracer.span("nested"):
                pass
            assert tracer.path.read_text() == ""
            assert [d["name"] for d in tracer.pending] == ["child", "nested"]
        assert tracer.pending == []
        assert trees == [3]
        tracer.record("lone", 0.2)
        assert trees == [3, 4]
        assert [d["name"] for d in read_jsonl(tracer.path)] == [
            "child", "nested", "root", "lone",
        ]
        assert validate_trace_file(tracer.path) == []


class TestMetrics:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_get_or_create_shares_and_rejects_type_drift(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        with pytest.raises(ObservabilityError):
            registry.gauge("x")

    def test_histogram_buckets_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert [b["count"] for b in snap["buckets"]] == [1, 2, 3]
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(55.55)
        with pytest.raises(ObservabilityError):
            hist.observe(float("nan"))
        with pytest.raises(ObservabilityError):
            registry.histogram("bad", buckets=(1.0, 1.0))

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("evals_total", help="total evals").inc(7)
        registry.gauge("front_size").set(13)
        registry.histogram("dur_seconds", buckets=(0.5, 2.0)).observe(1.0)
        text = registry.to_prometheus_text()
        assert "# HELP evals_total total evals" in text
        assert "# TYPE evals_total counter" in text
        assert "evals_total 7" in text
        assert "front_size 13" in text
        assert 'dur_seconds_bucket{le="0.5"} 0' in text
        assert 'dur_seconds_bucket{le="2"} 1' in text
        assert 'dur_seconds_bucket{le="+Inf"} 1' in text
        assert "dur_seconds_sum 1" in text
        assert "dur_seconds_count 1" in text

    def test_as_dict_name_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz")
        registry.counter("aa")
        assert list(registry.as_dict()) == ["aa", "zz"]


class TestPrometheusExport:
    """The text exposition format under labels, escaping, and validation."""

    def test_metric_name_validated(self):
        registry = MetricsRegistry()
        for bad in ("1starts_with_digit", "has-dash", "has space", ""):
            with pytest.raises(ObservabilityError):
                registry.counter(bad)
        # Colons are legal in metric names (recording rules use them).
        registry.counter("ns:sub:total").inc()
        assert "ns:sub:total 1" in registry.to_prometheus_text()

    def test_label_name_validated(self):
        registry = MetricsRegistry()
        for bad in ("has-dash", "1digit", "with:colon", ""):
            with pytest.raises(ObservabilityError):
                registry.counter("ok_total", labels={bad: "v"})

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.counter(
            "odd_total", labels={"path": 'a\\b"c\nd'}
        ).inc(2)
        text = registry.to_prometheus_text()
        assert 'odd_total{path="a\\\\b\\"c\\nd"} 2' in text
        # The raw characters never leak unescaped into the exposition.
        assert '\n"c' not in text

    def test_labeled_series_are_distinct_one_header(self):
        registry = MetricsRegistry()
        registry.counter("cells_total", help="cells",
                         labels={"worker": "1"}).inc(3)
        registry.counter("cells_total", labels={"worker": "2"}).inc(4)
        registry.counter("cells_total").inc(7)
        text = registry.to_prometheus_text()
        assert text.count("# TYPE cells_total counter") == 1
        assert text.count("# HELP cells_total cells") == 1
        assert "cells_total 7" in text
        assert 'cells_total{worker="1"} 3' in text
        assert 'cells_total{worker="2"} 4' in text

    def test_type_drift_rejected_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels={"worker": "1"})
        with pytest.raises(ObservabilityError):
            registry.gauge("x_total", labels={"worker": "2"})

    def test_label_order_canonicalized(self):
        registry = MetricsRegistry()
        a = registry.counter("y_total", labels={"b": "2", "a": "1"})
        b = registry.counter("y_total", labels={"a": "1", "b": "2"})
        assert a is b
        assert 'y_total{a="1",b="2"}' in registry.to_prometheus_text()

    def test_histogram_bucket_ordering_and_labels(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", buckets=(0.1, 1.0, 10.0),
            labels={"worker": "9"},
        )
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        text = registry.to_prometheus_text()
        lines = [l for l in text.splitlines() if l.startswith("lat_seconds")]
        # Buckets in bound order, cumulative, le first then the series
        # labels, +Inf equal to the total count, then sum and count.
        assert lines == [
            'lat_seconds_bucket{le="0.1",worker="9"} 1',
            'lat_seconds_bucket{le="1",worker="9"} 2',
            'lat_seconds_bucket{le="10",worker="9"} 3',
            'lat_seconds_bucket{le="+Inf",worker="9"} 4',
            'lat_seconds_sum{worker="9"} 55.55',
            'lat_seconds_count{worker="9"} 4',
        ]

    def test_prefix_names_do_not_interleave(self):
        """A metric whose name prefixes another must keep its samples
        contiguous under its own headers ("foo" vs "foo_bar")."""
        registry = MetricsRegistry()
        registry.counter("foo", labels={"z": "1"}).inc()
        registry.counter("foo_bar").inc()
        registry.counter("foo").inc()
        text = registry.to_prometheus_text()
        foo_lines = [
            i for i, l in enumerate(text.splitlines())
            if l == "foo 1" or l.startswith("foo{")
        ]
        assert foo_lines == list(range(foo_lines[0], foo_lines[0] + 2))

    def test_snapshot_keys_match_prom_series(self):
        registry = MetricsRegistry()
        registry.gauge("g", labels={"k": "v"}).set(1)
        snapshot = registry.as_dict()
        assert 'g{k="v"}' in snapshot
        assert snapshot['g{k="v"}']["labels"] == {"k": "v"}


class TestEventLog:
    def test_threshold_filters_at_emit(self, tmp_path):
        log = EventLog(tmp_path / "events.jsonl", level="warning",
                       clock=FakeClock())
        log.emit("kept", level="error")
        log.emit("dropped", level="info")
        assert [e["event"] for e in read_jsonl(log.path)] == ["kept"]

    def test_unknown_levels_rejected(self, tmp_path):
        with pytest.raises(ObservabilityError):
            EventLog(tmp_path / "a.jsonl", level="chatty")
        assert not (tmp_path / "a.jsonl").exists()
        log = EventLog(tmp_path / "b.jsonl", clock=FakeClock())
        with pytest.raises(ObservabilityError):
            log.emit("x", level="chatty")

    def test_jsonl_schema_valid(self, tmp_path):
        clock = FakeClock()
        path = tmp_path / "events.jsonl"
        log = EventLog(path, clock=clock)
        log.emit("run.started", generations=5)
        # Appended the moment it is emitted.
        assert len(read_jsonl(path)) == 1
        clock.advance(1.0)
        log.emit("run.finished", level="info", wall_seconds=1.0)
        assert validate_events_file(path) == []
        docs = read_jsonl(path)
        assert docs[1]["t_s"] > docs[0]["t_s"]
        assert docs[0]["fields"] == {"generations": 5}


class TestRunContext:
    def test_null_context_is_inert(self):
        assert not NULL_CONTEXT.enabled
        with NULL_CONTEXT.span("anything") as span:
            span.set(ignored=True)
        NULL_CONTEXT.record_span("x", 1.0)
        NULL_CONTEXT.event("x")
        assert NULL_CONTEXT.counter("x") is None
        assert NULL_CONTEXT.flush() is None
        assert NULL_CONTEXT.tracer is None and NULL_CONTEXT.obs_dir is None
        assert NULL_CONTEXT.bind(extra=1) is NULL_CONTEXT
        assert RunContext.disabled() is NULL_CONTEXT

    def test_create_validates_level(self, tmp_path):
        with pytest.raises(ObservabilityError):
            RunContext.create(tmp_path / "obs", level="loud")
        assert not (tmp_path / "obs").exists()

    def test_bind_shares_channels_merges_fields(self, tmp_path):
        obs = RunContext.create(tmp_path / "obs", dataset="ds1")
        bound = obs.bind(label="random")
        assert bound.tracer is obs.tracer
        assert bound.metrics is obs.metrics
        assert bound.events is obs.events
        assert obs.fields == {"dataset": "ds1"}
        bound.event("sampled", generation=2)
        assert read_jsonl(obs.obs_dir / "events.jsonl")[0]["fields"] == {
            "dataset": "ds1", "label": "random", "generation": 2,
        }

    def test_debug_property(self, tmp_path):
        assert RunContext.create(tmp_path / "a", level="debug").debug
        assert not RunContext.create(tmp_path / "b", level="info").debug
        assert not NULL_CONTEXT.debug

    def test_flush_writes_all_artifacts(self, tmp_path):
        obs = RunContext.create(
            obs_dir=tmp_path / "obs", run_id="run-test", dataset="ds1"
        )
        with obs.span("work"):
            pass
        obs.event("run.started")
        obs.counter("things_total").inc()
        out = obs.flush()
        assert out == tmp_path / "obs"
        for name in ("trace.jsonl", "events.jsonl", "metrics.json",
                     "metrics.prom", "meta.json"):
            assert (out / name).exists(), name
        meta = json.loads((out / "meta.json").read_text())
        assert meta["format"] == OBS_FORMAT
        assert meta["run_id"] == "run-test"
        check_run_dir(out)
        # Idempotent: a second flush rewrites the snapshot, fuller.
        obs.counter("things_total").inc()
        obs.flush()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["things_total"]["value"] == 2
        assert len(read_jsonl(out / "trace.jsonl")) == 1

    def test_create_streams_without_a_flush(self, tmp_path):
        """The directory is schema-valid from creation on, and every
        finished tree, its metrics, and every event reach disk with no
        ``flush()``."""
        obs = RunContext.create(tmp_path / "obs", run_id="live")
        assert validate_run_dir(obs.obs_dir) == []
        assert sorted(p.name for p in obs.obs_dir.iterdir()) == [
            "events.jsonl", "meta.json", "metrics.json", "metrics.prom",
            "trace.jsonl",
        ]
        obs.event("run.started")
        with obs.span("window"):
            obs.counter("windows_total").inc()
            obs.record_span("step", 0.01)
        data = load_run_dir(obs.obs_dir)
        assert [s["name"] for s in data["spans"]] == ["step", "window"]
        assert [e["event"] for e in data["events"]] == ["run.started"]
        assert data["metrics"]["windows_total"]["value"] == 1
        assert validate_run_dir(obs.obs_dir) == []

    def test_channels_share_one_epoch(self, tmp_path):
        obs = RunContext.create(tmp_path / "obs")
        meta = json.loads((obs.obs_dir / "meta.json").read_text())
        assert obs.tracer.epoch_s == meta["clock"]["monotonic_s"]
        assert obs.events.epoch_s == obs.tracer.epoch_s
        with obs.span("s"):
            obs.event("inside")
        span = read_jsonl(obs.obs_dir / "trace.jsonl")[0]
        event = read_jsonl(obs.obs_dir / "events.jsonl")[0]
        assert span["start_s"] <= event["t_s"]
        assert event["t_s"] <= span["start_s"] + span["duration_s"]


class TestSchema:
    def _write_run_dir(self, tmp_path):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="r1")
        with obs.span("a"):
            obs.record_span("b", 0.1)
        obs.event("run.started")
        obs.counter("c_total").inc()
        obs.metrics.histogram("h_seconds", buckets=(1.0,)).observe(0.5)
        return obs.flush()

    def test_valid_dir_passes(self, tmp_path):
        out = self._write_run_dir(tmp_path)
        assert validate_run_dir(out) == []

    def test_missing_file_reported(self, tmp_path):
        out = self._write_run_dir(tmp_path)
        (out / "events.jsonl").unlink()
        problems = validate_run_dir(out)
        assert any("missing events.jsonl" in p for p in problems)
        with pytest.raises(ObservabilityError):
            check_run_dir(out)

    def test_corrupt_trace_line_reported(self, tmp_path):
        out = self._write_run_dir(tmp_path)
        with open(out / "trace.jsonl", "a") as fh:
            fh.write("{not json}\n")
        assert any("not valid JSON" in p for p in validate_trace_file(
            out / "trace.jsonl"))

    def test_dangling_parent_and_duplicate_id(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        doc = {"span_id": 1, "parent_id": 99, "name": "x", "start_s": 0.0,
               "duration_s": -1.0, "status": "weird", "attrs": {}}
        path.write_text(
            json.dumps(doc) + "\n" + json.dumps({**doc, "parent_id": None})
            + "\n"
        )
        problems = validate_trace_file(path)
        assert any("duplicate span_id" in p for p in problems)
        assert any("negative duration_s" in p for p in problems)
        assert any("status" in p for p in problems)
        assert any("does not reference" in p for p in problems)

    def test_non_monotone_events_reported(self, tmp_path):
        path = tmp_path / "events.jsonl"
        e = {"t_s": 5.0, "level": "info", "event": "a", "fields": {}}
        path.write_text(
            json.dumps(e) + "\n" + json.dumps({**e, "t_s": 1.0}) + "\n"
        )
        assert any(
            "went backwards" in p for p in validate_events_file(path)
        )

    def test_metrics_problems_reported(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({
            "neg": {"type": "counter", "value": -3},
            "odd": {"type": "thermometer"},
            "hist": {"type": "histogram", "count": 2,
                     "buckets": [{"le": 1.0, "count": 2},
                                 {"le": 2.0, "count": 1}]},
        }))
        problems = validate_metrics_file(path)
        assert any("negative" in p for p in problems)
        assert any("unknown type" in p for p in problems)
        assert any("not cumulative" in p for p in problems)


class TestReport:
    def test_report_renders_stage_breakdown(self, tmp_path):
        obs = RunContext.create(obs_dir=tmp_path / "obs", run_id="r2",
                                dataset="ds1")
        obs.record_span("ga.stage_total.evaluate", 3.0, count=10,
                        aggregate=True)
        obs.record_span("ga.stage_total.selection", 1.0, count=10,
                        aggregate=True)
        obs.event("run.started", generations=10)
        obs.event("retry.scheduled", level="warning", label="random")
        obs.metrics.counter("evaluator_cache_hits_total").inc(30)
        obs.metrics.counter("evaluator_cache_misses_total").inc(70)
        out = obs.flush()
        report = trace_report(out)
        assert "r2" in report
        assert "evaluate" in report and "75.0%" in report
        assert "30 hits / 70 misses (30.0% hit rate)" in report
        assert "retry.scheduled" in report

    def test_stage_totals_aggregation(self):
        spans = [
            {"name": "ga.stage_total.evaluate", "duration_s": 2.0,
             "attrs": {"count": 4}},
            {"name": "ga.stage_total.evaluate", "duration_s": 1.0,
             "attrs": {"count": 2}},
            {"name": "ga.generation", "duration_s": 9.0, "attrs": {}},
        ]
        assert stage_totals(spans) == {"evaluate": (3.0, 6)}

    def test_load_run_dir_errors(self, tmp_path):
        with pytest.raises(ObservabilityError):
            load_run_dir(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(ObservabilityError):
            load_run_dir(tmp_path / "empty")
