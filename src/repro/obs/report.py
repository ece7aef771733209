"""Render a recorded observability directory as a human summary.

Backs the ``repro-analyze trace <run-dir>`` CLI: loads the JSONL/JSON
artifacts a :class:`~repro.obs.context.RunContext` streamed and
renders

* the run header (run id, level, bound identity fields);
* the GA stage/time breakdown (from the ``ga.stage_total.*`` aggregate
  spans the engine emits at the end of every run — these reconcile with
  :class:`~repro.core.telemetry.StageTimings` by construction);
* the slowest individual spans;
* a text flame summary (share of time per span name);
* evaluator cache effectiveness and other headline metrics;
* the retry/fault timeline (``retry.scheduled`` / ``population.failed``
  / ``fault.injected`` / ``checkpoint.committed`` events).

Merged multi-process traces (the ``merged/`` directory the collector
writes for parallel runs) are first-class: pointing the CLI at the
parent observability directory auto-descends into ``merged/`` when it
exists, spans are stable-sorted by ``(start, worker, span id)`` before
any ranking, and a per-worker attribution block breaks the ``--top``
budget down by executing worker.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.errors import ObservabilityError
from repro.obs.trace import render_flame

__all__ = ["load_run_dir", "resolve_run_dir", "trace_report"]

#: Aggregate-stage span prefix (engine-emitted, one per stage per run).
STAGE_TOTAL_PREFIX = "ga.stage_total."

#: Event names worth a line on the timeline.
_TIMELINE_EVENTS = (
    "run.started",
    "run.resumed",
    "run.finished",
    "retry.scheduled",
    "population.failed",
    "fault.injected",
    "checkpoint.committed",
)


def resolve_run_dir(run_dir: Union[str, Path]) -> Path:
    """*run_dir*, descended into its ``merged/`` view when one exists.

    A parallel run's observability directory holds the coordinator-only
    trace plus the collector's ``merged/`` (coordinator + every worker,
    causally linked); the merged view is strictly more complete, so
    report/validate consumers prefer it automatically.  Pass the
    ``merged/`` or coordinator path explicitly to pin either view.
    """
    run_dir = Path(run_dir)
    merged = run_dir / "merged"
    if run_dir.name != "merged" and (merged / "trace.jsonl").exists():
        return merged
    return run_dir


def _span_sort_key(span: dict) -> tuple:
    """Stable multi-process ordering: (start, worker, span id)."""
    return (
        float(span.get("start_s", 0.0)),
        str(span.get("attrs", {}).get("worker", "")),
        int(span.get("span_id", 0)),
    )


def load_run_dir(run_dir: Union[str, Path]) -> dict:
    """Load ``meta`` / ``spans`` / ``events`` / ``metrics`` from disk."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ObservabilityError(
            f"{run_dir} is not an observability directory"
        )
    try:
        meta = json.loads((run_dir / "meta.json").read_text())
        spans = [
            json.loads(line)
            for line in (run_dir / "trace.jsonl").read_text().splitlines()
            if line.strip()
        ]
        events = [
            json.loads(line)
            for line in (run_dir / "events.jsonl").read_text().splitlines()
            if line.strip()
        ]
        metrics = json.loads((run_dir / "metrics.json").read_text())
    except FileNotFoundError as exc:
        raise ObservabilityError(
            f"{run_dir} is missing observability artifacts: {exc}"
        ) from exc
    except ValueError as exc:
        raise ObservabilityError(
            f"{run_dir} holds undecodable observability artifacts: {exc}"
        ) from exc
    return {"meta": meta, "spans": spans, "events": events, "metrics": metrics}


def stage_totals(spans: list[dict]) -> dict[str, tuple[float, int]]:
    """``{stage: (total seconds, generation count)}`` from aggregate spans."""
    totals: dict[str, tuple[float, int]] = {}
    for span in spans:
        name = span.get("name", "")
        if name.startswith(STAGE_TOTAL_PREFIX):
            stage = name[len(STAGE_TOTAL_PREFIX):]
            prev_s, prev_n = totals.get(stage, (0.0, 0))
            totals[stage] = (
                prev_s + float(span.get("duration_s", 0.0)),
                prev_n + int(span.get("attrs", {}).get("count", 0)),
            )
    return dict(sorted(totals.items()))


def _metric_value(metrics: dict, name: str) -> Optional[float]:
    snap = metrics.get(name)
    if isinstance(snap, dict) and isinstance(snap.get("value"), (int, float)):
        return float(snap["value"])
    return None


def _worker_attribution(spans: list[dict], top: int) -> list[str]:
    """Per-worker ``--top`` breakdown for merged multi-process traces."""
    by_worker: dict[str, list[dict]] = {}
    for span in spans:
        worker = span.get("attrs", {}).get("worker")
        if worker is not None:
            by_worker.setdefault(str(worker), []).append(span)
    if not by_worker:
        return []
    lines = ["", "-- per-worker attribution --"]
    for worker in sorted(by_worker):
        worker_spans = by_worker[worker]
        cells = [s for s in worker_spans if s.get("name") == "cell.run"]
        busy = sum(float(s.get("duration_s", 0.0)) for s in cells)
        lines.append(
            f"worker {worker}: {len(cells)} cells, "
            f"{busy:.3f} s cell time, {len(worker_spans)} spans"
        )
        slowest = sorted(
            worker_spans, key=lambda s: -float(s.get("duration_s", 0.0))
        )[:max(1, top // max(1, len(by_worker)))]
        for span in slowest:
            lines.append(
                f"  {float(span.get('duration_s', 0.0)) * 1000.0:10.3f} ms"
                f"  {span.get('name', '?')}"
            )
    return lines


def trace_report(
    run_dir: Union[str, Path], top: int = 10, width: int = 48
) -> str:
    """The full text summary of one recorded run."""
    resolved = resolve_run_dir(run_dir)
    data = load_run_dir(resolved)
    meta, spans, events, metrics = (
        data["meta"], data["spans"], data["events"], data["metrics"],
    )
    spans = sorted(spans, key=_span_sort_key)
    blocks: list[str] = []

    fields = ", ".join(
        f"{k}={v}" for k, v in sorted(meta.get("fields", {}).items())
    )
    blocks.append(
        f"=== trace summary: {meta.get('run_id', '?')} "
        f"(level {meta.get('level', '?')}"
        + (f"; {fields}" if fields else "") + ") ==="
    )
    if resolved != Path(run_dir):
        blocks.append(f"(merged multi-process view: {resolved})")
    blocks.append(
        f"{len(spans)} spans, {len(events)} events, "
        f"{len(metrics)} metrics"
    )

    totals = stage_totals(spans)
    if totals:
        grand = sum(t for t, _ in totals.values()) or 1.0
        blocks.append("")
        blocks.append("-- GA stage breakdown (aggregate spans) --")
        stage_w = max(len(s) for s in totals)
        for stage, (total, count) in sorted(
            totals.items(), key=lambda kv: -kv[1][0]
        ):
            mean_ms = total / count * 1000.0 if count else 0.0
            blocks.append(
                f"{stage.ljust(stage_w)}  {total:10.4f} s  "
                f"{100.0 * total / grand:5.1f}%  "
                f"x{count:<7d} mean {mean_ms:8.3f} ms"
            )

    if spans:
        blocks.append("")
        blocks.append(f"-- slowest {top} spans --")
        slowest = sorted(
            spans, key=lambda s: -float(s.get("duration_s", 0.0))
        )[:top]
        for span in slowest:
            attrs = span.get("attrs", {})
            attr_text = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            blocks.append(
                f"{float(span['duration_s']) * 1000.0:10.3f} ms  "
                f"{span['name']}" + (f"  ({attr_text})" if attr_text else "")
            )
        blocks.append("")
        blocks.append("-- flame summary (total time per span name) --")
        blocks.append(render_flame(spans, width=width))
        blocks.extend(_worker_attribution(spans, top))

    hits = _metric_value(metrics, "evaluator_cache_hits_total")
    misses = _metric_value(metrics, "evaluator_cache_misses_total")
    headline: list[str] = []
    if hits is not None and misses is not None and (hits + misses) > 0:
        headline.append(
            f"evaluator cache: {hits:.0f} hits / {misses:.0f} misses "
            f"({100.0 * hits / (hits + misses):.1f}% hit rate)"
        )
    for name, label, scale, unit in (
        ("evaluator_chromosomes_total", "chromosomes evaluated", 1.0, ""),
        ("evaluator_cache_evictions_total", "cache evictions", 1.0, ""),
        ("runner_retries_total", "retries", 1.0, ""),
        ("faults_injected_total", "faults injected", 1.0, ""),
        ("checkpoint_bytes_written_total", "checkpoint bytes", 1e-6, " MB"),
        ("process_max_rss_bytes", "peak RSS", 1e-6, " MB"),
    ):
        value = _metric_value(metrics, name)
        if value is not None and value > 0:
            headline.append(f"{label}: {value * scale:.6g}{unit}")
    if headline:
        blocks.append("")
        blocks.append("-- headline metrics --")
        blocks.extend(headline)

    timeline = [
        e for e in events if e.get("event") in _TIMELINE_EVENTS
    ]
    if timeline:
        blocks.append("")
        blocks.append("-- event timeline (retries, faults, checkpoints) --")
        shown = 0
        checkpoint_count = sum(
            1 for e in timeline if e["event"] == "checkpoint.committed"
        )
        for event in timeline:
            if event["event"] == "checkpoint.committed" and checkpoint_count > 5:
                continue  # summarized below instead of flooding the report
            fields = event.get("fields", {})
            field_text = ", ".join(
                f"{k}={v}" for k, v in sorted(fields.items())
            )
            blocks.append(
                f"t={float(event.get('t_s', 0.0)):9.3f}s  "
                f"[{event.get('level', '?'):7s}] {event['event']}"
                + (f"  {field_text}" if field_text else "")
            )
            shown += 1
        if checkpoint_count > 5:
            blocks.append(
                f"({checkpoint_count} checkpoint.committed events collapsed)"
            )

    return "\n".join(blocks)
