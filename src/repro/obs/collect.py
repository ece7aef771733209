"""Merge per-worker telemetry into one causally-linked trace.

A parallel run with worker telemetry enabled leaves this layout behind::

    <obs_dir>/                  coordinator artifacts (repro.obs/1)
    <obs_dir>/workers/worker-<pid>-<token>/   one sink per pool worker
    <obs_dir>/merged/           <- this module's output

:func:`merge_obs_dir` folds the worker directories and the coordinator
trace into one ``repro.obs/1`` directory that the existing schema
validators, ``repro-analyze trace``, and the grid dashboard all consume
unchanged:

* **Causal linking** — worker span ids are re-based into one id space
  (per-file offsets, so parent references keep resolving), every worker
  span/event gains a ``worker`` attribute, and each worker's top-level
  ``cell.run`` spans are re-parented under the coordinator's
  ``grid.run`` span — the merged trace is one tree from grid to cell to
  GA stage, whichever process recorded each piece.
* **Clock alignment** — every process records a ``(monotonic, unix)``
  anchor pair in its ``meta.json``.  Worker timestamps are shifted by
  the difference of *monotonic* anchors (``perf_counter`` reads
  ``CLOCK_MONOTONIC``, which is system-wide on Linux, so same-host
  skew cancels exactly); the unix anchors are the documented fallback
  for traces recorded on different hosts.
* **Metric aggregation** — counters and histograms sum across
  processes (histograms bucket-wise, de-cumulated first), gauges merge
  by maximum (they are high-water readings: peak RSS, front size).
  Worker-scoped series (``worker_*``) are additionally re-emitted with
  a ``worker="<pid>"`` label so per-worker throughput survives the
  aggregation — including ``worker_heartbeat_dropped_total``, the
  heartbeat-loss counter that used to vanish in a bare ``except``.

Merging is a pure read-transform-write pass: re-running it (every
:meth:`RunContext.flush` does) recomputes ``merged/`` from scratch.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.errors import ObservabilityError
from repro.obs.context import OBS_FORMAT
from repro.obs.distributed import (
    CELL_SPAN_NAME,
    GRID_SPAN_NAME,
    WORKERS_DIR_NAME,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "MERGED_DIR_NAME",
    "GRID_SPAN_NAME",
    "CELL_SPAN_NAME",
    "merge_obs_dir",
    "worker_dirs",
]

#: Sub-directory of an observability directory holding the merged view.
MERGED_DIR_NAME = "merged"


def worker_dirs(obs_dir: Union[str, Path]) -> list[Path]:
    """The per-worker sink directories under *obs_dir*, sorted by name."""
    root = Path(obs_dir) / WORKERS_DIR_NAME
    if not root.is_dir():
        return []
    return sorted(
        p for p in root.iterdir()
        if p.is_dir() and (p / "meta.json").exists()
    )


def _read_jsonl(path: Path) -> tuple[list[dict], int]:
    """Parse a JSONL file, skipping damaged lines (crash-tolerant read)."""
    docs: list[dict] = []
    damaged = 0
    if not path.exists():
        return docs, damaged
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            damaged += 1
            continue
        if isinstance(doc, dict):
            docs.append(doc)
        else:
            damaged += 1
    return docs, damaged


def _load_dir(run_dir: Path) -> dict:
    meta_path = run_dir / "meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except (FileNotFoundError, ValueError) as exc:
        raise ObservabilityError(
            f"{run_dir} is not a readable observability directory: {exc}"
        ) from exc
    spans, span_damage = _read_jsonl(run_dir / "trace.jsonl")
    events, event_damage = _read_jsonl(run_dir / "events.jsonl")
    try:
        metrics = json.loads((run_dir / "metrics.json").read_text())
    except (FileNotFoundError, ValueError):
        metrics = {}
    return {
        "meta": meta,
        "spans": spans,
        "events": events,
        "metrics": metrics if isinstance(metrics, dict) else {},
        "damaged": span_damage + event_damage,
    }


def _clock_delta(worker_meta: dict, coord_meta: dict) -> float:
    """Seconds to add to worker timestamps to land on the coordinator
    timeline (monotonic anchors preferred, unix anchors the fallback)."""
    w = worker_meta.get("clock") or {}
    c = coord_meta.get("clock") or {}
    for key in ("monotonic_s", "unix_s"):
        if isinstance(w.get(key), (int, float)) and isinstance(
            c.get(key), (int, float)
        ):
            return float(w[key]) - float(c[key])
    return 0.0


def _fold_snapshot(
    registry: MetricsRegistry, snapshot: dict, labels: Optional[dict] = None
) -> None:
    """Fold one ``metrics.json`` snapshot into *registry* (sum/max)."""
    for key, snap in snapshot.items():
        if not isinstance(snap, dict):
            continue
        name = key.split("{", 1)[0]
        merged_labels = dict(snap.get("labels") or {})
        if labels:
            merged_labels.update(labels)
        kind = snap.get("type")
        help_ = snap.get("help", "")
        unit = snap.get("unit", "")
        if kind == "counter":
            registry.counter(
                name, help=help_, unit=unit, labels=merged_labels or None
            ).inc(float(snap.get("value", 0.0)))
        elif kind == "gauge":
            gauge = registry.gauge(
                name, help=help_, unit=unit, labels=merged_labels or None
            )
            gauge.set(max(gauge.value, float(snap.get("value", 0.0))))
        elif kind == "histogram":
            buckets = snap.get("buckets") or []
            bounds = tuple(float(b.get("le", 0.0)) for b in buckets)
            if not bounds:
                continue
            hist = registry.histogram(
                name, buckets=bounds, help=help_, unit=unit,
                labels=merged_labels or None,
            )
            if hist.buckets != bounds:
                # Conflicting bucket layouts cannot be summed bucket-wise;
                # fold into sum/count only (the overflow bucket).
                hist.counts[-1] += int(snap.get("count", 0))
            else:
                previous = 0
                for i, bucket in enumerate(buckets):
                    cumulative = int(bucket.get("count", 0))
                    hist.counts[i] += cumulative - previous
                    previous = cumulative
                hist.counts[-1] += int(snap.get("count", 0)) - previous
            hist.sum += float(snap.get("sum", 0.0))
            hist.count += int(snap.get("count", 0))


def merge_obs_dir(
    obs_dir: Union[str, Path], out: Optional[Union[str, Path]] = None
) -> Optional[Path]:
    """Merge *obs_dir*'s worker sinks with its coordinator trace.

    Writes the merged ``repro.obs/1`` directory (default
    ``<obs_dir>/merged/``) and returns its path; returns ``None`` when
    there are no worker directories to merge (serial or dark run).
    Raises :class:`~repro.errors.ObservabilityError` when *obs_dir*
    itself is not an observability directory.
    """
    obs_dir = Path(obs_dir)
    workers = worker_dirs(obs_dir)
    if not workers:
        return None
    out = obs_dir / MERGED_DIR_NAME if out is None else Path(out)
    coord = _load_dir(obs_dir)

    spans: list[dict] = [dict(span) for span in coord["spans"]]
    events: list[dict] = [dict(event) for event in coord["events"]]
    next_offset = max(
        (int(s["span_id"]) for s in spans if isinstance(s.get("span_id"), int)),
        default=0,
    )
    grid_span_id: Optional[int] = None
    for span in spans:
        if span.get("name") == GRID_SPAN_NAME:
            grid_span_id = span.get("span_id")

    registry = MetricsRegistry()
    _fold_snapshot(registry, coord["metrics"])

    damaged = coord["damaged"]
    worker_names: list[str] = []
    for worker_dir in workers:
        data = _load_dir(worker_dir)
        damaged += data["damaged"]
        worker_names.append(worker_dir.name)
        pid = data["meta"].get("fields", {}).get("worker")
        delta = _clock_delta(data["meta"], coord["meta"])
        offset = next_offset
        max_id = 0
        for doc in data["spans"]:
            span = dict(doc)
            span_id = span.get("span_id")
            if isinstance(span_id, int):
                max_id = max(max_id, span_id)
                span["span_id"] = span_id + offset
            parent = span.get("parent_id")
            if isinstance(parent, int):
                span["parent_id"] = parent + offset
            elif span.get("name") == CELL_SPAN_NAME and grid_span_id is not None:
                span["parent_id"] = grid_span_id
            if isinstance(span.get("start_s"), (int, float)):
                span["start_s"] = float(span["start_s"]) + delta
            attrs = dict(span.get("attrs") or {})
            if pid is not None:
                attrs.setdefault("worker", pid)
            span["attrs"] = attrs
            spans.append(span)
        next_offset = offset + max_id
        for doc in data["events"]:
            event = dict(doc)
            if isinstance(event.get("t_s"), (int, float)):
                event["t_s"] = float(event["t_s"]) + delta
            fields = dict(event.get("fields") or {})
            if pid is not None:
                fields.setdefault("worker", pid)
            event["fields"] = fields
            events.append(event)
        _fold_snapshot(registry, data["metrics"])
        # Worker-scoped series keep a per-worker labeled copy so the
        # aggregate does not erase the per-worker breakdown.
        if pid is not None:
            _fold_snapshot(
                registry,
                {
                    key: snap
                    for key, snap in data["metrics"].items()
                    if key.split("{", 1)[0].startswith("worker_")
                },
                labels={"worker": str(pid)},
            )

    # The stable multi-process ordering: (start, worker, span id) for
    # spans, (time, worker) for events — the events file additionally
    # *must* be time-sorted for the schema validator's monotonicity
    # check to hold across processes.
    spans.sort(
        key=lambda s: (
            float(s.get("start_s", 0.0)),
            str(s.get("attrs", {}).get("worker", "")),
            int(s.get("span_id", 0)),
        )
    )
    events.sort(
        key=lambda e: (
            float(e.get("t_s", 0.0)),
            str(e.get("fields", {}).get("worker", "")),
        )
    )

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.jsonl", "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, allow_nan=False) + "\n")
    with open(out / "events.jsonl", "w") as fh:
        for event in events:
            fh.write(json.dumps(event, allow_nan=False) + "\n")
    (out / "metrics.json").write_text(
        json.dumps(registry.as_dict(), indent=2, allow_nan=False) + "\n"
    )
    (out / "metrics.prom").write_text(registry.to_prometheus_text())
    meta = {
        "format": OBS_FORMAT,
        "run_id": coord["meta"].get("run_id", "merged"),
        "level": coord["meta"].get("level", "info"),
        "fields": {
            **coord["meta"].get("fields", {}),
            "merged": True,
            "workers": len(worker_names),
        },
        "spans": len(spans),
        "events": len(events),
        "clock": coord["meta"].get("clock", {}),
        "worker_dirs": worker_names,
        "damaged_lines": damaged,
    }
    (out / "meta.json").write_text(
        json.dumps(meta, indent=2, allow_nan=False) + "\n"
    )
    return out
