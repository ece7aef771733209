"""Schema validation for recorded observability artifacts.

Hand-rolled (dependency-free) structural checks over the files a
:class:`~repro.obs.context.RunContext` streams to its directory.  CI runs
these against a tiny instrumented run so a drive-by change to a span or
event field breaks loudly instead of silently producing trace files the
``repro-analyze trace`` CLI can no longer read.

Every validator returns a list of human-readable problems (empty =
valid); :func:`check_run_dir` raises
:class:`~repro.errors.ObservabilityError` with all problems joined.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import ObservabilityError
from repro.obs.events import LEVELS

__all__ = [
    "validate_trace_file",
    "validate_events_file",
    "validate_metrics_file",
    "validate_meta_file",
    "validate_run_dir",
    "check_run_dir",
]

_SPAN_KEYS = {
    "span_id": int,
    "parent_id": (int, type(None)),
    "name": str,
    "start_s": (int, float),
    "duration_s": (int, float),
    "status": str,
    "attrs": dict,
}
_EVENT_KEYS = {
    "t_s": (int, float),
    "level": str,
    "event": str,
    "fields": dict,
}
_METRIC_TYPES = ("counter", "gauge", "histogram")


def _check_doc(doc: object, spec: dict, where: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"{where}: expected an object, got {type(doc).__name__}"]
    for key, types in spec.items():
        if key not in doc:
            problems.append(f"{where}: missing key {key!r}")
        elif not isinstance(doc[key], types):
            problems.append(
                f"{where}: key {key!r} has type "
                f"{type(doc[key]).__name__}, expected {types}"
            )
    for key in doc:
        if key not in spec:
            problems.append(f"{where}: unexpected key {key!r}")
    return problems


def _iter_jsonl(path: Path) -> tuple[list[tuple[int, object]], list[str]]:
    docs: list[tuple[int, object]] = []
    problems: list[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            docs.append((lineno, json.loads(line)))
        except ValueError as exc:
            problems.append(f"{path.name}:{lineno}: not valid JSON ({exc})")
    return docs, problems


def validate_trace_file(path: Union[str, Path]) -> list[str]:
    """Problems with a ``trace.jsonl`` file (empty list = valid)."""
    path = Path(path)
    docs, problems = _iter_jsonl(path)
    seen_ids: set[int] = set()
    for lineno, doc in docs:
        where = f"{path.name}:{lineno}"
        problems.extend(_check_doc(doc, _SPAN_KEYS, where))
        if not isinstance(doc, dict):
            continue
        span_id = doc.get("span_id")
        if isinstance(span_id, int):
            if span_id in seen_ids:
                problems.append(f"{where}: duplicate span_id {span_id}")
            seen_ids.add(span_id)
        if isinstance(doc.get("duration_s"), (int, float)) and doc["duration_s"] < 0:
            problems.append(f"{where}: negative duration_s")
        if doc.get("status") not in (None, "ok", "error"):
            problems.append(f"{where}: status must be 'ok' or 'error'")
    # Parent references must resolve within the file.
    for lineno, doc in docs:
        if isinstance(doc, dict) and isinstance(doc.get("parent_id"), int):
            if doc["parent_id"] not in seen_ids:
                problems.append(
                    f"{path.name}:{lineno}: parent_id {doc['parent_id']} "
                    "does not reference any span in this trace"
                )
    return problems


def validate_events_file(path: Union[str, Path]) -> list[str]:
    """Problems with an ``events.jsonl`` file (empty list = valid)."""
    path = Path(path)
    docs, problems = _iter_jsonl(path)
    last_t = None
    for lineno, doc in docs:
        where = f"{path.name}:{lineno}"
        problems.extend(_check_doc(doc, _EVENT_KEYS, where))
        if not isinstance(doc, dict):
            continue
        if isinstance(doc.get("level"), str) and doc["level"] not in LEVELS:
            problems.append(f"{where}: unknown level {doc['level']!r}")
        t = doc.get("t_s")
        if isinstance(t, (int, float)):
            if last_t is not None and t < last_t:
                problems.append(f"{where}: t_s went backwards")
            last_t = t
    return problems


def validate_metrics_file(path: Union[str, Path]) -> list[str]:
    """Problems with a ``metrics.json`` snapshot (empty list = valid)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        return [f"{path.name}: not valid JSON ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path.name}: expected an object of metrics"]
    problems: list[str] = []
    for name, snap in doc.items():
        where = f"{path.name}: metric {name!r}"
        if not isinstance(snap, dict):
            problems.append(f"{where}: expected an object")
            continue
        kind = snap.get("type")
        if kind not in _METRIC_TYPES:
            problems.append(f"{where}: unknown type {kind!r}")
            continue
        if kind in ("counter", "gauge"):
            if not isinstance(snap.get("value"), (int, float)):
                problems.append(f"{where}: missing numeric 'value'")
            if kind == "counter" and isinstance(snap.get("value"), (int, float)) \
                    and snap["value"] < 0:
                problems.append(f"{where}: counter value is negative")
        else:
            buckets = snap.get("buckets")
            if not isinstance(buckets, list):
                problems.append(f"{where}: missing 'buckets' list")
            else:
                last = -1
                for bucket in buckets:
                    if (
                        not isinstance(bucket, dict)
                        or not isinstance(bucket.get("le"), (int, float))
                        or not isinstance(bucket.get("count"), int)
                    ):
                        problems.append(f"{where}: malformed bucket {bucket!r}")
                        break
                    if bucket["count"] < last:
                        problems.append(
                            f"{where}: bucket counts are not cumulative"
                        )
                        break
                    last = bucket["count"]
            if not isinstance(snap.get("count"), int):
                problems.append(f"{where}: missing integer 'count'")
    return problems


def validate_meta_file(path: Union[str, Path]) -> list[str]:
    """Problems with a ``meta.json`` file (empty list = valid)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        return [f"{path.name}: not valid JSON ({exc})"]
    if not isinstance(doc, dict):
        return [f"{path.name}: expected an object"]
    problems: list[str] = []
    from repro.obs.context import OBS_FORMAT

    if doc.get("format") != OBS_FORMAT:
        problems.append(
            f"{path.name}: format {doc.get('format')!r} != {OBS_FORMAT!r}"
        )
    if not isinstance(doc.get("run_id"), str) or not doc.get("run_id"):
        problems.append(f"{path.name}: missing run_id")
    if doc.get("level") not in LEVELS:
        problems.append(f"{path.name}: unknown level {doc.get('level')!r}")
    return problems


def validate_run_dir(run_dir: Union[str, Path]) -> list[str]:
    """All problems across an observability directory."""
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        return [f"{run_dir} is not a directory"]
    problems: list[str] = []
    checks = {
        "meta.json": validate_meta_file,
        "trace.jsonl": validate_trace_file,
        "events.jsonl": validate_events_file,
        "metrics.json": validate_metrics_file,
    }
    for name, validator in checks.items():
        target = run_dir / name
        if not target.exists():
            problems.append(f"missing {name}")
        else:
            problems.extend(validator(target))
    return problems


def check_run_dir(run_dir: Union[str, Path]) -> None:
    """Raise :class:`~repro.errors.ObservabilityError` on any problem."""
    problems = validate_run_dir(run_dir)
    if problems:
        raise ObservabilityError(
            f"observability directory {run_dir} failed validation:\n  "
            + "\n  ".join(problems)
        )
