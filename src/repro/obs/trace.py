"""Run-scoped tracing: nestable spans streamed to a JSONL file.

A :class:`Tracer` records spans — named, timed regions of one run with
parent/child structure.  Two recording styles cover every call site in
the framework:

* ``with tracer.span("checkpoint.save", label=...):`` — wrap a block;
  the span's duration is measured by the tracer and the span nests
  under whatever span is currently open;
* ``tracer.record("ga.stage.evaluate", seconds, generation=g)`` — the
  caller already measured the duration (the engine's hot loop times its
  stages with two ``perf_counter`` calls regardless of observability);
  the tracer just files the finished span under the open parent.

Persistence has one rule: a finished span waits in :attr:`Tracer.pending`
only while an ancestor is still open.  The moment the open-span stack
empties, the whole finished tree is appended to the trace file in one
``O_APPEND`` write of whole lines.  The file therefore only ever holds
complete trees — a process killed mid-tree loses that tree and nothing
before it — and memory holds at most one tree.

All timestamps are seconds relative to the tracer's epoch, so traces
are machine-relocatable and never consult the wall clock or any RNG —
enabling tracing cannot perturb a seeded run's stochastic streams.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

__all__ = ["Tracer", "append_jsonl", "render_flame"]


def append_jsonl(path: Path, docs: Iterable[dict]) -> None:
    """Append *docs* to *path* as whole JSON lines in one ``O_APPEND``
    write, so concurrent readers never see a torn line."""
    data = "".join(
        json.dumps(doc, allow_nan=False) + "\n" for doc in docs
    ).encode("utf-8")
    fd = os.open(str(path), os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, data)
    finally:
        os.close(fd)


class _OpenSpan:
    """Context manager for one in-flight span (``Tracer.span``)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span_id", "_t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs) -> None:
        """Add attributes known only once the block has run."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_OpenSpan":
        self._span_id = self._tracer._open()
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = self._tracer._clock() - self._t0
        tracer = self._tracer
        tracer._stack.pop()
        tracer._finish(
            self._span_id, self._name, self._t0 - tracer.epoch_s, duration,
            "error" if exc_type is not None else "ok", self._attrs,
        )


class Tracer:
    """Streams one run's spans to *path*, one finished tree at a time.

    *epoch_s* is the clock reading every timestamp is relative to
    (default: the clock at construction); *on_tree* runs after each
    tree is appended.  The file is created empty.  Single-threaded by
    design (one tracer per process, like the engine and evaluator it
    instruments); the open-span stack is plain list push/pop.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        clock: Callable[[], float] = time.perf_counter,
        epoch_s: Optional[float] = None,
        on_tree: Optional[Callable[[], None]] = None,
    ) -> None:
        self.path = Path(path)
        self._clock = clock
        self.epoch_s = clock() if epoch_s is None else epoch_s
        self._on_tree = on_tree
        #: Finished spans of the tree still open (span documents).
        self.pending: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 1
        self.path.write_bytes(b"")

    def span(self, name: str, **attrs) -> _OpenSpan:
        """Context manager: measure a block as one span."""
        return _OpenSpan(self, name, attrs)

    def record(self, name: str, seconds: float, **attrs) -> None:
        """File an externally timed span ending now, under the open parent."""
        end = self._clock()
        span_id = self._next_id
        self._next_id += 1
        self._finish(
            span_id, name, (end - seconds) - self.epoch_s, seconds, "ok",
            attrs,
        )

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _finish(
        self,
        span_id: int,
        name: str,
        start_s: float,
        duration: float,
        status: str,
        attrs: dict,
    ) -> None:
        self.pending.append({
            "span_id": span_id,
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name,
            "start_s": start_s,
            "duration_s": duration,
            "status": status,
            "attrs": attrs,
        })
        if self._stack:
            return
        append_jsonl(self.path, self.pending)
        self.pending = []
        if self._on_tree is not None:
            self._on_tree()


def render_flame(span_docs: list[dict], width: int = 60) -> str:
    """Render span documents as a text flame summary.

    Spans are grouped by name, sorted by total time descending, each
    with a bar proportional to its share of the largest total.
    """
    agg: dict[str, tuple[float, int]] = {}
    for doc in span_docs:
        total, count = agg.get(doc["name"], (0.0, 0))
        agg[doc["name"]] = (total + doc["duration_s"], count + 1)
    if not agg:
        return "(no spans recorded)"
    ordered = sorted(agg.items(), key=lambda kv: (-kv[1][0], kv[0]))
    top = ordered[0][1][0] or 1.0
    name_w = max(len(name) for name, _ in ordered)
    lines = []
    for name, (total, count) in ordered:
        bar = "#" * max(1, int(round(width * total / top)))
        lines.append(
            f"{name.ljust(name_w)}  {total * 1000.0:10.3f} ms  "
            f"x{count:<6d} {bar}"
        )
    return "\n".join(lines)
