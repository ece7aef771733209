"""Leveled structured event log streamed to a JSONL file.

Events are the "what happened" channel (run started, retry scheduled,
fault injected, checkpoint committed) — discrete facts with structured
fields, complementing spans (where time went) and metrics (how much of
everything).  Each event is appended as one whole line the moment it is
emitted and carries:

* ``t_s`` — seconds since the log's epoch (monotonic, not wall clock,
  for the same determinism-safety reasons as the tracer);
* ``level`` — ``debug`` / ``info`` / ``warning`` / ``error``; events
  below the configured threshold are dropped at emit time;
* ``event`` — a dotted name (``run.started``, ``retry.scheduled``);
* ``fields`` — the event's structured payload, merged with the bound
  run-scoped fields of the emitting :class:`~repro.obs.context.RunContext`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Optional, Union

from repro.errors import ObservabilityError
from repro.obs.trace import append_jsonl

__all__ = ["LEVELS", "EventLog"]

#: Level name → numeric severity (higher = more severe).
LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def _severity(level: str) -> int:
    if level not in LEVELS:
        raise ObservabilityError(
            f"unknown event level {level!r}; have {sorted(LEVELS)}"
        )
    return LEVELS[level]


class EventLog:
    """Appends one run's events to *path* (created empty) as emitted."""

    def __init__(
        self,
        path: Union[str, Path],
        level: str = "info",
        *,
        clock: Callable[[], float] = time.perf_counter,
        epoch_s: Optional[float] = None,
    ) -> None:
        self._threshold = _severity(level)
        self.level = level
        self.path = Path(path)
        self._clock = clock
        self.epoch_s = clock() if epoch_s is None else epoch_s
        self.path.write_bytes(b"")

    def emit(self, event: str, level: str = "info", **fields) -> None:
        """Append *event* unless *level* is below the configured threshold."""
        if _severity(level) < self._threshold:
            return
        append_jsonl(self.path, [{
            "t_s": self._clock() - self.epoch_s,
            "level": level,
            "event": event,
            "fields": fields,
        }])
