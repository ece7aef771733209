"""A registry of counters, gauges, and histograms.

Instruments are registered (get-or-create) by name; re-registering a
name under a different instrument type raises
:class:`~repro.errors.ObservabilityError` — silent type drift would
make dashboards lie.  Exports are deterministic (name-sorted) so
metrics snapshots diff cleanly across runs:

* :meth:`MetricsRegistry.as_dict` — a JSON-ready snapshot;
* :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples, histograms with
  cumulative ``le`` buckets), so a scrape endpoint or a push gateway
  can serve paper-scale campaign metrics without new dependencies.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Optional, Sequence, Union

from repro.errors import ObservabilityError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "series_key"]

#: Legal Prometheus metric names (the exposition-format grammar).
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Legal Prometheus label names (no colons, unlike metric names).
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    """Escape a label value for the Prometheus text format.

    Backslash, double quote, and newline are the three characters the
    exposition format requires escaping inside quoted label values.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(
            f"invalid metric name {name!r}: must match "
            "[a-zA-Z_:][a-zA-Z0-9_:]* (Prometheus exposition grammar)"
        )
    return name


def _normalize_labels(
    labels: Optional[Mapping[str, object]],
) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    pairs = []
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ObservabilityError(
                f"invalid label name {key!r}: must match "
                "[a-zA-Z_][a-zA-Z0-9_]*"
            )
        pairs.append((key, str(labels[key])))
    return tuple(pairs)


def _render_labels(pairs: Sequence[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(v)}"' for k, v in pairs
    )
    return "{" + inner + "}"


def series_key(name: str, labels: Optional[Mapping[str, object]] = None) -> str:
    """The canonical series identity: ``name`` or ``name{k="v",...}``.

    Label pairs are name-sorted and values escaped exactly as the
    Prometheus text export renders them, so JSON snapshot keys and
    ``.prom`` sample lines agree byte-for-byte.
    """
    return _validate_name(name) + _render_labels(_normalize_labels(labels))

#: Default histogram bucket upper bounds (seconds-flavoured: from 100 µs
#: to ~100 s in half-decade steps — covers fsync latencies through
#: full-generation times).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "unit", "labels", "value")

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Sequence[tuple[str, str]] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = tuple(labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the total."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        self.value += amount

    def snapshot(self) -> dict:
        """JSON-ready state."""
        snap = {"type": "counter", "help": self.help, "unit": self.unit,
                "value": self.value}
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class Gauge:
    """A value that goes up and down (front size, RSS, hit rate)."""

    __slots__ = ("name", "help", "unit", "labels", "value")

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Sequence[tuple[str, str]] = (),
    ) -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = tuple(labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the current value by *amount* (may be negative)."""
        self.value += amount

    def snapshot(self) -> dict:
        """JSON-ready state."""
        snap = {"type": "gauge", "help": self.help, "unit": self.unit,
                "value": self.value}
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class Histogram:
    """A distribution summarized by cumulative-style buckets.

    Bucket counts are stored per-interval and cumulated at export (the
    Prometheus convention); ``sum``/``count`` give the mean.
    """

    __slots__ = (
        "name", "help", "unit", "labels", "buckets", "counts", "sum", "count",
    )

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        unit: str = "",
        labels: Sequence[tuple[str, str]] = (),
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                f"histogram {name!r} buckets must be strictly increasing; "
                f"got {list(buckets)}"
            )
        self.name = name
        self.help = help
        self.unit = unit
        self.labels = tuple(labels)
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1: the +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        if math.isnan(value):
            raise ObservabilityError(
                f"histogram {self.name!r} cannot observe NaN"
            )
        i = 0
        for bound in self.buckets:
            if value <= bound:
                break
            i += 1
        self.counts[i] += 1
        self.sum += value
        self.count += 1

    def snapshot(self) -> dict:
        """JSON-ready state (cumulative bucket counts, Prometheus-style)."""
        cumulative = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            cumulative.append({"le": bound, "count": running})
        snap = {
            "type": "histogram",
            "help": self.help,
            "unit": self.unit,
            "buckets": cumulative,
            "sum": self.sum,
            "count": self.count,
        }
        if self.labels:
            snap["labels"] = dict(self.labels)
        return snap


class MetricsRegistry:
    """Named instruments with get-or-create registration.

    Instruments may carry labels (``labels={"worker": "1234"}``): each
    distinct (name, label set) pair is its own series, but every series
    of one name must share one instrument type.  Metric and label names
    are validated against the Prometheus grammar at registration, and
    label values are escaped on export — so a merged grid snapshot can
    key per-worker series without ever emitting an unscrapeable file.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Union[Counter, Gauge, Histogram]] = {}
        self._types: dict[str, type] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get_or_create(
        self,
        cls,
        name: str,
        labels: Optional[Mapping[str, object]] = None,
        **kwargs,
    ):
        pairs = _normalize_labels(labels)
        key = _validate_name(name) + _render_labels(pairs)
        registered = self._types.get(name)
        if registered is not None and registered is not cls:
            raise ObservabilityError(
                f"metric {name!r} is already registered as "
                f"{registered.__name__}, not {cls.__name__}"
            )
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels=pairs, **kwargs)
            self._instruments[key] = instrument
            self._types[name] = cls
        return instrument

    def counter(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> Counter:
        """The counter *name* (created on first use)."""
        return self._get_or_create(
            Counter, name, labels=labels, help=help, unit=unit
        )

    def gauge(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> Gauge:
        """The gauge *name* (created on first use)."""
        return self._get_or_create(
            Gauge, name, labels=labels, help=help, unit=unit
        )

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        help: str = "",
        unit: str = "",
        labels: Optional[Mapping[str, object]] = None,
    ) -> Histogram:
        """The histogram *name* (created on first use)."""
        return self._get_or_create(
            Histogram, name, labels=labels, buckets=buckets, help=help,
            unit=unit,
        )

    # -- export --------------------------------------------------------------

    def as_dict(self) -> dict:
        """Name-sorted JSON-ready snapshot of every instrument."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
        }

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (series-key-sorted).

        ``# HELP`` / ``# TYPE`` headers are emitted once per metric
        name (from its first series); each labeled series contributes
        its own sample lines with escaped label values.
        """
        lines: list[str] = []
        headered: set[str] = set()
        ordered = sorted(
            self._instruments.values(), key=lambda i: (i.name, i.labels)
        )
        # Help may be supplied on any one series of a name (get-or-create
        # call sites usually pass it only on first registration).
        helps: dict[str, str] = {}
        for instrument in ordered:
            if instrument.help:
                helps.setdefault(instrument.name, instrument.help)
        for instrument in ordered:
            name = instrument.name
            labels = _render_labels(instrument.labels)
            if name not in headered:
                headered.add(name)
                if helps.get(name):
                    lines.append(f"# HELP {name} {helps[name]}")
                if isinstance(instrument, Counter):
                    lines.append(f"# TYPE {name} counter")
                elif isinstance(instrument, Gauge):
                    lines.append(f"# TYPE {name} gauge")
                else:
                    lines.append(f"# TYPE {name} histogram")
            if isinstance(instrument, (Counter, Gauge)):
                lines.append(f"{name}{labels} {_fmt(instrument.value)}")
            else:
                extra = "," + labels[1:-1] if labels else ""
                running = 0
                for bound, count in zip(instrument.buckets, instrument.counts):
                    running += count
                    lines.append(
                        f'{name}_bucket{{le="{_fmt(bound)}"{extra}}} {running}'
                    )
                lines.append(
                    f'{name}_bucket{{le="+Inf"{extra}}} {instrument.count}'
                )
                lines.append(f"{name}_sum{labels} {_fmt(instrument.sum)}")
                lines.append(f"{name}_count{labels} {instrument.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt(value: float) -> str:
    """Prometheus sample formatting: integers without a trailing .0."""
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)
