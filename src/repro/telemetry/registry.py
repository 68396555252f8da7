"""Label-aware metrics registry with JSONL/CSV/Prometheus exporters.

A deliberately small, dependency-free subset of the Prometheus client
model: a :class:`MetricsRegistry` owns named metric families, each family
holds one sample per distinct label set, and three instrument types cover
the telemetry layer's needs:

- :class:`Counter` — monotonically increasing totals (messages, faults);
- :class:`Gauge` — last-written values (flow magnitudes, mass drift);
- :class:`Histogram` — bucketed distributions (phase wall-times).

A registry constructed with ``enabled=False`` hands out shared no-op
instruments, so instrumented code never branches on "is telemetry on" —
disabled updates are a single short-circuited method call.

Cross-process aggregation: :meth:`MetricsRegistry.snapshot` serializes a
registry into a plain JSON-able dict (the ``RegistrySnapshot`` wire
format) and :meth:`MetricsRegistry.merge` folds such a snapshot into
another registry — counters sum, gauges last-write-wins by timestamp,
histograms merge bucket-wise (identical bucket bounds asserted). Campaign
workers ship their per-cell registries home over the existing result
channel and the parent holds the authoritative aggregate. Every
instrument takes a per-family lock around its mutations, so a live HTTP
scrape (:mod:`repro.telemetry.server`) never sees torn state.
"""

from __future__ import annotations

import bisect
import csv
import io
import json
import math
import pathlib
import re
import threading
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ConfigurationError

LabelKey = Tuple[Tuple[str, str], ...]

#: Version tag of the :meth:`MetricsRegistry.snapshot` wire format.
SNAPSHOT_FORMAT = 1

#: Default histogram buckets: wall-times from 1 microsecond to 10 seconds.
DEFAULT_TIME_BUCKETS = tuple(
    round(base * 10.0**exp, 12)
    for exp in range(-6, 1)
    for base in (1.0, 2.5, 5.0)
) + (10.0,)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    # The per-round hooks pass zero labels or one: nothing to sort.
    if not labels:
        return ()
    if len(labels) == 1:
        ((k, v),) = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _finite_or_none(value: float) -> Optional[float]:
    return value if math.isfinite(value) else None


class Metric:
    """Base of all metric families: a name, a help string, label samples.

    Every family carries its own lock: ``inc``/``set``/``observe`` are
    read-modify-write sequences, and the metrics server scrapes from a
    separate thread, so mutations and reads both take ``self._lock``.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()

    def samples(self) -> Iterator[Tuple[Dict[str, str], object]]:
        raise NotImplementedError  # pragma: no cover


class Counter(Metric):
    """Monotonically increasing float total, one per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[Dict[str, str], object]]:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            yield dict(key), value


class Gauge(Metric):
    """Last-written float value, one per label set.

    Each write records a wall-clock timestamp so cross-process merges can
    apply last-write-wins semantics (:meth:`MetricsRegistry.merge`).
    """

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelKey, float] = {}
        self._stamps: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = float(value)
            self._stamps[key] = time.time()

    def set_at(self, value: float, ts: float, **labels: str) -> None:
        """Timestamped write: kept only if at least as new as the current one."""
        key = _label_key(labels)
        with self._lock:
            if ts >= self._stamps.get(key, float("-inf")):
                self._values[key] = float(value)
                self._stamps[key] = float(ts)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), float("nan"))

    def stamp(self, **labels: str) -> Optional[float]:
        """Wall-clock time of the last write for this label set."""
        with self._lock:
            return self._stamps.get(_label_key(labels))

    def samples(self) -> Iterator[Tuple[Dict[str, str], object]]:
        with self._lock:
            items = sorted(self._values.items())
        for key, value in items:
            yield dict(key), value


class _HistSlot:
    """Accumulator for one label set of a histogram."""

    __slots__ = ("count", "sum", "max", "buckets")

    def __init__(self, n_bounds: int) -> None:
        self.count = 0
        self.sum = 0.0
        self.max = float("-inf")
        self.buckets = [0] * (n_bounds + 1)  # +Inf overflow bucket


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics), one per label set."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ConfigurationError(f"histogram {self.name} needs >= 1 bucket")
        self._bounds = bounds
        self._data: Dict[LabelKey, "_HistSlot"] = {}

    def _slot(self, key: LabelKey) -> "_HistSlot":
        slot = self._data.get(key)
        if slot is None:
            slot = _HistSlot(len(self._bounds))
            self._data[key] = slot
        return slot

    @property
    def bounds(self) -> List[float]:
        """The finite bucket bounds (the implicit +Inf bucket excluded)."""
        return list(self._bounds)

    def observe(self, value: float, **labels: str) -> None:
        self.observe_key(_label_key(labels), value)

    def observe_key(self, key: LabelKey, value: float) -> None:
        """:meth:`observe` for a label key built once by the caller."""
        with self._lock:
            slot = self._slot(key)
            slot.count += 1
            slot.sum += value
            if value > slot.max:
                slot.max = value
            # The first bucket whose bound is >= value; NaN, like a value
            # above every bound, lands in the +Inf bucket.
            if value == value:
                slot.buckets[bisect.bisect_left(self._bounds, value)] += 1
            else:
                slot.buckets[-1] += 1

    def merge_slot(
        self,
        labels: Dict[str, str],
        *,
        count: int,
        sum: float,
        max: float,
        buckets: Sequence[int],
    ) -> None:
        """Fold another registry's raw (non-cumulative) slot into this one."""
        if len(buckets) != len(self._bounds) + 1:
            raise ConfigurationError(
                f"histogram {self.name}: cannot merge a slot with "
                f"{len(buckets)} buckets into {len(self._bounds) + 1}"
            )
        key = _label_key(labels)
        with self._lock:
            slot = self._slot(key)
            slot.count += int(count)
            slot.sum += float(sum)
            if float(max) > slot.max:
                slot.max = float(max)
            for i, extra in enumerate(buckets):
                slot.buckets[i] += int(extra)

    def _snapshot_locked(self, key: LabelKey) -> Dict[str, object]:
        slot = self._slot(key)
        cumulative: List[Tuple[object, int]] = []
        acc = 0
        for bound, count in zip(list(self._bounds) + ["+Inf"], slot.buckets):
            acc += count
            cumulative.append((bound, acc))
        return {
            "count": slot.count,
            "sum": slot.sum,
            "max": slot.max if slot.count else 0.0,
            "buckets": cumulative,
        }

    def snapshot(self, **labels: str) -> Dict[str, object]:
        """``{count, sum, max, buckets: [(le, cumulative_count), ...]}``."""
        with self._lock:
            return self._snapshot_locked(_label_key(labels))

    def raw_slots(self) -> List[Tuple[Dict[str, str], Dict[str, object]]]:
        """Per-label raw accumulators (non-cumulative buckets), for snapshots."""
        out: List[Tuple[Dict[str, str], Dict[str, object]]] = []
        with self._lock:
            for key in sorted(self._data):
                slot = self._data[key]
                out.append(
                    (
                        dict(key),
                        {
                            "count": slot.count,
                            "sum": slot.sum,
                            "max": slot.max if slot.count else 0.0,
                            "buckets": list(slot.buckets),
                        },
                    )
                )
        return out

    def samples(self) -> Iterator[Tuple[Dict[str, str], object]]:
        with self._lock:
            snaps = [
                (dict(key), self._snapshot_locked(key))
                for key in sorted(self._data)
            ]
        return iter(snaps)


class _NullInstrument(Counter, Gauge, Histogram):
    """Shared no-op instrument a disabled registry hands out."""

    kind = "null"

    def __init__(self) -> None:  # pylint: disable=super-init-not-called
        Metric.__init__(self, "null")

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        pass

    def set(self, value: float, **labels: str) -> None:
        pass

    def set_at(self, value: float, ts: float, **labels: str) -> None:
        pass

    def observe(self, value: float, **labels: str) -> None:
        pass

    def observe_key(self, key: LabelKey, value: float) -> None:
        pass

    def merge_slot(self, labels, *, count, sum, max, buckets) -> None:
        pass

    def samples(self) -> Iterator[Tuple[Dict[str, str], object]]:
        return iter(())


_NULL = _NullInstrument()


class MetricsRegistry:
    """Owns metric families; re-requesting a name returns the same family."""

    def __init__(self, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[str, Metric] = {}

    def _get(self, cls: type, name: str, help: str, **kwargs) -> Metric:
        if not self.enabled:
            return _NULL
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self._get(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets
        )

    def metrics(self) -> List[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    # ------------------------------------------------------------------
    # Cross-process aggregation (the RegistrySnapshot wire format)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Serialize every family into a plain JSON-able dict.

        Counters and gauges carry ``samples: [{labels, value[, ts]}]``;
        histograms carry their bucket ``bounds`` plus raw (non-cumulative)
        per-slot accumulators, so :meth:`merge` can fold them bucket-wise.
        A disabled registry snapshots to an empty metric list.
        """
        metrics: List[Dict[str, object]] = []
        if self.enabled:
            for metric in self.metrics():
                entry: Dict[str, object] = {
                    "name": metric.name,
                    "kind": metric.kind,
                    "help": metric.help,
                }
                if isinstance(metric, Histogram):
                    entry["bounds"] = metric.bounds
                    entry["samples"] = [
                        {"labels": labels, **slot}
                        for labels, slot in metric.raw_slots()
                    ]
                elif isinstance(metric, Gauge):
                    entry["samples"] = [
                        {
                            "labels": labels,
                            "value": value,
                            "ts": metric.stamp(**labels),
                        }
                        for labels, value in metric.samples()
                    ]
                else:
                    entry["samples"] = [
                        {"labels": labels, "value": value}
                        for labels, value in metric.samples()
                    ]
                metrics.append(entry)
        return {"format": SNAPSHOT_FORMAT, "metrics": metrics}

    def merge(self, snapshot: Optional[Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` dict into this registry.

        Counters sum, gauges apply last-write-wins by timestamp, and
        histograms add raw bucket counts element-wise — which is only
        meaningful when both sides bucket identically, so differing bounds
        raise :class:`ConfigurationError` rather than silently mis-binning.
        No-op on a disabled registry or an empty/None snapshot.
        """
        if not self.enabled or not snapshot:
            return
        fmt = snapshot.get("format")
        if fmt != SNAPSHOT_FORMAT:
            raise ConfigurationError(
                f"cannot merge registry snapshot format {fmt!r} "
                f"(expected {SNAPSHOT_FORMAT})"
            )
        for entry in snapshot.get("metrics", []):
            name = entry["name"]
            kind = entry["kind"]
            help = entry.get("help", "")
            samples = entry.get("samples", [])
            if kind == "counter":
                counter = self.counter(name, help)
                for sample in samples:
                    counter.inc(float(sample["value"]), **sample["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, help)
                for sample in samples:
                    ts = sample.get("ts")
                    gauge.set_at(
                        float(sample["value"]),
                        float(ts) if ts is not None else time.time(),
                        **sample["labels"],
                    )
            elif kind == "histogram":
                bounds = [float(b) for b in entry["bounds"]]
                hist = self.histogram(name, help, buckets=bounds)
                if hist.bounds != bounds:
                    raise ConfigurationError(
                        f"histogram {name}: snapshot bucket bounds "
                        f"{bounds} differ from registered {hist.bounds}; "
                        "bucket-wise merge needs identical bounds"
                    )
                for sample in samples:
                    hist.merge_slot(
                        sample["labels"],
                        count=sample["count"],
                        sum=sample["sum"],
                        max=sample["max"],
                        buckets=sample["buckets"],
                    )
            else:
                raise ConfigurationError(
                    f"cannot merge metric {name!r} of unknown kind {kind!r}"
                )

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per sample; non-finite floats become null."""
        lines = []
        for metric in self.metrics():
            for labels, value in metric.samples():
                record = {
                    "name": metric.name,
                    "type": metric.kind,
                    "labels": labels,
                }
                if isinstance(value, dict):  # histogram snapshot
                    record["count"] = value["count"]
                    record["sum"] = _finite_or_none(float(value["sum"]))
                    record["max"] = _finite_or_none(float(value["max"]))
                    record["buckets"] = [
                        [str(le), count] for le, count in value["buckets"]
                    ]
                else:
                    record["value"] = _finite_or_none(float(value))
                lines.append(json.dumps(record, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")

    def to_csv(self) -> str:
        """Flat table: histogram samples become count/sum/mean/max columns."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "type", "labels", "value", "count", "sum", "max"])
        for metric in self.metrics():
            for labels, value in metric.samples():
                label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                if isinstance(value, dict):
                    writer.writerow(
                        [
                            metric.name,
                            metric.kind,
                            label_text,
                            "",
                            value["count"],
                            repr(float(value["sum"])),
                            repr(float(value["max"])),
                        ]
                    )
                else:
                    writer.writerow(
                        [metric.name, metric.kind, label_text, repr(float(value)), "", "", ""]
                    )
        return buf.getvalue()

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (histograms with _bucket/_sum).

        Non-finite sample values are dropped (same sanitization policy as
        :meth:`to_jsonl`): a NaN gauge or an Inf histogram sum would be
        rejected by strict scrape parsers, so those lines are omitted
        while the finite bucket/count lines still ship.
        """
        out: List[str] = []
        for metric in self.metrics():
            if metric.help:
                out.append(f"# HELP {metric.name} {metric.help}")
            out.append(f"# TYPE {metric.name} {metric.kind}")
            for labels, value in metric.samples():
                if isinstance(value, dict):
                    for le, count in value["buckets"]:
                        le_text = "+Inf" if le == "+Inf" else repr(float(le))
                        bucket_labels = dict(labels, le=le_text)
                        out.append(
                            f"{metric.name}_bucket"
                            f"{_prom_labels(bucket_labels)} {count}"
                        )
                    total = _finite_or_none(float(value["sum"]))
                    if total is not None:
                        out.append(
                            f"{metric.name}_sum{_prom_labels(labels)} "
                            f"{_prom_float(total)}"
                        )
                    out.append(
                        f"{metric.name}_count{_prom_labels(labels)} "
                        f"{value['count']}"
                    )
                else:
                    scalar = _finite_or_none(float(value))
                    if scalar is None:
                        continue
                    out.append(
                        f"{metric.name}{_prom_labels(labels)} "
                        f"{_prom_float(scalar)}"
                    )
        return "\n".join(out) + ("\n" if out else "")

    def dump(self, directory: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write metrics.jsonl / metrics.csv / metrics.prom under ``directory``."""
        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "metrics.jsonl").write_text(self.to_jsonl())
        (directory / "metrics.csv").write_text(self.to_csv())
        (directory / "metrics.prom").write_text(self.to_prometheus())
        return directory


def _prom_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    escaped = {
        k: str(v).replace("\\", "\\\\").replace('"', '\\"')
        for k, v in labels.items()
    }
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(escaped.items()))
    return "{" + inner + "}"


def _prom_float(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


_PROM_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>\S+)(?: (?P<ts>-?\d+))?$"
)
_PROM_LABEL = re.compile(r'^(?P<k>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<v>(?:[^"\\]|\\.)*)"$')


def parse_prometheus_text(
    text: str,
) -> List[Tuple[str, Dict[str, str], float]]:
    """Strictly parse Prometheus exposition text into (name, labels, value).

    Raises :class:`ValueError` on any line that is not a comment, blank,
    or a well-formed sample with a finite-or-special float value. Used by
    tests and CI to assert scrapes are ingestible.
    """
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _PROM_LINE.match(line)
        if match is None:
            raise ValueError(f"malformed Prometheus line {lineno}: {line!r}")
        labels: Dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for part in _split_prom_labels(raw, lineno, line):
                lmatch = _PROM_LABEL.match(part)
                if lmatch is None:
                    raise ValueError(
                        f"malformed label on line {lineno}: {part!r}"
                    )
                value = lmatch.group("v")
                labels[lmatch.group("k")] = (
                    value.replace('\\"', '"').replace("\\\\", "\\")
                )
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise ValueError(
                f"non-numeric value on line {lineno}: {raw_value!r}"
            ) from exc
        samples.append((match.group("name"), labels, value))
    return samples


def _split_prom_labels(raw: str, lineno: int, line: str) -> List[str]:
    """Split `k1="v1",k2="v2"` on commas outside quoted values."""
    parts: List[str] = []
    current: List[str] = []
    in_quotes = False
    escaped = False
    for ch in raw:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            current.append(ch)
            escaped = True
        elif ch == '"':
            current.append(ch)
            in_quotes = not in_quotes
        elif ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if in_quotes:
        raise ValueError(f"unterminated label quote on line {lineno}: {line!r}")
    if current:
        parts.append("".join(current))
    return parts


#: Registry handed to collectors when telemetry is off.
NULL_REGISTRY = MetricsRegistry(enabled=False)
