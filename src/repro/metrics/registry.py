"""Typed metric registry: counters, gauges and fixed-bucket histograms.

The registry is the single definition point for every quantity the
runtime measures.  Metrics are keyed by a dotted name (``counter.
checkpoint_count``, ``pool.resident_bytes``) plus an optional label set
(``benchmark=bzip2, core=little``); the same name must always be used
with the same metric kind — mixing kinds is a programming error and
raises immediately.

Like :mod:`repro.trace`, this package is pure data: it must not import
from :mod:`repro.sim`, :mod:`repro.kernel` or :mod:`repro.core`, so it
can be reused by offline tooling (exporters, report rendering, tests)
without dragging the simulator along.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "AttrGauge",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "MetricKindError",
]

#: A metric key: dotted name plus a sorted, hashable label set.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


class MetricKindError(TypeError):
    """The same metric name was requested with two different kinds."""


def _label_key(labels: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing float counter."""

    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def set(self, value: float) -> None:
        """Absolute update; used by mirrors that track an external field.
        Must never move backwards."""
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot decrease "
                f"({self.value} -> {value})")
        self.value = float(value)


class Gauge:
    """Point-in-time value, optionally sampled into a time series."""

    kind = "gauge"
    #: Optional pull hook (assign a callable, or override as a method):
    #: when set, ``sample()``, ``refresh()``, ``value()`` and
    #: ``to_snapshot()`` read it instead of relying on pushes.
    fn: Optional[Callable[[], float]] = None

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        #: ``(virtual_time, value)`` pairs appended by ``Registry.sample``.
        self.series: List[Tuple[float, float]] = []
        #: Virtual time of the most recent sampled write; drives the
        #: last-write-wins rule when shard registries merge.
        self.last_write = float("-inf")

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class AttrGauge(Gauge):
    """A gauge whose pull hook reads ``getattr(source, attr)``: it
    reports a value another object owns without keeping a copy or
    holding a closure."""

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 source: object = None, attr: str = ""):
        super().__init__(name, labels)
        self.source = source
        self.attr = attr

    def fn(self) -> float:
        return getattr(self.source, self.attr)


class Histogram:
    """Fixed-bucket histogram with quantile summaries.

    ``bounds`` are ascending upper bucket edges; an implicit +inf bucket
    catches overflow.  ``quantile(q)`` answers with the smallest bucket
    upper bound whose cumulative count reaches ``q * count`` — exact at
    bucket boundaries, which is all a fixed-bucket histogram can honestly
    promise.  Observations landing past the last bound are reported via
    the maximum observed value, so ``quantile(1.0)`` never invents +inf.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = (),
                 bounds: Sequence[float] = ()):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name}: bounds must be ascending")
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        #: Per-bucket counts; index len(bounds) is the +inf bucket.
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.max_observed = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value > self.max_observed:
            self.max_observed = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bound in enumerate(self.bounds):
            cumulative += self.bucket_counts[i]
            if cumulative >= target:
                return bound
        return self.max_observed

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricRegistry:
    """All metrics of one run, keyed by ``(dotted name, label set)``."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, object] = {}

    # -- accessors ---------------------------------------------------------

    def _get(self, cls, name: str, labels: Dict[str, object], **kw):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kw)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise MetricKindError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested as {cls.kind}")
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def attr_gauge(self, name: str, source: object, attr: str,
                   **labels) -> AttrGauge:
        return self._get(AttrGauge, name, labels, source=source, attr=attr)

    def histogram(self, name: str, bounds: Sequence[float] = (),
                  **labels) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is not None:
            if not isinstance(metric, Histogram):
                raise MetricKindError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested as histogram")
            return metric
        return self._get(Histogram, name, labels, bounds=bounds)

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of a counter/gauge (a gauge's pull hook is
        asked), or ``default`` if absent."""
        metric = self._metrics.get((name, _label_key(labels)))
        if metric is None:
            return default
        if getattr(metric, "fn", None) is not None:
            return float(metric.fn())
        return metric.value

    # -- iteration / sampling ---------------------------------------------

    def __iter__(self):
        return iter(sorted(self._metrics.values(),
                           key=lambda m: (m.name, m.labels)))

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self, kind: Optional[str] = None) -> Iterable[object]:
        for metric in self:
            if kind is None or metric.kind == kind:
                yield metric

    def refresh(self) -> None:
        """Store every pull-hooked gauge's current value, so readers of
        ``Gauge.value`` (the exporters, ``merge``) see it."""
        for metric in self._metrics.values():
            if isinstance(metric, Gauge) and metric.fn is not None:
                metric.value = float(metric.fn())

    def sample(self, when: float) -> None:
        """Snapshot every gauge into its time series at virtual time
        ``when`` (pull hooks are refreshed first)."""
        for metric in self._metrics.values():
            if isinstance(metric, Gauge):
                if metric.fn is not None:
                    metric.value = float(metric.fn())
                metric.series.append((when, metric.value))
                metric.last_write = when

    # -- shard aggregation -------------------------------------------------

    def _insert(self, metric) -> None:
        self._metrics[(metric.name, metric.labels)] = metric

    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold ``other`` into this registry (returned for chaining).

        The aggregation rules are the ones sharded campaigns need:

        * **counters** sum — each shard counted disjoint work;
        * **gauges** take the write with the greatest virtual time
          (series are concatenated and time-sorted; a gauge that was
          never sampled loses to any that was, and between two unsampled
          gauges the incoming value wins so merging a snapshot is not a
          no-op);
        * **histograms** add bucket-wise — identical bounds required,
          mismatched bounds are a :class:`MetricKindError` (two shards
          measuring "the same" histogram differently is a programming
          error, not data).
        """
        for metric in other:
            key = (metric.name, metric.labels)
            mine = self._metrics.get(key)
            if mine is None:
                if isinstance(metric, Counter):
                    mine = Counter(metric.name, metric.labels)
                elif isinstance(metric, Gauge):
                    mine = Gauge(metric.name, metric.labels)
                else:
                    mine = Histogram(metric.name, metric.labels,
                                     bounds=metric.bounds)
                self._insert(mine)
            elif mine.kind != metric.kind:
                raise MetricKindError(
                    f"metric {metric.name!r} is a {mine.kind} here but a "
                    f"{metric.kind} in the merged registry")
            if isinstance(metric, Counter):
                mine.inc(metric.value)
            elif isinstance(metric, Gauge):
                mine.series = sorted(mine.series + metric.series)
                if metric.last_write >= mine.last_write:
                    mine.value = metric.value
                    mine.last_write = metric.last_write
            else:
                if mine.bounds != metric.bounds:
                    raise MetricKindError(
                        f"histogram {metric.name!r}: bucket bounds differ "
                        f"({mine.bounds} vs {metric.bounds})")
                for i, count in enumerate(metric.bucket_counts):
                    mine.bucket_counts[i] += count
                mine.count += metric.count
                mine.sum += metric.sum
                if metric.max_observed > mine.max_observed:
                    mine.max_observed = metric.max_observed
        return self

    # -- snapshot transfer -------------------------------------------------

    def to_snapshot(self) -> Dict[str, list]:
        """JSON-serializable dump of every metric, for shipping a shard's
        registry across a process boundary or into a campaign journal.
        Gauge pull hooks are refreshed into plain values (callables do
        not serialize); everything else round-trips exactly."""
        doc: Dict[str, list] = {"counters": [], "gauges": [],
                                "histograms": []}
        for metric in self:
            labels = [list(pair) for pair in metric.labels]
            if isinstance(metric, Counter):
                doc["counters"].append(
                    {"name": metric.name, "labels": labels,
                     "value": metric.value})
            elif isinstance(metric, Gauge):
                value = (float(metric.fn()) if metric.fn is not None
                         else metric.value)
                entry = {"name": metric.name, "labels": labels,
                         "value": value,
                         "series": [list(p) for p in metric.series]}
                if metric.last_write != float("-inf"):
                    entry["last_write"] = metric.last_write
                doc["gauges"].append(entry)
            else:
                doc["histograms"].append(
                    {"name": metric.name, "labels": labels,
                     "bounds": list(metric.bounds),
                     "bucket_counts": list(metric.bucket_counts),
                     "count": metric.count, "sum": metric.sum,
                     "max_observed": metric.max_observed})
        return doc

    @classmethod
    def from_snapshot(cls, doc: Dict[str, list]) -> "MetricRegistry":
        """Rebuild a registry from :meth:`to_snapshot` output."""
        registry = cls()
        for entry in doc.get("counters", []):
            metric = Counter(entry["name"],
                             tuple(tuple(p) for p in entry["labels"]))
            metric.value = float(entry["value"])
            registry._insert(metric)
        for entry in doc.get("gauges", []):
            metric = Gauge(entry["name"],
                           tuple(tuple(p) for p in entry["labels"]))
            metric.value = float(entry["value"])
            metric.series = [tuple(p) for p in entry.get("series", [])]
            metric.last_write = float(entry.get("last_write",
                                                float("-inf")))
            registry._insert(metric)
        for entry in doc.get("histograms", []):
            metric = Histogram(entry["name"],
                               tuple(tuple(p) for p in entry["labels"]),
                               bounds=entry["bounds"])
            metric.bucket_counts = [int(c)
                                    for c in entry["bucket_counts"]]
            metric.count = int(entry["count"])
            metric.sum = float(entry["sum"])
            metric.max_observed = float(entry["max_observed"])
            registry._insert(metric)
        return registry
