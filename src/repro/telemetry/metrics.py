"""Process-wide metrics registry: counters, gauges, histograms.

Every op in the data path (gather kernels, the neighbor sampler, the hot-row
cache, the training pipeline) reports the work it did to one shared
:class:`MetricsRegistry` instead of a private stats dict — the single place
the run artifacts (:mod:`repro.telemetry.run_report`) and the Chrome trace
counter tracks (:mod:`repro.telemetry.trace`) read from.

Metrics are *labeled* series, Prometheus-style: one metric name owns many
``(label set -> value)`` children, e.g. ``gather_link_bytes_total`` split by
``link="hbm"`` / ``link="nvlink"`` — the per-link accounting PyTorch-Direct
and GNNPipe attribute their wins with.

Counters and gauges optionally record *timestamped samples* (simulated
seconds) when the caller passes ``t=``; those samples become Perfetto
counter tracks in the trace export.  Sampling is opt-in per update so hot
paths that nobody plots stay cheap.

The module keeps one default registry; :func:`get_registry` /
:func:`set_registry` swap it (experiment drivers reset or replace it per
run so manifests are scoped to one experiment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: label key/value separator used in flattened metric names
_LABEL_FMT = "{name}{{{labels}}}"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _flat_name(name: str, labels: dict) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return _LABEL_FMT.format(name=name, labels=inner)


@dataclass
class Counter:
    """Monotonically increasing total (bytes moved, rows gathered, ...)."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0
    #: (sim time, cumulative value) samples for trace counter tracks
    samples: list = field(default_factory=list)

    def inc(self, amount: float = 1.0, t: float | None = None) -> None:
        """Add ``amount`` (>= 0); pass ``t=`` to record a trace sample."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount
        if t is not None:
            self.samples.append((float(t), self.value))

    def as_dict(self) -> dict:
        """JSON-able snapshot of this counter."""
        return {"type": "counter", "labels": dict(self.labels),
                "value": self.value}


@dataclass
class Gauge:
    """Point-in-time value (cache hit rate, queue depth, ...)."""

    name: str
    labels: dict = field(default_factory=dict)
    value: float = 0.0
    samples: list = field(default_factory=list)

    def set(self, value: float, t: float | None = None) -> None:
        """Overwrite the value; pass ``t=`` to record a trace sample."""
        self.value = float(value)
        if t is not None:
            self.samples.append((float(t), self.value))

    def as_dict(self) -> dict:
        """JSON-able snapshot of this gauge."""
        return {"type": "gauge", "labels": dict(self.labels),
                "value": self.value}


#: what :meth:`Histogram.observe` records without building an array
_SCALARS = (int, float, np.integer, np.floating)


@dataclass
class Histogram:
    """Power-of-two bucketed distribution (gather sizes, fan-outs, ...).

    Buckets are ``[2^k, 2^(k+1))`` on the observed value; exact enough for
    size distributions while keeping ``observe`` O(1) and the snapshot tiny.
    """

    name: str
    labels: dict = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    #: bucket upper bound (2^(k+1)) -> observation count
    buckets: dict = field(default_factory=dict)

    def observe(self, value) -> None:
        """Record one value or a whole array of values (vectorised)."""
        if isinstance(value, _SCALARS):
            v = float(value)
            self.count += 1
            self.total += v
            self.min = min(self.min, v)
            self.max = max(self.max, v)
            self._add(math.frexp(max(v, 0.0))[1], 1)
            return
        values = np.atleast_1d(np.asarray(value, dtype=np.float64))
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        exps = np.frexp(np.maximum(values, 0.0))[1]
        low = int(exps.min())
        counts = np.bincount(exps - low)
        for e in np.flatnonzero(counts):
            self._add(int(e) + low, int(counts[e]))

    def _add(self, exp: int, n: int) -> None:
        """Count ``n`` values in ``[2^(exp-1), 2^exp)`` (``frexp``'s
        exponent: the position of the highest set bit of ``floor(v)``)."""
        upper = float(2.0 ** exp)
        self.buckets[upper] = self.buckets.get(upper, 0) + n

    @property
    def mean(self) -> float:
        """Arithmetic mean of every observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """JSON-able snapshot: count/sum/min/max/mean plus the buckets."""
        return {
            "type": "histogram",
            "labels": dict(self.labels),
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Get-or-create store of labeled counters/gauges/histograms."""

    def __init__(self) -> None:
        self._metrics: dict[tuple, Counter | Gauge | Histogram] = {}

    def _get(self, cls, name: str, labels: dict):
        key = (cls.__name__, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name=name, labels=dict(labels))
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        return self._get(Histogram, name, labels)

    # -- introspection -------------------------------------------------------

    def collect(self, name: str | None = None,
                **labels) -> list[Counter | Gauge | Histogram]:
        """All metrics, optionally filtered by name and a label subset."""
        out = []
        for metric in self._metrics.values():
            if name is not None and metric.name != name:
                continue
            if any(metric.labels.get(k) != v for k, v in labels.items()):
                continue
            out.append(metric)
        return out

    def total(self, name: str, **labels) -> float:
        """Sum of every counter/gauge child matching a label subset."""
        return sum(
            m.value
            for m in self.collect(name, **labels)
            if isinstance(m, (Counter, Gauge))
        )

    def series(self) -> dict[str, list[tuple[float, float]]]:
        """Flattened name -> timestamped samples (for trace counter tracks)."""
        out = {}
        for m in self._metrics.values():
            if getattr(m, "samples", None):
                out[_flat_name(m.name, m.labels)] = list(m.samples)
        return out

    def snapshot(self) -> dict:
        """JSON-able view of every metric, keyed by flattened name."""
        return {
            _flat_name(m.name, m.labels): m.as_dict()
            for m in sorted(
                self._metrics.values(),
                key=lambda m: (m.name, _label_key(m.labels)),
            )
        }

    def reset(self) -> None:
        """Drop every metric (per-run scoping in experiment drivers)."""
        self._metrics.clear()


#: the process-wide default registry the instrumented ops report to
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry instrumented ops report to."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    prev = _default_registry
    _default_registry = registry
    return prev
