"""The :class:`ServeReport` run artifact: SLO numbers of one serve run.

Training runs leave a :class:`~repro.telemetry.run_report.RunReport` behind;
serving runs leave a ``ServeReport`` — the same flat-JSON, diff-two-files
philosophy, but the headline numbers are *service-level objectives*: latency
percentiles (p50/p95/p99), sustained QPS, batch occupancy and queue depth,
plus the per-phase simulated-time breakdown that explains *where* each
microsecond of a request went (queueing vs sampling vs gather vs forward).

Percentiles here are **exact** (``np.percentile`` over every request's
latency), not reconstructed from the power-of-two histogram buckets in the
metrics registry — the registry histogram is for trace tooling; the report
is the SLO record.

Determinism contract: a ``ServeReport`` passed through
:func:`~repro.telemetry.run_report.scrub_report` is byte-identical across
same-seed runs (``tests/test_serve.py`` pins this), exactly like training
reports.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.run_report import SCHEMA_VERSION, json_safe

#: the latency quantiles every serve artifact reports (SLO-grade tails)
LATENCY_QUANTILES = (50.0, 90.0, 95.0, 99.0)


def latency_summary(latencies) -> dict:
    """Exact latency statistics of a batch of per-request latencies.

    Returns ``{count, mean, min, max, p50, p90, p95, p99}`` (seconds); all
    ``None``/zero-safe on an empty input.
    """
    lat = np.asarray(latencies, dtype=np.float64)
    if lat.size == 0:
        return {"count": 0, "mean": None, "min": None, "max": None,
                **{f"p{int(q)}": None for q in LATENCY_QUANTILES}}
    out = {
        "count": int(lat.size),
        "mean": float(lat.mean()),
        "min": float(lat.min()),
        "max": float(lat.max()),
    }
    for q, v in zip(LATENCY_QUANTILES, np.percentile(lat, LATENCY_QUANTILES)):
        out[f"p{int(q)}"] = float(v)
    return out


@dataclass
class ServeReport:
    """The JSON manifest of one online-serving run."""

    name: str
    kind: str = "serve"
    #: serving knobs: batcher limits, routing policy, fanouts, cache config
    config: dict = field(default_factory=dict)
    seed: int | None = None
    num_requests: int = 0
    num_batches: int = 0
    #: simulated seconds from serve start to the last completion
    duration_seconds: float = 0.0
    #: sustained throughput over the run (requests / duration)
    qps: float = 0.0
    #: exact latency percentiles (see :func:`latency_summary`)
    latency: dict = field(default_factory=dict)
    #: batch-occupancy statistics (requests per dispatched batch)
    batch_occupancy: dict = field(default_factory=dict)
    #: one row per serving replica: rank, device, requests, batches, and the
    #: replica's own latency summary (routing skew shows up here)
    per_replica: list = field(default_factory=list)
    #: serve-phase simulated seconds (serve_wait/serve_sample/...)
    phase_totals: dict = field(default_factory=dict)
    #: metrics-registry snapshot at the end of the run
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    #: rolling-window QPS / queue-depth / latency series (autoscaler input);
    #: only present when the engine ran with ``analysis=True``
    timeseries: dict | None = None
    #: per-stage latency decomposition of the p99 tail (queue wait vs
    #: sample vs gather vs infer); only present with ``analysis=True``
    latency_blame: dict | None = None
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> dict:
        """JSON-safe dict view (numpy scalars/arrays converted).

        The opt-in analysis blocks (``timeseries``, ``latency_blame``) are
        omitted entirely when unset so reports from engines that never asked
        for them — including every pinned golden manifest — serialise
        byte-identically to the pre-analysis schema.
        """
        out = json_safe(dataclasses.asdict(self))
        for key in ("timeseries", "latency_blame"):
            if out.get(key) is None:
                out.pop(key, None)
        return out

    def to_json(self, indent: int | None = 2) -> str:
        """Serialise to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def save(self, path) -> None:
        """Write the manifest to ``path`` (trailing newline included)."""
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, data: dict) -> "ServeReport":
        """Rebuild from a JSON-loaded dict, ignoring unknown keys."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def load(cls, path) -> "ServeReport":
        """Load a saved manifest."""
        with open(path) as f:
            return cls.from_dict(json.load(f))
