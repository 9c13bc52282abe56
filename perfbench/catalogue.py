"""The benchmark's metrics, and ``BENCHMARK.json`` derived from them.

``python3 perfbench/catalogue.py`` regenerates ``BENCHMARK.json`` at the
repository root from this module, from the workloads (``workloads.py``)
and from the timed boundaries (``tracer.py``); a test checks that the
committed file is up to date.  Every per-layer metric records the
end-to-end metric and the workloads a change behind it is expected to
move: the timed boundaries in ``tracer.BOUNDARIES``, the rest here.
"""

from __future__ import annotations

import json
from pathlib import Path

from tracer import ALL, BOUNDARIES, GAT, REC, SAGE, TRAIN
from workloads import WORKLOADS

#: seconds of timed measurement per run (``--seconds``)
RUN_SECONDS = 20

#: name -> (unit, better, bound); each is defined in README.md
END_TO_END = {
    "train_samples_per_s": ("1/s", "higher", 0.2),
    "sim_epoch_ms": ("ms", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "serve_requests_per_s": ("1/s", "higher", 0.2),
    "sim_serve_p50_us": ("us", "lower", 0.1),
    "sim_serve_p99_us": ("us", "lower", 0.1),
}

EPOCH = "sim_epoch_ms"
P99 = "sim_serve_p99_us"

#: the simulated phases read off the timeline of the warm-up epoch
SIM_PHASES = (
    "sample", "gather", "train", "allreduce", "allreduce_wait",
    "host_fetch", "host_fetch_wait", "embed_grad", "dep_wait",
)

#: the modules whose self time is summed into ``<module>.total.self_share``
MODULES = (
    "ops", "graph", "dsm", "nn", "train", "sim", "hardware", "telemetry",
    "serve",
)

#: the per-layer metrics besides the boundaries' calls and self times:
#: name -> (unit, better, e2e metric, workloads)
EXTRA_LAYER_METRICS = {
    "ops.sampler.edges": ("count", "lower", TRAIN, (SAGE, REC)),
    "ops.append_unique.unique_ratio": ("ratio", "lower", TRAIN, (SAGE, REC)),
    "dsm.gather_bytes.nvlink": ("B", "lower", EPOCH, (GAT,)),
    "dsm.gather_bytes.pcie": ("B", "lower", EPOCH, (SAGE,)),
    "dsm.gather_bytes.disk": ("B", "lower", EPOCH, (SAGE,)),
    "dsm.embed_rows_touched": ("count", "lower", TRAIN, (REC,)),
    **{
        f"sim.phase.{p}_ms": (
            "ms", "lower", EPOCH,
            (SAGE,) if p.startswith("host_fetch")
            else (GAT,) if p == "allreduce_wait"
            else (REC,) if p == "embed_grad"
            else ALL,
        )
        for p in SIM_PHASES
    },
    "sim.host_fetch_exposed_frac": ("ratio", "lower", EPOCH, (SAGE,)),
    "serve.occupancy_mean": ("count", "higher", P99, ALL),
    **{
        f"serve.p99_blame.{s}": ("ratio", "lower", P99, ALL)
        for s in ("queue_wait", "sample", "gather", "infer")
    },
    **{f"{m}.total.self_share": ("ratio", "lower", TRAIN, ALL)
       for m in MODULES},
    "trace.wall_s": ("s", "lower", TRAIN, ALL),
    "trace.untraced_samples_per_s": ("1/s", "higher", TRAIN, ALL),
    "trace.traced_samples_per_s": ("1/s", "higher", TRAIN, ALL),
    "tracing_overhead_frac": ("ratio", "lower", TRAIN, ALL),
}


def per_layer() -> dict[str, tuple[str, str, str, tuple[str, ...]]]:
    """Every per-layer metric: name -> (unit, better, e2e, workloads)."""
    out = {}
    for b in BOUNDARIES:
        out[f"{b.name}.calls"] = ("count", "lower", b.moves, b.workloads)
        out[f"{b.name}.self_s"] = ("s", "lower", b.moves, b.workloads)
    out.update(EXTRA_LAYER_METRICS)
    return out


def render() -> str:
    """``BENCHMARK.json`` as written to disk."""
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _, _) in per_layer().items()
        ],
    }
    return json.dumps(spec, indent=2) + "\n"


if __name__ == "__main__":
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").write_text(
        render()
    )
