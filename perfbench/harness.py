"""One workload in one process: set up, train, serve, check, report.

Started by ``run.py`` in a fresh interpreter with single-threaded BLAS;
prints human-readable lines and, as its last line, the JSON result.

- ``--trace 0`` measures the end-to-end metrics with tracing off: the
  set-up is repeated and its median taken, a warm-up epoch and one serve
  of the whole stream are excluded from timing, then ``--seconds`` of
  timed training chunks interleaved with serve calls over slices of the
  stream, each calibrated against the reference kernel that
  ``hostclock.py`` times in a helper process.
- ``--trace 1`` builds two instances A and B from the same inputs.  B
  trains one full epoch and serves the stream once under the tracer (the
  per-layer numbers); A does the same untraced, and every loss and
  simulated time of B must equal A's bit for bit.  The rest of the run
  alternates untraced A chunks with traced B chunks to size the tracing
  overhead.
- ``--pin`` only sets up and runs the warm-up epoch, printing its loss
  (how ``pinned_losses.json`` is made).

Host clock: ``time.perf_counter``.  Simulated clock: the program's
DGX-A100 cost model (``epoch_time``, timeline phases, serve latencies).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from catalogue import END_TO_END, MODULES, SIM_PHASES, per_layer
from hostclock import NOMINAL_S, HostClock
from tracer import BOUNDARIES, Tracer
from workloads import PROGRAM_SEED, SERVE_REQUESTS, TOP_K, WORKLOADS

from repro.graph import (
    MultiGpuGraphStore,
    load_bipartite_dataset,
    load_dataset,
)
from repro.hardware import SimNode
from repro.serve import (
    FrozenModel,
    InferenceEngine,
    RecsysEngine,
    synthesize_requests,
)
from repro.telemetry import metrics
from repro.train import WholeGraphTrainer

#: set-ups (and engine builds) are repeated at least this often and for at
#: least this long, up to the cap; the median is reported
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 20
#: share of the timed window spent training; the rest serves
TRAIN_SHARE = 0.5
#: timed samples taken even past the deadline
MIN_SAMPLES = 10
#: requests per timed serve call (slices of the stream)
SERVE_PIECE = 100
#: relative tolerance of the warm-up loss against its pinned value: about
#: 4000 float32 ulps, so a reordered reduction (a fused kernel) passes
#: while a wrong kernel does not
LOSS_RTOL = 5e-4
#: the trainer's per-phase simulated totals must match the clock's and the
#: registry's within this
PHASE_RTOL = 1e-9

PINNED = Path(__file__).resolve().parent / "pinned_losses.json"


# -- the program, built from a workload's inputs ------------------------------


def generate(wl, seed: int):
    """The seeded dataset."""
    if wl.linkpred:
        return load_bipartite_dataset(seed=seed, **wl.dataset)
    return load_dataset(seed=seed, **wl.dataset)


def build(wl, dataset) -> WholeGraphTrainer:
    """Store (the DSM) and trainer over ``dataset``."""
    store = MultiGpuGraphStore(
        SimNode(node_id=0), dataset, seed=PROGRAM_SEED, **wl.store
    )
    return WholeGraphTrainer(store, seed=PROGRAM_SEED, **wl.trainer)


def request_stream(wl, dataset, trainer, seed: int):
    """The seeded request stream: users for recsys, test nodes else."""
    pool = dataset.user_nodes if wl.linkpred else trainer.store.test_nodes
    rng = np.random.default_rng([seed, 1])
    return synthesize_requests(SERVE_REQUESTS, wl.serve_rate_qps, pool, rng)


def build_engine(wl, dataset, trainer):
    """The serving engine over the trained model."""
    frozen = FrozenModel(trainer.model)
    if wl.linkpred:
        return RecsysEngine(
            trainer.store, frozen, trainer.embedding, dataset.item_nodes,
            fanouts=trainer.sampler.fanouts, top_k=TOP_K,
            score_scale=trainer._score_scale,
        )
    return InferenceEngine(
        trainer.store, frozen, fanouts=trainer.sampler.fanouts
    )


def setup(wl, seed: int):
    """Generate the inputs and build the program: (dataset, trainer)."""
    dataset = generate(wl, seed)
    return dataset, build(wl, dataset)


# -- checks and measurement helpers -------------------------------------------


class Ledger:
    """Operations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, count: int, ok: bool, what: str) -> None:
        """``count`` operations ran; all failed unless ``ok``."""
        self.attempted += count
        self.check(ok, count, what)

    def check(self, ok: bool, count: int, what: str) -> None:
        """A check over ``count`` operations already attempted."""
        if not ok:
            self.failed += count
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return not self.problems


@contextlib.contextmanager
def scoped_registry():
    """A fresh metrics registry for one epoch, chunk or serve call."""
    reg = metrics.MetricsRegistry()
    prev = metrics.set_registry(reg)
    try:
        yield reg
    finally:
        metrics.set_registry(prev)


def run_epoch(trainer, max_iterations=None):
    """One (possibly truncated) epoch from zeroed simulated clocks.

    Returns ``(stats, host seconds, registry, rank-0 phase totals)``.
    """
    node = trainer.node
    node.reset_clocks()
    with scoped_registry() as reg:
        t0 = perf_counter()
        stats = trainer.train_epoch(max_iterations)
        host = perf_counter() - t0
    return stats, host, reg, rank0_phases(node)


def rank0_phases(node) -> dict[str, float]:
    """Simulated seconds per phase on rank 0's streams and the host."""
    out: dict[str, float] = {}
    for device in node.timeline.devices():
        if device in ("gpu0", "host") or device.startswith("gpu0/"):
            for phase, t in node.timeline.phase_breakdown(device).items():
                out[phase] = out.get(phase, 0.0) + t
    return out


def serve_once(engine, requests, analysis: bool):
    """Serve the stream from zeroed clocks; returns (result, host s)."""
    engine.node.reset_clocks()
    with scoped_registry():
        t0 = perf_counter()
        result = engine.serve(requests, seed=PROGRAM_SEED,
                              analysis=analysis)
        host = perf_counter() - t0
    return result, host


def capture_topk(engine) -> list[np.ndarray]:
    """Collect every served top-k list of a recsys engine."""
    lists: list[np.ndarray] = []
    if isinstance(engine, RecsysEngine):
        execute = engine._execute

        def recording(seeds, rank, rng):
            out = execute(seeds, rank, rng)
            lists.append(engine._last_topk.copy())
            return out

        engine._execute = recording
    return lists


def check_served(engine, result, topk, n: int, ledger: Ledger,
                 reference=None) -> None:
    """Served outputs: valid answers, and repeat serves bit-identical."""
    if isinstance(engine, RecsysEngine):
        lists = np.concatenate(topk) if topk else np.empty((0, TOP_K))
        del topk[:]
        catalogue = engine.item_nodes
        ok_rows = (
            np.array([np.unique(r).size == TOP_K for r in lists],
                     dtype=bool)
            & np.isin(lists, catalogue).all(axis=1)
        ) if lists.size else np.zeros(0, dtype=bool)
        bad = n - int(ok_rows.sum())
    else:
        classes = engine.store.num_classes
        preds = result.predictions
        bad = int(np.count_nonzero((preds < 0) | (preds >= classes)))
    ledger.ops(n, True, "")
    ledger.check(bad == 0, bad, f"{bad} served answers invalid")
    if reference is not None:
        same = np.array_equal(result.latencies, reference.latencies)
        ledger.check(same, n, "repeat serve latencies differ")


def pinned_loss(workload: str, seed: int) -> float | None:
    """The warm-up loss pinned for this workload and seed, if any."""
    if not PINNED.is_file():
        return None
    return json.loads(PINNED.read_text()).get(workload, {}).get(str(seed))


def warm_up(wl, seed: int, trainer, ledger: Ledger):
    """The untimed first epoch and the checks pinned to it."""
    stats, host, reg, phases = run_epoch(trainer)
    n = stats.iterations
    ledger.ops(n, math.isfinite(stats.mean_loss), "warm-up loss not finite")
    pinned = pinned_loss(wl.name, seed)
    if pinned is not None:
        ledger.check(
            abs(stats.mean_loss - pinned) <= LOSS_RTOL * abs(pinned), n,
            f"warm-up loss {stats.mean_loss!r} != pinned {pinned!r}",
        )
    # three ledgers kept apart by the program: the trainer's EpochStats,
    # the registry's phase_seconds_total and rank 0's clock (which the
    # pipelined schedule charges with the exposed train time only)
    for phase, total in stats.times.as_dict().items():
        others = {"registry": reg.total("phase_seconds_total", phase=phase)}
        if phase != "train" or not wl.trainer.get("overlap"):
            others["gpu0 clock"] = trainer.node.timeline.phase_total(
                phase, "gpu0"
            )
        for where, other in others.items():
            ledger.check(
                math.isclose(total, other, rel_tol=PHASE_RTOL), n,
                f"{phase}: EpochStats {total!r} != {where} {other!r}",
            )
    if wl.auc_floor is not None:
        auc = trainer.evaluate_linkpred()
        ledger.check(auc > wl.auc_floor, n,
                     f"AUC {auc:.4f} below floor {wl.auc_floor}")
        print(f"  held-out AUC after warm-up: {auc:.4f} "
              f"(floor {wl.auc_floor})")
    print(f"  warm-up epoch: {n} iterations, loss {stats.mean_loss!r} "
          f"(pinned: {'n/a' if pinned is None else repr(pinned)}), "
          f"{host:.2f} host s")
    return stats, reg, phases


# -- the untraced run: end-to-end metrics -------------------------------------


def run_untraced(wl, seed: int, seconds: float, ledger: Ledger,
                 clock: HostClock) -> dict:
    setups, (dataset, trainer) = repeat_timed(lambda: setup(wl, seed))
    warm, _, _ = warm_up(wl, seed, trainer, ledger)

    builds, engine = repeat_timed(lambda: build_engine(wl, dataset, trainer))
    requests = request_stream(wl, dataset, trainer, seed)
    topk = capture_topk(engine)
    first, _ = serve_once(engine, requests, analysis=True)
    check_served(engine, first, topk, len(requests), ledger)

    # the timed window interleaves training chunks with serve calls over
    # short slices of the stream, so both see the same host conditions;
    # each sample's rate is kept raw and calibrated
    per_chunk = wl.chunk_iterations * wl.examples_per_iteration(trainer)
    pieces = [requests[i:i + SERVE_PIECE]
              for i in range(0, len(requests), SERVE_PIECE)]
    references: dict[int, object] = {}
    rates: dict[str, list] = {"train": [], "serve": []}
    raw: dict[str, list] = {"train": [], "serve": []}
    spent = {"train": 0.0, "serve": 0.0}
    losses = []
    clock.prime()
    deadline = perf_counter() + seconds
    while (perf_counter() < deadline
           or min(len(v) for v in rates.values()) < MIN_SAMPLES):
        if spent["train"] <= TRAIN_SHARE * sum(spent.values()):
            kind, count = "train", per_chunk
            stats, host, _, _ = run_epoch(trainer, wl.chunk_iterations)
            ledger.ops(stats.iterations, math.isfinite(stats.mean_loss),
                       "training loss not finite")
            losses.append(stats.mean_loss)
        else:
            i = len(rates["serve"]) % len(pieces)
            kind, count = "serve", len(pieces[i])
            result, host = serve_once(engine, pieces[i], analysis=False)
            check_served(engine, result, topk, count, ledger,
                         reference=references.setdefault(i, result))
        rates[kind].append(count / (host * clock.scale()))
        raw[kind].append(count / host)
        spent[kind] += host
    learned = statistics.median(losses[-5:]) < warm.mean_loss
    ledger.check(learned, ledger.attempted, "training loss did not fall")

    latency = first.report.latency
    values = {
        "train_samples_per_s": statistics.median(rates["train"]),
        "sim_epoch_ms": warm.epoch_time * 1e3,
        "setup_s": statistics.median(setups) + statistics.median(builds),
        "peak_rss_mb": peak_rss_mb(),
        "serve_requests_per_s": statistics.median(rates["serve"]),
        "sim_serve_p50_us": latency["p50"] * 1e6,
        "sim_serve_p99_us": latency["p99"] * 1e6,
    }
    speed = statistics.median(clock.kernel_times) / NOMINAL_S
    print(f"  host speed: reference kernel at {speed:.2f}x its nominal "
          f"time (median of {len(clock.kernel_times)} timings)")
    print(f"  timed training: {len(rates['train'])} chunks x "
          f"{wl.chunk_iterations} iterations x "
          f"{per_chunk // wl.chunk_iterations} examples; raw median "
          f"{statistics.median(raw['train']):.1f} examples/s")
    print(f"  timed serving: {len(rates['serve'])} slices of {SERVE_PIECE} "
          f"requests; raw median {statistics.median(raw['serve']):.1f} "
          f"requests/s")
    print(f"  simulated serving: {len(requests)} requests at "
          f"{first.report.qps:.0f} qps, occupancy "
          f"{first.report.batch_occupancy['mean']:.2f}")
    print(f"  set-up: median of {len(setups)}, "
          f"{statistics.median(setups):.3f} s; engine build: median of "
          f"{len(builds)}, {statistics.median(builds):.3f} s")
    return values


def repeat_timed(build):
    """Time ``build()`` at least :data:`SETUP_MIN_REPEATS` times and for
    :data:`SETUP_MIN_SECONDS`; returns (host seconds each, last result)."""
    times = []
    while (len(times) < SETUP_MIN_REPEATS
           or (sum(times) < SETUP_MIN_SECONDS
               and len(times) < SETUP_MAX_REPEATS)):
        result = None  # one instance alive at a time: steady peak memory
        gc.collect()
        t0 = perf_counter()
        result = build()
        times.append(perf_counter() - t0)
    return times, result


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the traced run: per-layer metrics ----------------------------------------


def same_epoch(a, b, pa, pb) -> bool:
    """Bit-identical loss, simulated epoch time and phase totals."""
    return (a.mean_loss == b.mean_loss and a.epoch_time == b.epoch_time
            and pa == pb)


def run_traced(wl, seed: int, seconds: float, ledger: Ledger) -> dict:
    ds_a, a = setup(wl, seed)
    ds_b, b = setup(wl, seed)
    warm, warm_reg, warm_phases = warm_up(wl, seed, a, ledger)
    wb, _, _, pb = run_epoch(b)
    ledger.ops(wb.iterations, same_epoch(warm, wb, warm_phases, pb),
               "second instance's warm-up differs")

    tracer = Tracer()
    ea, _, _, pa = run_epoch(a)
    rows0 = _rows_touched(b)
    with tracer.install():
        eb, host_b, reg_b, pb = run_epoch(b)
    rows_touched = _rows_touched(b) - rows0
    ledger.ops(ea.iterations, True, "")
    ledger.ops(eb.iterations, same_epoch(ea, eb, pa, pb),
               "traced epoch differs from untraced")
    train_snap = tracer.snapshot()

    eng_a, eng_b = build_engine(wl, ds_a, a), build_engine(wl, ds_b, b)
    requests = request_stream(wl, ds_a, a, seed)
    n = len(requests)
    topk_a, topk_b = capture_topk(eng_a), capture_topk(eng_b)
    sa, _ = serve_once(eng_a, requests, analysis=True)
    check_served(eng_a, sa, topk_a, n, ledger)
    with tracer.install():
        sb, serve_host_b = serve_once(eng_b, requests, analysis=True)
    check_served(eng_b, sb, topk_b, n, ledger, reference=sa)
    unit = tracer.snapshot()
    wall = host_b + serve_host_b

    # lockstep chunks: the same work untraced on A, traced on B, taking
    # turns at going first so neither side gains from running second
    per_chunk = wl.chunk_iterations * wl.examples_per_iteration(a)
    untraced, traced = [], []

    def traced_chunk():
        with tracer.install():
            return run_epoch(b, wl.chunk_iterations)

    deadline = perf_counter() + seconds * TRAIN_SHARE
    while perf_counter() < deadline or len(traced) < MIN_SAMPLES:
        if len(traced) % 2:
            cb, hb, _, pb = traced_chunk()
            ca, ha, _, pa = run_epoch(a, wl.chunk_iterations)
        else:
            ca, ha, _, pa = run_epoch(a, wl.chunk_iterations)
            cb, hb, _, pb = traced_chunk()
        ledger.ops(ca.iterations, math.isfinite(ca.mean_loss),
                   "training loss not finite")
        ledger.ops(cb.iterations, same_epoch(ca, cb, pa, pb),
                   "traced chunk differs from untraced")
        untraced.append(per_chunk / ha)
        traced.append(per_chunk / hb)

    stats = unit["stats"]
    self_total = sum(ns for _, ns in stats.values()) / 1e9
    ledger.check(self_total <= wall, 1,
                 f"self times {self_total} exceed traced wall {wall}")
    values: dict[str, float] = {}
    for b in BOUNDARIES:
        calls, ns = stats[b.name]
        values[f"{b.name}.calls"] = calls
        values[f"{b.name}.self_s"] = ns / 1e9
    work = unit["work"]
    values["ops.sampler.edges"] = reg_b.total("sampler_edges_total")
    values["ops.append_unique.unique_ratio"] = (
        work["unique"] / work["appended"] if work["appended"] else 0.0
    )
    for link in ("nvlink", "pcie", "disk"):
        values[f"dsm.gather_bytes.{link}"] = reg_b.total(
            "gather_link_bytes_total", link=link
        )
    values["dsm.embed_rows_touched"] = rows_touched
    for phase in SIM_PHASES:
        values[f"sim.phase.{phase}_ms"] = warm_phases.get(phase, 0.0) * 1e3
    fetch = warm_reg.total("host_fetch_seconds_total")
    values["sim.host_fetch_exposed_frac"] = (
        warm_reg.total("host_fetch_exposed_seconds_total") / fetch
        if fetch else 0.0
    )
    report = sb.report
    values["serve.occupancy_mean"] = report.batch_occupancy["mean"]
    tail = report.latency_blame["p99_tail"]["fraction"]
    for stage in ("queue_wait", "sample", "gather", "infer"):
        values[f"serve.p99_blame.{stage}"] = tail[stage]
    for module, share in module_shares(stats, wall).items():
        values[f"{module}.total.self_share"] = share
    values["trace.wall_s"] = wall
    values["trace.untraced_samples_per_s"] = statistics.median(untraced)
    values["trace.traced_samples_per_s"] = statistics.median(traced)
    values["tracing_overhead_frac"] = (
        values["trace.untraced_samples_per_s"]
        / values["trace.traced_samples_per_s"] - 1.0
    )
    print_layers(stats, train_snap["stats"], wall, host_b, serve_host_b)
    print(f"  tracing overhead: {values['tracing_overhead_frac']:+.3f} "
          f"(untraced {values['trace.untraced_samples_per_s']:.1f} / traced "
          f"{values['trace.traced_samples_per_s']:.1f} examples/s, medians "
          f"of {len(traced)} lockstep chunk pairs)")
    return values


def _rows_touched(trainer) -> int:
    emb = trainer.embedding
    return emb.grad_stats["rows_touched"] if emb is not None else 0


def module_shares(stats, wall: float) -> dict[str, float]:
    """Each module's summed self time as a share of ``wall`` seconds."""
    return {
        m: sum(ns for k, (_, ns) in stats.items() if k.split(".")[0] == m)
        / 1e9 / wall
        for m in MODULES
    }


def print_layers(stats, train_stats, wall, train_wall, serve_wall) -> None:
    """Self time per boundary as a share of the traced wall time, and of
    the traced epoch's wall time for the training part alone."""
    print(f"  traced unit: one epoch ({train_wall:.3f} s) + one serve of the "
          f"stream ({serve_wall:.3f} s) = {wall:.3f} host s")
    print(f"  {'boundary':<26}{'calls':>9}{'self_s':>10}{'share':>8}"
          f"{'train':>8}")
    rows = sorted(stats.items(), key=lambda kv: -kv[1][1])
    for name, (calls, ns) in rows:
        if calls:
            print(f"  {name:<26}{calls:>9}{ns / 1e9:>10.4f}"
                  f"{ns / 1e9 / wall:>8.1%}"
                  f"{train_stats[name][1] / 1e9 / train_wall:>8.1%}")
    shares = module_shares(stats, wall)
    print("  module self shares: " + ", ".join(
        f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda x: -x[1])
    ))


# -- entry point ---------------------------------------------------------------


def result_line(ledger: Ledger, values: dict, names: dict) -> str:
    """The JSON result: exactly the contract's four keys."""
    return json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": min(ledger.failed, ledger.attempted),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in names.items()
        },
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    ledger = Ledger()
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")

    if args.pin:
        _, trainer = setup(wl, args.seed)
        stats, _, _, _ = run_epoch(trainer)
        print(json.dumps({"seed": args.seed, "loss": stats.mean_loss}))
        return 0

    if args.trace:
        values = run_traced(wl, args.seed, args.seconds, ledger)
        names = {k: v[0] for k, v in per_layer().items()}
    else:
        with HostClock() as clock:
            values = run_untraced(wl, args.seed, args.seconds, ledger, clock)
        names = {k: v[0] for k, v in END_TO_END.items()}
        for name, unit in names.items():
            print(f"  {name:<22}{values[name]:>16.4f} {unit}")
    frac = ledger.failed / max(ledger.attempted, 1)
    print(f"  failed_frac {frac:.4f} ({ledger.failed} of {ledger.attempted} "
          f"iterations + served requests)")
    for problem in ledger.problems:
        print(f"  FAILED CHECK: {problem}")
    print(result_line(ledger, values, names))
    return 0


if __name__ == "__main__":
    sys.exit(main())
