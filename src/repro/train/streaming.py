"""Streaming prefetch loader for out-of-core training (host/disk tier).

When features spill below HBM (``tier="tiered"`` on the graph store), every
mini-batch's gather pays the zero-copy PCIe hop — and, for cold rows, the
disk staging chain.  Paying that synchronously would put the whole transfer
on the iteration's critical path.  This module pipelines it instead, on the
event-driven scheduler (:mod:`repro.sim`):

- a **dedicated host stream** carries the disk->host->HBM transfers: each
  prefetched batch is sampled on the compute stream (the sampling kernels
  are GPU work either way), its frontier split into HBM-cached hits and
  tier rows, and the tier fetch launched on the host stream with the
  :meth:`~repro.dsm.tiered_tensor.TieredTensor.fetch_time` duration;
- the **consume** op — reading the now-staged rows plus cache hits out of
  HBM — launches on the compute streams *depending on the fetch event*.
  The scheduler charges only the dependency stall (the exposed tail, a
  non-busy ``host_fetch_wait`` span); transfer time hidden behind the
  previous batches' train compute costs nothing on the GPU clocks.

A depth-``prefetch_depth`` queue keeps that many batches in flight; the
host stream is FIFO, so in-flight transfers serialise behind each other
exactly like a real copy engine.  Exposed/hidden seconds land in the
``host_fetch_*_seconds_total`` ledgers (mirroring the grad-sync books) and
feed the overlap report and the analysis CI gate.

The functional math is untouched: sampling and feature rows are the same
NumPy values the sequential schedule produces, and both schedules consume
the sampling and dropout RNG streams in batch order — the trained model is
bit-identical to a non-streaming run at equal seeds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import config
from repro.dsm.tiered_tensor import TieredTensor
from repro.hardware import costmodel
from repro.ops.neighbor_sampler import NeighborSampler, SampledSubgraph
from repro.telemetry import metrics
from repro.train.metrics import PhaseTimes
from repro.train.pipeline import BatchLoader, train_span_args

__all__ = ["StreamingLoader"]


@dataclass
class _StagedBatch:
    """One in-flight prefetch: sampled subgraph, features, fetch event."""

    subgraph: SampledSubgraph
    features: np.ndarray
    #: host-stream completion event of the tier fetch
    event: object
    #: host-stream transfer duration (the full fetch, hidden or not)
    fetch_time: float
    #: tier fetch span args (rows / bytes / host_bytes / disk_bytes)
    fetch_args: dict
    #: rows served from the rank's HBM cache (no host transfer needed)
    cache_hits: int


class StreamingLoader(BatchLoader):
    """Prefetching loader over a tiered :class:`MultiGpuGraphStore`.

    Drives the out-of-core epoch: :meth:`prefetch` runs up to
    ``prefetch_depth`` batches ahead and :meth:`take` consumes the current
    one; tier transfers ride the host stream and only their exposed tails
    stall the compute streams.  There is no per-iteration barrier: the
    grad-sync join aligns the compute streams, while the host clock is
    free to run ahead into future batches' transfers.
    """

    barrier = False

    def __init__(
        self,
        store,
        sampler: NeighborSampler,
        rank: int = 0,
        prefetch_depth: int | None = None,
    ):
        tensor = store.feature_tensor
        if not isinstance(tensor, TieredTensor):
            raise ValueError(
                "the streaming loader needs tiered features — build the "
                "store with tier='tiered'"
            )
        cache = store.feature_cache
        if cache is not None and cache.policy != "static":
            raise ValueError(
                "streaming prefetch plans against a stable cache hit set; "
                "use the static cache policy (or no cache)"
            )
        if prefetch_depth is None:
            prefetch_depth = config.PREFETCH_DEPTH
        if prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        self.store = store
        self.sampler = sampler
        self.rank = rank
        self.node = store.node
        self.tensor = tensor
        self.cache = cache
        self.prefetch_depth = int(prefetch_depth)
        self._queue: deque[_StagedBatch] = deque()
        self.times = PhaseTimes()
        #: sample duration of the most recent :meth:`prefetch`
        self.last_sample_time = 0.0
        #: consume (HBM read) duration of the most recent :meth:`take`
        self.last_consume_time = 0.0
        #: exposed host-transfer stall of the most recent :meth:`take`
        self.last_exposed_time = 0.0

    @property
    def in_flight(self) -> int:
        return len(self._queue)

    def _split_cached(self, rows: np.ndarray) -> tuple[int, np.ndarray]:
        """``(cache hits, rows needing a tier fetch)`` for the frontier."""
        if self.cache is None or rows.size == 0:
            return 0, rows
        st = self.cache._ranks[self.rank]
        hit = st.slot_of[rows] >= 0
        return int(np.count_nonzero(hit)), rows[~hit]

    def prefetch(self, seeds: np.ndarray, rng: np.random.Generator) -> float:
        """Sample ``seeds`` and launch its tier fetch on the host stream.

        Sampling runs on the compute streams (it is GPU work under either
        schedule); the host stream then carries the frontier's warm/cold
        transfer.  Returns the launched transfer duration.
        """
        if len(self._queue) >= self.prefetch_depth:
            raise RuntimeError(
                f"prefetch queue full ({self.prefetch_depth} in flight) — "
                "take() a batch first"
            )
        node = self.node
        streams = node.streams
        clock = node.gpu_clock[self.rank]

        t0 = clock.now
        sg = self.sampler.sample(seeds, self.rank, rng)
        t_sample = clock.now - t0
        for r in range(node.num_gpus):
            if r != self.rank:
                streams.compute(r).launch(t_sample, phase="sample")

        rows = sg.input_nodes
        x_np = self.tensor.gather_no_cost(rows)
        cache_hits, fetch_rows = self._split_cached(rows)
        t_fetch, fargs = self.tensor.fetch_time(fetch_rows)
        injector = node.fault_injector
        if injector is not None:
            t_fetch = injector.scale_gather_time(
                t_fetch, 1.0, node.host_clock.now, node.node_id
            )
            injector.charge_gather_retries(
                node.host_clock, phase="gather_retry", node_id=node.node_id
            )
        event = streams.host().launch(
            t_fetch, phase="host_fetch", category="gather", args=dict(fargs)
        )
        self.tensor._account(fargs, t_fetch, event.time)

        reg = metrics.get_registry()
        reg.counter("phase_seconds_total", phase="sample").inc(t_sample)
        self.times += PhaseTimes(sample=t_sample)
        self._queue.append(
            _StagedBatch(
                subgraph=sg, features=x_np, event=event,
                fetch_time=t_fetch, fetch_args=fargs, cache_hits=cache_hits,
            )
        )
        self.last_sample_time = t_sample
        return t_fetch

    def take(self) -> tuple[SampledSubgraph, np.ndarray]:
        """Consume the oldest staged batch for training.

        Launches the HBM read of the staged rows (plus cache hits) on every
        compute stream behind the fetch event — if the transfer is still in
        flight, the dependency stall lands as a non-busy ``host_fetch_wait``
        span: the *exposed* portion of the host transfer, and nothing more.
        """
        if not self._queue:
            raise RuntimeError("nothing staged — call prefetch() first")
        staged = self._queue.popleft()
        node = self.node
        streams = node.streams
        tensor = self.tensor
        rows = staged.subgraph.input_nodes
        nbytes = int(rows.size * tensor.row_bytes)
        t_consume = costmodel.cached_gather_time(
            nbytes, 0.0, tensor.row_bytes
        )
        stall = max(
            0.0, staged.event.time - node.gpu_clock[self.rank].now
        )
        # the ledger decomposes each transfer exactly: a stall longer than
        # the transfer itself (queueing behind earlier fetches) is capped —
        # the excess is still on the timeline as the host_fetch_wait span
        exposed = min(stall, staged.fetch_time)
        hidden = staged.fetch_time - exposed
        span_args = {
            "rows": int(rows.size),
            "bytes": nbytes,
            "cache_hits": staged.cache_hits,
            "staged": True,
            "fetch_s": staged.fetch_time,
            "exposed_s": exposed,
            "stall_s": stall,
            "tensor": tensor.tag,
        }
        for r in range(node.num_gpus):
            streams.compute(r).launch(
                t_consume, deps=(staged.event,), phase="gather",
                category="gather", wait_phase="host_fetch_wait",
                args=span_args,
            )

        staged_bytes = int(staged.fetch_args["bytes"])
        tensor.stats["staged_bytes"] += staged_bytes
        now = node.gpu_clock[self.rank].now
        reg = metrics.get_registry()
        reg.counter("phase_seconds_total", phase="gather").inc(t_consume)
        reg.counter("iterations_total", schedule="streaming").inc(1)
        # the staged read is a local HBM gather; the PCIe/disk bytes were
        # booked when the fetch launched (TieredTensor._account)
        reg.counter("gather_link_bytes_total", link="hbm").inc(nbytes, t=now)
        reg.counter("host_fetch_seconds_total").inc(staged.fetch_time)
        reg.counter("host_fetch_exposed_seconds_total").inc(exposed)
        reg.counter("host_fetch_hidden_seconds_total").inc(hidden)
        if self.cache is not None:
            misses = rows.size - staged.cache_hits
            hit_bytes = staged.cache_hits * tensor.row_bytes
            st = self.cache._ranks[self.rank].stats
            st["gather_calls"] += 1
            st["hits"] += staged.cache_hits
            st["misses"] += misses
            st["hit_bytes"] += hit_bytes
            st["miss_bytes"] += misses * tensor.row_bytes
            st["remote_bytes_saved"] += hit_bytes
            st["gather_time"] += t_consume
            reg.counter("cache_requests_total").inc(rows.size)
            reg.counter("cache_hits_total").inc(staged.cache_hits)
            reg.counter("cache_misses_total").inc(misses)
            reg.counter("cache_remote_bytes_saved_total").inc(hit_bytes)
            total = (
                reg.total("cache_hits_total")
                + reg.total("cache_misses_total")
            )
            reg.gauge("cache_hit_rate").set(
                reg.total("cache_hits_total") / total if total else 0.0,
                t=now,
            )
        self.last_consume_time = t_consume
        self.last_exposed_time = exposed
        self.times += PhaseTimes(gather=t_consume)
        self._subgraph = staged.subgraph
        return staged.subgraph, staged.features

    def charge_train(self, train_time: float) -> float:
        """Launch the full train time on every compute stream.

        The overlap with in-flight transfers is already priced by the fetch
        events; returns ``train_time``.
        """
        node = self.node
        for r in range(node.num_gpus):
            node.streams.compute(r).launch(
                train_time, phase="train", category="compute",
                args=train_span_args(self._subgraph),
            )
        metrics.get_registry().counter(
            "phase_seconds_total", phase="train"
        ).inc(train_time)
        return train_time
