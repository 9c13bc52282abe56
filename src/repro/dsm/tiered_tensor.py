"""Out-of-core storage tier beneath the DSM: pinned host + NVMe disk.

Graphs whose features exceed aggregate HBM spill into two tiers below the
device-resident WholeMemory:

- **warm** — the hottest spilled rows live in *pinned* host DRAM and are
  read zero-copy over PCIe (the PyTorch-Direct regime: GPU threads load
  host cache lines directly, paying the 16 GB/s shared uplink instead of
  NVLink);
- **cold** — the tail lives on the node-local NVMe scratch and is staged
  disk->host (aligned-block reads into a pinned staging area) before the
  same zero-copy hop.

Placement is by hotness (degree order, the access-frequency proxy neighbor
sampling induces): with ``host_pinned_fraction=f``, the hottest ``f`` of
the rows are warm and the rest cold.  Layered on top, the *hot* tier is the
existing per-rank HBM :class:`~repro.dsm.feature_cache.FeatureCache` —
:class:`TieredFeatureCache` reprices its misses at the host/disk regime
while keeping hits on the local HBM curve, completing the
hot-HBM / warm-host / cold-disk hierarchy.

Both classes keep the repo's two coupled behaviours: gathers really move
NumPy rows (bit-identical to a device gather), and every access charges the
calling GPU's clock through the zero-copy cost regime in
:mod:`repro.hardware.costmodel`, stamping ``host_bytes``/``disk_bytes``
span args that feed the per-tier ledgers, critical-path link blame and the
``host_bw_2x`` what-if knob.
"""

from __future__ import annotations

import numpy as np

from repro import config
from repro.dsm.feature_cache import FeatureCache
from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.telemetry import metrics

__all__ = ["TIER_HOST", "TIER_DISK", "TieredTensor", "TieredFeatureCache"]

#: tier codes of :attr:`TieredTensor.tier_of`
TIER_HOST = 0
TIER_DISK = 1


class TieredTensor:
    """A ``(num_rows, num_cols)`` array spilled out of HBM.

    The warm fraction is pinned in host DRAM (allocated against the node's
    host memory, like :class:`~repro.dsm.host_tensor.HostPinnedTensor`);
    the cold tail lives on disk and only its staging buffer counts against
    host DRAM.  Mirrors the ``WholeTensor`` gather API so the graph store
    (and the trainer above it) can swap storage locations transparently.
    """

    def __init__(
        self,
        node: SimNode,
        num_rows: int,
        num_cols: int,
        dtype=np.float32,
        tag: str = "tiered",
        host_pinned_fraction: float | None = None,
        hotness: np.ndarray | None = None,
        pinned: bool = True,
    ):
        """``host_pinned_fraction`` defaults to
        :data:`repro.config.HOST_PINNED_FRACTION`.  ``hotness`` ranks rows
        for placement (hottest = largest value, typically node degree);
        without it, the lowest row IDs are warm.  ``pinned=False`` models
        pageable host memory (every read bounces through a driver staging
        buffer at :data:`~repro.config.HOST_PAGEABLE_BW_FACTOR` of the
        pinned rate)."""
        if host_pinned_fraction is None:
            host_pinned_fraction = config.HOST_PINNED_FRACTION
        if not 0.0 <= host_pinned_fraction <= 1.0:
            raise ValueError("host_pinned_fraction must be within [0, 1]")
        self.node = node
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.dtype = np.dtype(dtype)
        self.row_bytes = self.num_cols * self.dtype.itemsize
        self.tag = tag
        self.pinned = bool(pinned)
        self.host_pinned_fraction = float(host_pinned_fraction)

        n_host = int(round(self.host_pinned_fraction * self.num_rows))
        n_host = min(max(n_host, 0), self.num_rows)
        self.host_rows = n_host
        self.disk_rows = self.num_rows - n_host
        if hotness is not None:
            hotness = np.asarray(hotness)
            if hotness.shape[0] != self.num_rows:
                raise ValueError("need one hotness value per row")
            order = np.argsort(-hotness, kind="stable")
        else:
            order = np.arange(self.num_rows, dtype=np.int64)
        #: tier of each row (:data:`TIER_HOST` or :data:`TIER_DISK`)
        self.tier_of = np.full(self.num_rows, TIER_DISK, dtype=np.int8)
        self.tier_of[order[:n_host]] = TIER_HOST

        # host DRAM accounting: the warm rows plus the disk staging area
        staging = config.DISK_BLOCK_BYTES * config.PREFETCH_DEPTH
        self._allocation = node.host_memory.allocate(
            n_host * self.row_bytes + staging, tag=tag
        )
        self._data = np.zeros((self.num_rows, self.num_cols), dtype=self.dtype)
        self.stats = {
            "gather_calls": 0,
            "gather_rows": 0,
            "gather_bytes": 0,
            "host_bytes": 0,
            "disk_bytes": 0,
            "staged_bytes": 0,
            "gather_time": 0.0,
        }

    # -- layout ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_bytes

    def _check_rows(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(f"row index out of range [0, {self.num_rows})")
        return rows

    def tier_split(self, rows: np.ndarray) -> tuple[int, int]:
        """``(warm_rows, cold_rows)`` of an (already validated) row set."""
        host = int(np.count_nonzero(self.tier_of[rows] == TIER_HOST))
        return host, int(rows.size) - host

    # -- load ------------------------------------------------------------------

    def load_from_host(self, array: np.ndarray, phase: str = "load") -> float:
        """Populate from a host array (DRAM memcpy + disk write-behind —
        charged to nobody, matching ``HostPinnedTensor.load_from_host``)."""
        self._data[:] = np.asarray(array, dtype=self.dtype).reshape(
            self.num_rows, self.num_cols
        )
        return 0.0

    # -- pricing ---------------------------------------------------------------

    def fetch_time(self, rows) -> tuple[float, dict]:
        """Host-tier fetch cost of ``rows`` plus the trace span args.

        Touches no clock: :meth:`gather` charges it inline on the calling
        rank, while the streaming loader launches the same duration on the
        dedicated host stream and lets the consumer depend on its event.
        """
        rows = self._check_rows(rows)
        host_rows, disk_rows = self.tier_split(rows)
        host_bytes = host_rows * self.row_bytes
        disk_bytes = disk_rows * self.row_bytes
        t = costmodel.tiered_gather_time(
            host_bytes, disk_bytes, self.row_bytes, pinned=self.pinned
        )
        args = {
            "rows": int(rows.size),
            "bytes": int(host_bytes + disk_bytes),
            "host_bytes": int(host_bytes),
            "disk_bytes": int(disk_bytes),
            "tensor": self.tag,
        }
        return t, args

    # -- gathers ---------------------------------------------------------------

    def gather(self, rows, rank: int, phase: str = "gather") -> np.ndarray:
        """Synchronous tier gather onto GPU ``rank``.

        Warm rows arrive zero-copy over PCIe; cold rows pay the disk->host
        staging chain first.  Fault hooks mirror ``WholeTensor.gather``
        with a remote fraction of 1.0 — every byte crosses the host fabric.
        """
        rows = self._check_rows(rows)
        out = self._data[rows]
        t, args = self.fetch_time(rows)
        clock = self.node.gpu_clock[rank]
        injector = self.node.fault_injector
        if injector is not None:
            t = injector.scale_gather_time(
                t, 1.0, clock.now, self.node.node_id
            )
            injector.charge_gather_retries(
                clock, phase="gather_retry", node_id=self.node.node_id
            )
        clock.advance(t, phase=phase, category="gather", args=args)
        self._account(args, t, clock.now)
        return out

    def gather_staged(
        self, rows, rank: int, phase: str = "gather"
    ) -> np.ndarray:
        """Consume rows the streaming loader already staged into HBM.

        The host->HBM transfer was charged on the host stream; reading the
        staging buffer is a local HBM gather.
        """
        rows = self._check_rows(rows)
        out = self._data[rows]
        nbytes = int(rows.size * self.row_bytes)
        t = costmodel.cached_gather_time(nbytes, 0.0, self.row_bytes)
        clock = self.node.gpu_clock[rank]
        clock.advance(
            t, phase=phase, category="gather",
            args={"rows": int(rows.size), "bytes": nbytes, "staged": True,
                  "tensor": self.tag},
        )
        self.stats["staged_bytes"] += nbytes
        reg = metrics.get_registry()
        reg.counter("gather_requests_total", tensor=self.tag).inc(1)
        reg.counter("gather_rows_total", tensor=self.tag).inc(rows.size)
        reg.counter("gather_link_bytes_total", link="hbm").inc(
            nbytes, t=clock.now
        )
        reg.counter("gather_seconds_total", tensor=self.tag).inc(t)
        reg.histogram("gather_rows_per_call", tensor=self.tag).observe(
            rows.size
        )
        return out

    def gather_no_cost(self, rows) -> np.ndarray:
        """Functional gather without clock charging (evaluation paths)."""
        return self._data[self._check_rows(rows)]

    def _account(self, args: dict, t: float, now: float) -> None:
        st = self.stats
        st["gather_calls"] += 1
        st["gather_rows"] += args["rows"]
        st["gather_bytes"] += args["bytes"]
        st["host_bytes"] += args["host_bytes"]
        st["disk_bytes"] += args["disk_bytes"]
        st["gather_time"] += t
        reg = metrics.get_registry()
        reg.counter("gather_requests_total", tensor=self.tag).inc(1)
        reg.counter("gather_rows_total", tensor=self.tag).inc(args["rows"])
        # per-link ledger: warm bytes ride PCIe, cold bytes are attributed
        # to the disk stage (their PCIe hop is implied by the chain)
        reg.counter("gather_link_bytes_total", link="pcie").inc(
            args["host_bytes"], t=now
        )
        reg.counter("gather_link_bytes_total", link="disk").inc(
            args["disk_bytes"], t=now
        )
        reg.counter("gather_seconds_total", tensor=self.tag).inc(t)
        reg.counter("tier_gather_bytes_total", tier="host").inc(
            args["host_bytes"]
        )
        reg.counter("tier_gather_bytes_total", tier="disk").inc(
            args["disk_bytes"]
        )
        reg.histogram("gather_rows_per_call", tensor=self.tag).observe(
            args["rows"]
        )

    # -- lifecycle --------------------------------------------------------------

    def free(self) -> None:
        self.node.host_memory.free(self._allocation)
        self._data = None


class TieredFeatureCache(FeatureCache):
    """Hot-row HBM cache whose misses pay the host/disk tier.

    Reuses the base class's per-rank cache arrays, CLOCK policy and
    statistics wholesale, and fills misses with the same one ``_data`` read;
    only the pricing (zero-copy PCIe + disk staging instead of the NVLink
    curve) differs.  Hits stream from local
    HBM concurrently with the miss chain, so the slower side dominates —
    the same in-kernel overlap as ``cached_gather_time``.
    """

    def __init__(self, tensor: TieredTensor, capacity_rows: int, **kwargs):
        if not isinstance(tensor, TieredTensor):
            raise TypeError("TieredFeatureCache requires a TieredTensor")
        super().__init__(tensor, capacity_rows, **kwargs)

    def _fill_time(self, rows: np.ndarray) -> float:
        """Static prefill pulls the hot rows up from the host/disk tier."""
        t, _ = self.tensor.fetch_time(rows)
        return t + costmodel.elementwise_time(rows.size * self.row_bytes)

    def gather(self, rows, rank: int, phase: str = "gather") -> np.ndarray:
        tensor = self.tensor
        rows = tensor._check_rows(rows)
        st = self._ranks[rank]
        out = np.empty((rows.size, tensor.num_cols), dtype=tensor.dtype)

        slots = st.slot_of[rows] if rows.size else np.empty(0, dtype=np.int64)
        hit = slots >= 0
        num_hits = int(np.count_nonzero(hit))
        if num_hits:
            out[hit] = st.data[slots[hit]]
        miss = ~hit
        miss_rows = rows[miss]
        if miss_rows.size:
            out[miss] = tensor._data[miss_rows]

        # -- cost: hits stream from HBM, warm misses ride zero-copy PCIe,
        # cold misses chain disk staging + PCIe; all streams overlap
        # in-kernel so the slowest dominates
        host_miss, disk_miss = tensor.tier_split(miss_rows)
        rb = self.row_bytes
        host_bytes = host_miss * rb
        disk_bytes = disk_miss * rb
        hit_bytes = num_hits * rb
        bw = costmodel.zero_copy_host_bw(rb, pinned=tensor.pinned)
        t_warm = host_bytes / bw
        t_cold = 0.0
        if disk_bytes > 0:
            t_cold = (
                costmodel.disk_staging_time(disk_bytes) + disk_bytes / bw
            )
        t_local = hit_bytes / costmodel.local_random_read_bw(rb)
        t = config.KERNEL_LAUNCH_OVERHEAD + max(t_local, t_warm, t_cold)

        inserted = 0
        if self.policy == "clock" and self.capacity_rows > 0:
            st.ref[slots[hit]] = True
            inserted = self._insert_misses(st, rows, out, miss)
            if inserted:
                t += costmodel.elementwise_time(inserted * rb)
        self.node.gpu_clock[rank].advance(
            t, phase=phase, category="gather",
            args={"rows": int(rows.size), "cache_hits": num_hits,
                  "bytes": int(rows.size * rb),
                  "host_bytes": int(host_bytes),
                  "disk_bytes": int(disk_bytes),
                  "tensor": tensor.tag},
        )

        num_misses = rows.size - num_hits
        stats = st.stats
        stats["gather_calls"] += 1
        stats["hits"] += num_hits
        stats["misses"] += num_misses
        stats["hit_bytes"] += hit_bytes
        stats["miss_bytes"] += num_misses * rb
        # every hit is a PCIe/disk transfer the HBM cache eliminated
        stats["remote_bytes_saved"] += hit_bytes
        stats["gather_time"] += t

        reg = metrics.get_registry()
        now = self.node.gpu_clock[rank].now
        reg.counter("cache_requests_total").inc(rows.size)
        reg.counter("cache_hits_total").inc(num_hits)
        reg.counter("cache_misses_total").inc(num_misses)
        reg.counter("cache_remote_bytes_saved_total").inc(hit_bytes)
        reg.counter("gather_link_bytes_total", link="hbm").inc(
            hit_bytes, t=now
        )
        reg.counter("gather_link_bytes_total", link="pcie").inc(
            host_bytes, t=now
        )
        reg.counter("gather_link_bytes_total", link="disk").inc(
            disk_bytes, t=now
        )
        reg.counter("tier_gather_bytes_total", tier="host").inc(host_bytes)
        reg.counter("tier_gather_bytes_total", tier="disk").inc(disk_bytes)
        total = reg.total("cache_hits_total") + reg.total("cache_misses_total")
        reg.gauge("cache_hit_rate").set(
            reg.total("cache_hits_total") / total if total else 0.0, t=now
        )
        return out
