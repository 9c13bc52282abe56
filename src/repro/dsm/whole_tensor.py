"""WholeTensor: a typed 2-D array stored in WholeMemory.

This is the object WholeGraph stores node features (and CSR arrays) in:
rows are partitioned across GPUs in contiguous blocks, and any GPU can gather
an arbitrary set of rows in a single "kernel" — the shared-memory global
gather of paper §III-C3 (right side of Fig. 4).

Two coupled behaviours:

- **functional**: the rows live in one ``(num_rows, num_cols)`` array in
  global row order; ``gather``/``scatter`` are one fancy index each and
  ``local_part`` is a view of a rank's rows;
- **performance**: the device capacity is a size-only
  :class:`~repro.dsm.whole_memory.WholeMemory` (per-rank
  ``DeviceMemory`` reservations, IPC exchange, setup charge), and every
  access charges the calling GPU's clock using the Fig. 8 segment-size
  bandwidth curve, with the remote fraction computed from the actual owner
  distribution of the requested rows.

Full-scale footprints that do not fit host RAM (Table IV's ogbn-papers100M)
are modelled with a bare ``WholeMemory``, which allocates no host bytes.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.dsm.whole_memory import WholeMemory, split_evenly
from repro.telemetry import metrics


class WholeTensor:
    """A ``(num_rows, num_cols)`` array partitioned row-wise across GPUs."""

    def __init__(
        self,
        node: SimNode,
        num_rows: int,
        num_cols: int,
        dtype=np.float32,
        tag: str = "wholetensor",
        charge_setup: bool = True,
        rows_per_rank: list[int] | None = None,
        partition: str = "block",
    ):
        """``partition`` selects the row layout: ``"block"`` gives each rank
        one contiguous range (the layout the graph store's hash partition
        produces), ``"cyclic"`` deals rows round-robin (``owner = row % N``)
        — the balanced layout for arbitrary access patterns, matching the
        chunked/strided placements of the open-source WholeGraph.
        ``rows_per_rank`` is only meaningful for block partitions."""
        self.node = node
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.dtype = np.dtype(dtype)
        self.row_bytes = self.num_cols * self.dtype.itemsize
        self.tag = tag
        if partition not in ("block", "cyclic"):
            raise ValueError("partition must be 'block' or 'cyclic'")
        if partition == "cyclic" and rows_per_rank is not None:
            raise ValueError("cyclic partition derives rows_per_rank itself")
        self.partition = partition

        if partition == "cyclic":
            n = node.num_gpus
            rows_per_rank = [
                (self.num_rows - r + n - 1) // n for r in range(n)
            ]
        elif rows_per_rank is None:
            rows_per_rank = split_evenly(self.num_rows, node.num_gpus)
        elif (
            len(rows_per_rank) != node.num_gpus
            or sum(rows_per_rank) != self.num_rows
        ):
            raise ValueError(
                "rows_per_rank must have one entry per GPU and sum to num_rows"
            )
        self.rows_per_rank = [int(r) for r in rows_per_rank]
        self.memory = WholeMemory(
            node, [r * self.row_bytes for r in self.rows_per_rank], tag=tag,
            charge_setup=charge_setup,
        )
        self._data = np.zeros((self.num_rows, self.num_cols), dtype=self.dtype)

        self.row_offsets = np.concatenate(
            ([0], np.cumsum(self.rows_per_rank))
        ).astype(np.int64)
        #: cumulative access statistics (read by telemetry)
        self.stats = {
            "gather_calls": 0,
            "gather_rows": 0,
            "gather_bytes": 0,
            "gather_remote_bytes": 0,
            "gather_time": 0.0,
        }

    # -- layout --------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.num_rows, self.num_cols)

    @property
    def total_bytes(self) -> int:
        return self.num_rows * self.row_bytes

    def rank_of_row(self, rows) -> np.ndarray:
        """Owning rank of each (global) row index."""
        rows = np.asarray(rows, dtype=np.int64)
        if self.partition == "cyclic":
            return rows % self.node.num_gpus
        return np.searchsorted(self.row_offsets, rows, side="right").astype(
            np.int64, copy=False
        ) - 1

    def _owners_and_local(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map global rows to ``(owner rank, local index)`` per layout."""
        owners = self.rank_of_row(rows)
        if self.partition == "cyclic":
            return owners, rows // self.node.num_gpus
        return owners, rows - self.row_offsets[owners]

    def local_part(self, rank: int) -> np.ndarray:
        """The rows resident on ``rank`` (a view, not a copy)."""
        if self.partition == "cyclic":
            return self._data[rank :: self.node.num_gpus]
        return self._data[self.row_offsets[rank] : self.row_offsets[rank + 1]]

    def _remote_fraction(self, rows: np.ndarray, rank: int) -> float:
        """Share of ``rows`` owned by ranks other than ``rank``."""
        local = np.count_nonzero(self.rank_of_row(rows) == rank)
        return float(rows.size - local) / max(rows.size, 1)

    def _check_rows(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError(
                f"row index out of range [0, {self.num_rows}) "
                f"(got min={rows.min()}, max={rows.max()})"
            )
        return rows

    # -- bulk load (host -> device over PCIe) ---------------------------------

    def load_from_host(self, array: np.ndarray, phase: str = "load") -> float:
        """Populate the tensor from a host array, charging PCIe streams.

        Each rank DMA-copies its own partition concurrently; returns the
        simulated per-rank transfer time.
        """
        self._data[:] = np.asarray(array, dtype=self.dtype).reshape(
            self.num_rows, self.num_cols
        )
        t = 0.0
        for rank, rows in enumerate(self.rows_per_rank):
            t = costmodel.pcie_host_to_gpu_time(
                rows * self.row_bytes, shared=True
            )
            self.node.gpu_clock[rank].advance(
                t, phase=phase, category="pcie",
                args={"rows": rows, "bytes": rows * self.row_bytes,
                      "tensor": self.tag},
            )
        self.node.sync()
        return t

    # -- the shared-memory global gather (one kernel) -------------------------

    def gather(self, rows, rank: int, phase: str = "gather") -> np.ndarray:
        """Gather ``rows`` into ``rank``'s memory in one kernel.

        The underlying NVLink/NVSwitch handles all communication without
        software involvement (paper Fig. 4, right).  Returns the gathered
        ``(len(rows), num_cols)`` array.
        """
        rows = self._check_rows(rows)
        out = self._data[rows]

        total_bytes = rows.size * self.row_bytes
        remote = self._remote_fraction(rows, rank)
        remote_bytes = int(round(total_bytes * remote))
        t = costmodel.gather_time(
            total_bytes,
            self.row_bytes,
            self.node.num_gpus,
            remote_fraction=remote,
        )
        clock = self.node.gpu_clock[rank]
        injector = self.node.fault_injector
        if injector is not None:
            # degraded fabric slows only the NVLink-crossing share; lost
            # replies cost timeout+backoff stalls before the re-issue lands
            t = injector.scale_gather_time(
                t, remote, clock.now, self.node.node_id
            )
            injector.charge_gather_retries(
                clock, phase="gather_retry", node_id=self.node.node_id
            )
        clock.advance(
            t, phase=phase, category="gather",
            args={"rows": int(rows.size), "bytes": int(total_bytes),
                  "remote_bytes": remote_bytes, "tensor": self.tag},
        )
        self.stats["gather_calls"] += 1
        self.stats["gather_rows"] += int(rows.size)
        self.stats["gather_bytes"] += int(total_bytes)
        self.stats["gather_remote_bytes"] += remote_bytes
        self.stats["gather_time"] += t

        reg = metrics.get_registry()
        now = clock.now
        reg.counter("gather_requests_total", tensor=self.tag).inc(1)
        reg.counter("gather_rows_total", tensor=self.tag).inc(rows.size)
        reg.counter("gather_link_bytes_total", link="nvlink").inc(
            remote_bytes, t=now
        )
        reg.counter("gather_link_bytes_total", link="hbm").inc(
            total_bytes - remote_bytes, t=now
        )
        reg.counter("gather_seconds_total", tensor=self.tag).inc(t)
        reg.histogram("gather_rows_per_call", tensor=self.tag).observe(
            rows.size
        )
        return out

    def gather_no_cost(self, rows) -> np.ndarray:
        """Functional gather without clock charging (evaluation paths)."""
        return self._data[self._check_rows(rows)]

    def scatter_no_cost(self, rows, values: np.ndarray) -> None:
        """Functional scatter without clock charging (restore/update paths)."""
        rows = self._check_rows(rows)
        self._data[rows] = np.asarray(values, dtype=self.dtype).reshape(
            rows.size, self.num_cols
        )

    def scatter(
        self, rows, values: np.ndarray, rank: int, phase: str = "scatter"
    ) -> None:
        """Write ``values`` to ``rows`` from ``rank`` (single store kernel)."""
        self.scatter_no_cost(rows, values)
        rows = np.asarray(rows, dtype=np.int64)
        remote = self._remote_fraction(rows, rank)
        total_bytes = rows.size * self.row_bytes
        t = costmodel.gather_time(
            total_bytes,
            self.row_bytes,
            self.node.num_gpus,
            remote_fraction=remote,
        )
        self.node.gpu_clock[rank].advance(
            t, phase=phase, category="gather",
            args={"rows": int(rows.size), "bytes": int(total_bytes),
                  "remote_bytes": int(round(total_bytes * remote)),
                  "tensor": self.tag},
        )

    # -- lifecycle -------------------------------------------------------------

    def free(self) -> None:
        """Release device memory."""
        self.memory.free()
        self._data = None
