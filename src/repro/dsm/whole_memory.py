"""WholeMemory: a logically-shared allocation partitioned across GPUs.

Reproduces the setup protocol of paper §III-B exactly:

1. every rank allocates its partition in its own device memory
   (``cudaMalloc``) and exports it (``cudaIpcGetMemHandle``);
2. an *AllGather* exchanges the IPC handles among all ranks;
3. every rank opens every peer handle (``cudaIpcOpenMemHandle``) and fills
   its :class:`~repro.dsm.pointer_table.MemoryPointerTable`.

The setup is charged "tens to one or two hundred milliseconds" depending on
size (paper §III-B); steady-state access afterwards is pure hardware P2P.

The allocation is size-only: each rank's partition is a
:class:`~repro.hardware.memory.DeviceMemory` reservation, and a pointer-table
entry is the peer's :class:`~repro.hardware.memory.Allocation`.  No host
bytes back the simulated capacity, so a 64 GB allocation costs the host
nothing; :class:`~repro.dsm.whole_tensor.WholeTensor` keeps the real rows.
"""

from __future__ import annotations

import numpy as np

from repro.hardware import costmodel
from repro.hardware.machine import SimNode
from repro.dsm.ipc import ipc_get_mem_handle, ipc_open_mem_handle
from repro.dsm.pointer_table import MemoryPointerTable


def split_evenly(total: int, parts: int) -> list[int]:
    """Split ``total`` into ``parts`` sizes differing by at most one."""
    base, rem = divmod(int(total), parts)
    return [base + (1 if r < rem else 0) for r in range(parts)]


class WholeMemory:
    """One shared allocation spanning all GPUs of a :class:`SimNode`."""

    def __init__(
        self,
        node: SimNode,
        partition_bytes,
        tag: str = "wholememory",
        charge_setup: bool = True,
    ):
        """Allocate and wire up the shared memory.

        Parameters
        ----------
        node:
            The machine to allocate on.
        partition_bytes:
            Either a total byte count (split evenly across GPUs) or an
            explicit per-rank list of partition sizes.
        tag:
            Accounting tag for :meth:`DeviceMemory.usage_by_tag` (Table IV).
        charge_setup:
            Charge the one-time IPC/exchange cost to the device clocks.
        """
        self.node = node
        self.tag = tag
        num_ranks = node.num_gpus
        if isinstance(partition_bytes, (int, np.integer)):
            sizes = split_evenly(int(partition_bytes), num_ranks)
        else:
            sizes = [int(s) for s in partition_bytes]
            if len(sizes) != num_ranks:
                raise ValueError(
                    f"need {num_ranks} partition sizes, got {len(sizes)}"
                )
        self.partition_sizes = sizes
        self.total_bytes = sum(sizes)

        # Step 1: per-rank cudaMalloc + IPC export.
        self._allocations = [
            node.gpu_memory[rank].allocate(sizes[rank], tag=tag)
            for rank in range(num_ranks)
        ]
        handles = [
            ipc_get_mem_handle(rank, node.gpu_memory[rank], alloc)
            for rank, alloc in enumerate(self._allocations)
        ]

        # Step 2: AllGather of handles — after this every rank holds the
        # full handle list (simulated synchronously).
        gathered = [list(handles) for _ in range(num_ranks)]

        # Step 3: open peer handles into per-device pointer tables.
        self.pointer_tables: list[MemoryPointerTable] = []
        for rank in range(num_ranks):
            table = MemoryPointerTable(rank, num_ranks)
            for peer, handle in enumerate(gathered[rank]):
                if peer == rank:
                    table.set_pointer(rank, self._allocations[rank])
                else:
                    table.set_pointer(peer, ipc_open_mem_handle(handle, rank))
            assert table.complete
            self.pointer_tables.append(table)

        self.setup_time = costmodel.dsm_setup_time(self.total_bytes)
        if charge_setup:
            for clock in node.gpu_clock:
                clock.advance(self.setup_time, phase="dsm_setup")
            node.sync()
        self._freed = False

    # -- address arithmetic -------------------------------------------------

    def rank_of_offset(self, offsets) -> np.ndarray:
        """Owning rank of each global byte offset."""
        bounds = np.cumsum(self.partition_sizes)
        return np.searchsorted(bounds, np.asarray(offsets), side="right")

    # -- lifecycle -----------------------------------------------------------

    def free(self) -> None:
        """Release device memory, which invalidates the exported handles."""
        if self._freed:
            raise RuntimeError("WholeMemory already freed")
        for rank, alloc in enumerate(self._allocations):
            self.node.gpu_memory[rank].free(alloc)
        self._freed = True
