"""CUDA IPC handle simulation.

Models ``cudaIpcGetMemHandle`` / ``cudaIpcOpenMemHandle``: a handle is an
opaque token a process can hand to another process, which the peer converts
into a locally-usable device pointer.  Here the handle carries the exporting
rank's :class:`~repro.hardware.memory.DeviceMemory` and the
:class:`~repro.hardware.memory.Allocation` it exports, and the "device
pointer" an open returns is that allocation.  *Opening* a handle checks the
protocol invariants the real API enforces (a process must not open its own
handle; a handle must refer to a live allocation).  There is no registry:
freeing the allocation is what invalidates every handle to it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.memory import Allocation, DeviceMemory


@dataclass(frozen=True)
class IpcHandle:
    """Opaque exportable reference to one rank's device allocation."""

    owner_rank: int
    memory: DeviceMemory
    allocation: Allocation

    @property
    def nbytes(self) -> int:
        return self.allocation.nbytes


def ipc_get_mem_handle(
    owner_rank: int, memory: DeviceMemory, allocation: Allocation
) -> IpcHandle:
    """Export a device allocation as an IPC handle (``cudaIpcGetMemHandle``)."""
    return IpcHandle(owner_rank, memory, allocation)


def ipc_open_mem_handle(handle: IpcHandle, opener_rank: int) -> Allocation:
    """Open a peer's IPC handle, returning the mapped "device pointer".

    Mirrors the CUDA restriction that ``cudaIpcOpenMemHandle`` may not be
    called on a handle created by the same process/device.
    """
    if handle.owner_rank == opener_rank:
        raise ValueError(
            "cudaIpcOpenMemHandle cannot open a handle exported by the "
            f"opening process itself (rank {opener_rank})"
        )
    if not handle.memory.is_live(handle.allocation):
        raise KeyError(
            f"IPC handle of rank {handle.owner_rank} refers to a freed "
            f"allocation ({handle.allocation.alloc_id})"
        )
    return handle.allocation
