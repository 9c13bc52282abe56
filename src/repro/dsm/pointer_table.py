"""The per-device memory pointer table.

Paper §III-B / Fig. 3: after the IPC exchange, each GPU holds an array of
mapped pointers — one per peer GPU — so a CUDA kernel can compute
``ptr_table[rank][local_offset]`` for any global address.  On an 8-GPU
DGX-A100 the table is 8 pointers = 64 bytes per allocation, so it costs
nothing and does not hurt scalability.  An entry here is the peer's
:class:`~repro.hardware.memory.Allocation` (the simulated device pointer).
"""

from __future__ import annotations

from repro.hardware.memory import Allocation


class MemoryPointerTable:
    """One device's view of all partitions of a shared allocation."""

    POINTER_BYTES = 8

    def __init__(self, device_rank: int, num_ranks: int):
        self.device_rank = device_rank
        self.num_ranks = num_ranks
        self._pointers: list[Allocation | None] = [None] * num_ranks

    def set_pointer(self, rank: int, allocation: Allocation) -> None:
        """Install the mapped pointer for ``rank``'s partition."""
        self._pointers[rank] = allocation

    def pointer(self, rank: int) -> Allocation:
        """Dereference the table entry for ``rank``."""
        ptr = self._pointers[rank]
        if ptr is None:
            raise RuntimeError(
                f"pointer table of device {self.device_rank} has no mapping "
                f"for rank {rank} (IPC exchange incomplete?)"
            )
        return ptr

    @property
    def complete(self) -> bool:
        """True once every peer's pointer has been installed."""
        return all(p is not None for p in self._pointers)

    @property
    def nbytes(self) -> int:
        """On-device footprint of the table itself (64 B on 8 GPUs)."""
        return self.num_ranks * self.POINTER_BYTES
