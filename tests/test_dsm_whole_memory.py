"""WholeMemory setup protocol, IPC semantics and pointer tables."""

import itertools

import pytest

from repro.dsm import ipc
from repro.dsm.ipc import ipc_get_mem_handle, ipc_open_mem_handle
from repro.dsm.pointer_table import MemoryPointerTable
from repro.dsm.whole_memory import WholeMemory, split_evenly
from repro.hardware import DeviceMemory, SimNode


def test_split_evenly_covers_total():
    sizes = split_evenly(1003, 8)
    assert sum(sizes) == 1003
    assert max(sizes) - min(sizes) <= 1


def test_ipc_cannot_open_own_handle():
    mem = DeviceMemory("gpu3", 1024)
    alloc = mem.allocate(16)
    h = ipc_get_mem_handle(3, mem, alloc)
    assert h.nbytes == 16
    with pytest.raises(ValueError):
        ipc_open_mem_handle(h, 3)
    assert ipc_open_mem_handle(h, 0) is alloc


def test_ipc_freed_handle_rejected():
    mem = DeviceMemory("gpu0", 1024)
    alloc = mem.allocate(16)
    h = ipc_get_mem_handle(0, mem, alloc)
    mem.free(alloc)
    with pytest.raises(KeyError):
        ipc_open_mem_handle(h, 1)


def test_ipc_module_holds_no_state():
    # freeing the allocation is what invalidates a handle; the module keeps
    # no registry that could hold exported allocations alive
    assert not [
        name for name, value in vars(ipc).items()
        if not name.startswith("__")
        and isinstance(value, (dict, list, set, itertools.count))
    ]


def test_pointer_table_requires_complete_exchange():
    t = MemoryPointerTable(0, 4)
    assert not t.complete
    with pytest.raises(RuntimeError):
        t.pointer(2)
    mem = DeviceMemory("gpu", 64)
    for r in range(4):
        t.set_pointer(r, mem.allocate(1))
    assert t.complete


def test_pointer_table_is_64_bytes_on_8_gpus():
    # paper §III-B: "For DGX-A100 with 8 GPUs, it is just 8x8 = 64 bytes"
    assert MemoryPointerTable(0, 8).nbytes == 64


def test_whole_memory_partitions_and_tables(node: SimNode):
    wm = WholeMemory(node, 8000, tag="t")
    assert sum(wm.partition_sizes) == 8000
    for rank, table in enumerate(wm.pointer_tables):
        assert table.complete
        for peer in range(8):
            # every rank's table points at the peer's device allocation
            alloc = table.pointer(peer)
            assert alloc.device == node.gpu_memory[peer].device
            assert alloc.nbytes == wm.partition_sizes[peer]
            assert node.gpu_memory[peer].is_live(alloc)
            assert alloc is wm.pointer_tables[peer].pointer(peer)


def test_whole_memory_charges_device_memory(node: SimNode):
    WholeMemory(node, 8 * 1024, tag="graph")
    usage = node.memory_usage_by_tag()
    assert usage["graph"] == 8 * 1024


def test_whole_memory_setup_time_charged(node: SimNode):
    WholeMemory(node, 1024, tag="x")
    assert node.timeline.phase_total("dsm_setup") > 0
    assert all(c.now > 0 for c in node.gpu_clock)


def test_whole_memory_rank_of_offset(node: SimNode):
    wm = WholeMemory(node, [10, 20, 30, 40, 0, 0, 0, 0], tag="x",
                     charge_setup=False)
    assert wm.rank_of_offset([0, 9]).tolist() == [0, 0]
    assert wm.rank_of_offset([10, 29]).tolist() == [1, 1]
    assert wm.rank_of_offset([30]).tolist() == [2]


def test_whole_memory_free_releases(node: SimNode):
    wm = WholeMemory(node, 800, tag="x", charge_setup=False)
    peer = wm.pointer_tables[1].pointer(0)
    wm.free()
    assert node.total_memory_usage() == 0
    assert not node.gpu_memory[0].is_live(peer)
    with pytest.raises(RuntimeError):
        wm.free()


def test_whole_memory_accounts_256gb_without_host_bytes():
    node = SimNode()
    num_rows = 500_000_000  # 256 GB total — far beyond host RAM, fits 8x40GB
    wm = WholeMemory(node, num_rows * 128 * 4, tag="feature",
                     charge_setup=False)
    usage = node.memory_usage_by_tag()
    assert usage["feature"] == num_rows * 128 * 4
    wm.free()
    assert node.total_memory_usage() == 0


def test_whole_memory_wrong_partition_count(node: SimNode):
    with pytest.raises(ValueError):
        WholeMemory(node, [100, 100], tag="x")
