"""Equivalence tests for the vectorized hot-path kernels.

Each vectorized kernel is checked against a straightforward loop reference
(the shape of the pre-optimization code): the F-order ``segment_sum``
accumulator must be *bitwise* identical, the gather reply assembly must
reproduce the loop-built replies and byte accounting, and the batched
hash-table probe must resolve exactly like the slot-at-a-time loop —
including wrap-around chains and missing keys.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsm.comm import Communicator
from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import SimNode
from repro.ops import hashtable
from repro.ops.gather import distributed_memory_gather
from repro.ops.hashtable import EMPTY_KEY, GpuHashTable
from repro.ops.segment import segment_sum

# ---------------------------------------------------------------------------
# segment_sum: F-order accumulator is bit-identical to the C-order reference
# ---------------------------------------------------------------------------


def _segment_sum_reference(values: np.ndarray, indptr: np.ndarray):
    """The pre-optimization implementation (C-order zeros + cumsum)."""
    values = np.asarray(values)
    indptr = np.asarray(indptr, dtype=np.int64)
    n = indptr.shape[0] - 1
    if values.shape[0] == 0 or n == 0:
        return np.zeros((n,) + values.shape[1:], dtype=values.dtype)
    acc_dtype = np.float64 if values.dtype.kind == "f" else np.int64
    cs = np.zeros((values.shape[0] + 1,) + values.shape[1:], dtype=acc_dtype)
    np.cumsum(values, axis=0, dtype=acc_dtype, out=cs[1:])
    out = cs[indptr[1:]] - cs[indptr[:-1]]
    return out.astype(values.dtype, copy=False)


def _random_indptr(rng, num_edges, num_segments):
    cuts = np.sort(rng.integers(0, num_edges + 1, size=num_segments - 1))
    return np.concatenate(([0], cuts, [num_edges])).astype(np.int64)


@pytest.mark.parametrize("shape", [(500,), (500, 7), (333, 4, 3)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_sum_bitwise_matches_reference(seeded_rng, shape, dtype):
    values = seeded_rng.standard_normal(shape).astype(dtype)
    indptr = _random_indptr(seeded_rng, shape[0], 40)
    got = segment_sum(values, indptr)
    ref = _segment_sum_reference(values, indptr)
    # bitwise, not approx: compare the raw bit patterns
    assert got.dtype == ref.dtype
    assert np.array_equal(
        got.view(np.uint32 if dtype == np.float32 else np.uint64),
        ref.view(np.uint32 if dtype == np.float32 else np.uint64),
    )


def test_segment_sum_bitwise_matches_reference_int(seeded_rng):
    values = seeded_rng.integers(-100, 100, size=(400, 5), dtype=np.int64)
    indptr = _random_indptr(seeded_rng, 400, 17)
    assert np.array_equal(
        segment_sum(values, indptr), _segment_sum_reference(values, indptr)
    )


def test_segment_sum_empty_segments_and_edges():
    out = segment_sum(np.zeros((0, 3), dtype=np.float32), [0, 0, 0])
    assert out.shape == (2, 3)
    assert np.all(out == 0)


# ---------------------------------------------------------------------------
# gather: vectorized reply assembly vs loop reference
# ---------------------------------------------------------------------------


def _loop_reference_gather(tensor, per_rank_rows):
    """Steps 3-5 of the NCCL gather as the original per-rank loops, run
    functionally (no clocks): returns (results, reply_bytes,
    remote_reply_bytes)."""
    nr = tensor.node.num_gpus
    buckets, orders = [], []
    for rows in per_rank_rows:
        rows = np.asarray(rows, dtype=np.int64)
        owners, local = tensor._owners_and_local(rows)
        order = np.argsort(owners, kind="stable")
        splits = np.cumsum(np.bincount(owners, minlength=nr))[:-1]
        buckets.append(np.split(local[order], splits))
        orders.append(np.split(order, splits))
    # transpose: id_requests[home][requester]
    id_requests = [
        [buckets[req][home] for req in range(nr)] for home in range(nr)
    ]
    replies = [[None] * nr for _ in range(nr)]
    for home in range(nr):
        part = tensor.local_part(home)
        for requester in range(nr):
            replies[home][requester] = part[id_requests[home][requester]]
    feature_replies = [
        [replies[home][req] for home in range(nr)] for req in range(nr)
    ]
    reply_bytes = np.zeros(nr)
    remote = np.zeros(nr)
    for requester in range(nr):
        for home in range(nr):
            nbytes = feature_replies[requester][home].nbytes
            reply_bytes[requester] += nbytes
            if home != requester:
                remote[requester] += nbytes
    results = []
    for rank, rows in enumerate(per_rank_rows):
        rows = np.asarray(rows, dtype=np.int64)
        out = np.empty((rows.size, tensor.num_cols), dtype=tensor.dtype)
        for home in range(nr):
            pos = orders[rank][home]
            if pos.size:
                out[pos] = feature_replies[rank][home]
        results.append(out)
    return results, reply_bytes, remote


@pytest.fixture
def tensor(registry):
    node = SimNode()
    rng = np.random.default_rng(3)
    host = rng.standard_normal((512, 16)).astype(np.float32)
    wt = WholeTensor(node, 512, 16, tag="feat", charge_setup=False)
    wt.load_from_host(host)
    return node, wt, host


def test_distributed_gather_matches_loop_reference(tensor, seeded_rng):
    node, wt, host = tensor
    nr = node.num_gpus
    per_rank_rows = [
        seeded_rng.integers(0, 512, size=seeded_rng.integers(1, 200))
        for _ in range(nr)
    ]
    ref_results, ref_bytes, ref_remote = _loop_reference_gather(
        wt, per_rank_rows
    )
    results, trace = distributed_memory_gather(
        wt, per_rank_rows, Communicator(node)
    )
    for got, ref, rows in zip(results, ref_results, per_rank_rows):
        assert np.array_equal(got, ref)
        # and both equal the direct row read
        assert np.array_equal(got, host[np.asarray(rows)])
    assert trace.step4_bytes_per_rank == float(ref_bytes.mean())
    assert trace.step4_remote_bytes_per_rank == float(ref_remote.mean())


def test_distributed_gather_with_empty_and_skewed_requests(tensor):
    node, wt, host = tensor
    nr = node.num_gpus
    # rank 0 asks for a handful (with repeats), the rest ask for nothing
    per_rank_rows = [np.array([5, 5, 17, 400, 5], dtype=np.int64)] + [
        np.array([], dtype=np.int64) for _ in range(nr - 1)
    ]
    results, _ = distributed_memory_gather(
        wt, per_rank_rows, Communicator(node)
    )
    assert np.array_equal(results[0], host[per_rank_rows[0]])
    for r in range(1, nr):
        assert results[r].shape == (0, wt.num_cols)


# ---------------------------------------------------------------------------
# hash table: batched window probe vs slot-at-a-time reference
# ---------------------------------------------------------------------------


def _loop_reference_lookup(table, keys):
    """The original one-slot-per-round probe loop."""
    keys = np.asarray(keys, dtype=np.int64).ravel()
    vals = np.full(keys.shape[0], EMPTY_KEY, dtype=np.int64)
    found = np.zeros(keys.shape[0], dtype=bool)
    if keys.size == 0:
        return vals, found
    pending = np.arange(keys.shape[0], dtype=np.int64)
    probe = table._home_slot(keys)
    for _ in range(table.capacity):
        if pending.size == 0:
            break
        cur = probe[pending]
        slot_keys = table.keys[cur]
        hit = slot_keys == keys[pending]
        vals[pending[hit]] = table.values[cur[hit]]
        found[pending[hit]] = True
        miss = slot_keys == EMPTY_KEY
        resolved = hit | miss
        nxt = pending[~resolved]
        probe[nxt] = (probe[nxt] + 1) % table.capacity
        pending = nxt
    return vals, found


def _loop_reference_insert(table, keys, values):
    """Round-synchronous, slot-at-a-time insert.

    Every pending lane reads its probe slot at the start of a round.  A
    lane finding its key hits; among the lanes finding an empty slot the
    lowest input lane wins it (the CAS), the losers retry the same slot;
    a lane finding a foreign key advances one slot.  Writes land at the
    end of the round.
    """
    keys = [int(k) for k in np.asarray(keys, dtype=np.int64).ravel()]
    values = np.broadcast_to(np.asarray(values, dtype=np.int64), len(keys))
    n, cap = len(keys), table.capacity
    slots, found = [-1] * n, [False] * n
    probe = [int(h) for h in table._home_slot(np.array(keys, np.int64))]
    pending, rounds = list(range(n)), 0
    while pending:
        rounds += 1
        if rounds > 2 * cap + 4:
            raise RuntimeError("hash table is full")
        won: dict[int, int] = {}
        retry = []
        for lane in pending:  # ascending lane order
            slot = probe[lane]
            held = int(table.keys[slot])
            if held == keys[lane]:
                slots[lane], found[lane] = slot, True
            elif held == EMPTY_KEY and slot not in won:
                won[slot] = lane
                slots[lane] = slot
            elif held == EMPTY_KEY:
                retry.append(lane)
            else:
                probe[lane] = (slot + 1) % cap
                retry.append(lane)
        for slot, lane in won.items():
            table.keys[slot] = keys[lane]
            table.values[slot] = values[lane]
            table.size += 1
        pending = retry
    return np.array(slots, np.int64), np.array(found, bool), rounds


def _assert_insert_matches_reference(fast, ref, keys, values):
    got = fast.insert(keys, values)
    want = _loop_reference_insert(ref, keys, values)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]
    assert np.array_equal(fast.keys, ref.keys)
    assert np.array_equal(fast.values, ref.values)
    assert fast.size == ref.size
    return got


def _table_pair(capacity, bucket_size, seed=0):
    return (GpuHashTable(capacity, bucket_size=bucket_size, seed=seed),
            GpuHashTable(capacity, bucket_size=bucket_size, seed=seed))


@pytest.mark.parametrize("bucket_size", [4, 16, 128])
def test_insert_duplicate_heavy_matches_reference(seeded_rng, bucket_size):
    fast, ref = _table_pair(256, bucket_size)
    keys = seeded_rng.integers(0, 60, size=400)
    _, found, _ = _assert_insert_matches_reference(
        fast, ref, keys, np.arange(keys.size)
    )
    assert found.sum() == keys.size - np.unique(keys).size


@pytest.mark.parametrize("bucket_size", [4, 16, 128])
def test_insert_into_populated_table_matches_reference(
    seeded_rng, bucket_size
):
    fast, ref = _table_pair(256, bucket_size, seed=1)
    first = seeded_rng.choice(1000, size=120, replace=False)
    _assert_insert_matches_reference(fast, ref, first, np.arange(120))
    # half re-inserts of present keys, half new keys, with duplicates
    second = np.concatenate([
        seeded_rng.choice(first, size=150),
        seeded_rng.integers(1000, 1080, size=150),
    ])
    seeded_rng.shuffle(second)
    _assert_insert_matches_reference(fast, ref, second, EMPTY_KEY)


@pytest.mark.parametrize("bucket_size", [4, 16, 128])
def test_insert_wraparound_chain_matches_reference(bucket_size):
    fast, ref = _table_pair(bucket_size, bucket_size)
    cap = fast.capacity
    # three keys homed on the last slot force two chains past the end
    pool = np.arange(7, 7 + 100 * cap, dtype=np.int64)
    homes = fast._home_slot(pool)
    tail = pool[homes == cap - 1][:3]
    rest = pool[homes != cap - 1][: cap - 1 - tail.size]
    keys = np.concatenate([rest[: rest.size // 2], tail, rest[rest.size // 2:]])
    slots, _, _ = _assert_insert_matches_reference(
        fast, ref, keys, np.arange(keys.size)
    )
    assert np.any(slots < fast._home_slot(keys))


def test_insert_full_table_raises_like_reference():
    fast, ref = _table_pair(8, 4)
    keys = np.arange(30, 30 + fast.capacity + 1, dtype=np.int64)
    with pytest.raises(RuntimeError):
        fast.insert(keys, 0)
    with pytest.raises(RuntimeError):
        _loop_reference_insert(ref, keys, 0)
    assert np.array_equal(fast.keys, ref.keys)
    assert np.array_equal(fast.values, ref.values)
    assert fast.size == ref.size == fast.capacity


def _spy_tail(monkeypatch):
    """Record ``(pending lanes, rounds so far)`` at each probe-tail entry."""
    entries = []
    tail = GpuHashTable._probe_tail

    def spy(self, keys, pending, cur, *rest):
        entries.append((int(cur.size), int(rest[-2])))
        return tail(self, keys, pending, cur, *rest)

    monkeypatch.setattr(GpuHashTable, "_probe_tail", spy)
    return entries


def _colliding_keys(table, n, span):
    """``n`` distinct keys homed in the first ``span`` slots, plus repeats."""
    pool = np.arange(1, 200 * table.capacity, dtype=np.int64)
    keys = pool[table._home_slot(pool) < span][:n]
    assert keys.size == n
    return keys


@pytest.mark.parametrize("bucket_size", [4, 16])
@pytest.mark.parametrize("over", [0, 1])
def test_insert_tail_threshold_edges_match_reference(
    monkeypatch, bucket_size, over
):
    """Exactly ``PROBE_TAIL_LANES`` pending lanes go straight to the scalar
    tail; one more runs a vectorised round first, then the tail."""
    n = hashtable.PROBE_TAIL_LANES + over
    fast, ref = _table_pair(64, bucket_size, seed=2)
    entries = _spy_tail(monkeypatch)
    keys = _colliding_keys(fast, n, span=4)
    _assert_insert_matches_reference(fast, ref, keys, np.arange(n))
    lanes, before = entries[0]
    if over:
        assert before >= 1 and lanes <= hashtable.PROBE_TAIL_LANES
    else:
        assert (lanes, before) == (n, 0)
    # re-inserting the keys with repeats: every lane finds its key
    again = np.concatenate([keys, keys[::3]])
    _, found, _ = _assert_insert_matches_reference(fast, ref, again, -1)
    assert found.all()


@pytest.mark.parametrize("tail_lanes", [0, 10**9])
def test_insert_matches_reference_vectorised_or_scalar_only(
    monkeypatch, seeded_rng, tail_lanes
):
    """With the tail off, or taking whole inserts, the layout is the same."""
    monkeypatch.setattr(hashtable, "PROBE_TAIL_LANES", tail_lanes)
    for bucket_size in (4, 128):
        fast, ref = _table_pair(256, bucket_size, seed=1)
        keys = seeded_rng.integers(0, 60, size=400)
        _assert_insert_matches_reference(fast, ref, keys, np.arange(400))
        more = np.concatenate([keys[:50], seeded_rng.integers(60, 140, 60)])
        _assert_insert_matches_reference(fast, ref, more, EMPTY_KEY)


def test_insert_full_table_tail_raises_like_reference(monkeypatch):
    """A table that fills while the tail runs raises with the reference's
    state: every claimed slot keyed and valued, ``size`` at capacity."""
    fast, ref = _table_pair(32, 4)
    entries = _spy_tail(monkeypatch)
    keys = np.arange(500, 500 + fast.capacity + 3, dtype=np.int64)
    with pytest.raises(RuntimeError):
        fast.insert(keys, np.arange(keys.size))
    with pytest.raises(RuntimeError):
        _loop_reference_insert(ref, keys, np.arange(keys.size))
    assert entries and entries[0][1] >= 1
    assert np.array_equal(fast.keys, ref.keys)
    assert np.array_equal(fast.values, ref.values)
    assert fast.size == ref.size == fast.capacity


@pytest.mark.parametrize("bucket_size", [4, 16, 128])
@pytest.mark.parametrize("load", [0.3, 0.9])
def test_lookup_matches_slot_at_a_time_reference(
    seeded_rng, bucket_size, load
):
    table = GpuHashTable(256, bucket_size=bucket_size, seed=1)
    keys = seeded_rng.choice(10_000, size=int(table.capacity * load),
                             replace=False).astype(np.int64)
    table.insert(keys, np.arange(keys.size))
    # half present, half absent, with duplicates
    queries = np.concatenate([
        seeded_rng.choice(keys, size=200),
        seeded_rng.integers(10_000, 20_000, size=200),
    ])
    got_vals, got_found = table.lookup(queries)
    ref_vals, ref_found = _loop_reference_lookup(table, queries)
    assert np.array_equal(got_vals, ref_vals)
    assert np.array_equal(got_found, ref_found)


def test_lookup_wraparound_chain(seeded_rng):
    """Chains that wrap past the end of the slot array resolve the same."""
    table = GpuHashTable(8, bucket_size=4, seed=0)
    keys = np.arange(100, 100 + table.capacity - 1, dtype=np.int64)
    table.insert(keys, np.arange(keys.size))
    queries = np.concatenate([keys, [999_999]])
    got_vals, got_found = table.lookup(queries)
    ref_vals, ref_found = _loop_reference_lookup(table, queries)
    assert np.array_equal(got_vals, ref_vals)
    assert np.array_equal(got_found, ref_found)
    assert bool(got_found[-1]) is False


def test_lookup_on_full_table_terminates(seeded_rng):
    """A completely full table of foreign keys must not loop forever."""
    table = GpuHashTable(8, bucket_size=8, seed=0)
    keys = np.arange(50, 50 + table.capacity, dtype=np.int64)
    table.insert(keys, np.arange(keys.size))
    vals, found = table.lookup(np.array([123_456]))
    ref_vals, ref_found = _loop_reference_lookup(
        table, np.array([123_456])
    )
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(found, ref_found)
    assert not found[0]


def test_lookup_empty_batch():
    table = GpuHashTable(16)
    vals, found = table.lookup(np.array([], dtype=np.int64))
    assert vals.size == 0 and found.size == 0


# ---------------------------------------------------------------------------
# sampler indptr preallocation
# ---------------------------------------------------------------------------


def test_sampler_block_indptr_structure(small_store, registry):
    from repro.ops.neighbor_sampler import NeighborSampler

    sampler = NeighborSampler(small_store, [5, 3], charge=False)
    rng = np.random.default_rng(1)
    seeds = rng.choice(small_store.num_nodes, size=64, replace=False)
    sub = sampler.sample(np.sort(seeds), 0, rng)
    for block in sub.blocks:
        indptr = block.indptr
        assert indptr.dtype == np.int64
        assert indptr[0] == 0
        assert np.all(np.diff(indptr) >= 0)
        assert indptr[-1] == block.indices.shape[0]
        assert indptr.shape[0] == block.num_targets + 1
