"""GPU hash table and AppendUnique invariants (property-based)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops.append_unique import append_unique
from repro.ops.hashtable import EMPTY_KEY, GpuHashTable


def test_insert_then_lookup():
    t = GpuHashTable(64, bucket_size=16)
    slots, found, _ = t.insert([5, 6, 7], [50, 60, 70])
    assert not found.any()
    vals, ok = t.lookup([7, 5, 6, 8])
    assert vals.tolist()[:3] == [70, 50, 60]
    assert ok.tolist() == [True, True, True, False]


def test_reinsert_reports_found_and_keeps_value():
    t = GpuHashTable(64)
    t.insert([5], [50])
    _, found, _ = t.insert([5], [99])
    assert found.all()
    vals, _ = t.lookup([5])
    assert vals[0] == 50  # first writer wins


def test_duplicate_keys_within_batch():
    t = GpuHashTable(64)
    slots, found, _ = t.insert([3, 3, 3], [1, 2, 3])
    assert found.tolist() == [False, True, True]
    assert len(set(slots.tolist())) == 1
    assert t.size == 1


def test_empty_key_rejected():
    t = GpuHashTable(64)
    with pytest.raises(ValueError):
        t.insert([EMPTY_KEY], [0])


def test_table_full_detected():
    t = GpuHashTable(4, bucket_size=4)
    t.insert(np.arange(1, 5), np.zeros(4))
    with pytest.raises(RuntimeError):
        t.insert([99], [0])


@pytest.mark.parametrize("seed", range(5))
def test_every_seed_builds_and_inserts(seed):
    t = GpuHashTable(64, bucket_size=16, seed=seed)
    keys = np.array([3, 10, 17, 24, 31, 38, 1_000_003, 2**40 + 5, 7, 3])
    slots, found, _ = t.insert(keys, np.arange(keys.size))
    assert found.tolist() == [False] * 9 + [True]
    assert slots[0] == slots[-1]
    vals, hit = t.lookup(keys)
    assert hit.all() and vals.tolist() == list(range(9)) + [0]


@pytest.mark.parametrize("seed, expected", [
    (0, [45, 10, 35, 4, 42, 48, 36, 58, 23, 45]),
    (1, [39, 6, 56, 24, 10, 28, 46, 45, 1, 39]),
])
def test_seed_zero_and_one_layout_is_pinned(seed, expected):
    """The salt wraps mod 2**64 without moving the seeds that never
    overflowed."""
    t = GpuHashTable(64, bucket_size=16, seed=seed)
    keys = np.array([3, 10, 17, 24, 31, 38, 1_000_003, 2**40 + 5, 7, 3])
    slots, _, rounds = t.insert(keys, np.arange(keys.size))
    assert slots.tolist() == expected
    assert rounds == 2


def test_set_value_on_empty_slot_rejected():
    t = GpuHashTable(64)
    empty = np.flatnonzero(t.keys == EMPTY_KEY)[:1]
    with pytest.raises(ValueError):
        t.set_value(empty, [1])


@given(
    st.lists(st.integers(min_value=0, max_value=500), max_size=300),
    st.integers(min_value=8, max_value=128),
)
def test_table_holds_exactly_the_distinct_keys(keys, bucket_size):
    keys = [k + 1 for k in keys]  # avoid the reserved -1... 0 is fine; shift anyway
    t = GpuHashTable(max(2 * len(keys), bucket_size), bucket_size=bucket_size)
    if keys:
        t.insert(keys, np.zeros(len(keys)))
    stored = set(t.keys[t.occupied_slots()].tolist())
    assert stored == set(keys)
    assert t.size == len(set(keys))


@given(
    st.integers(min_value=1, max_value=60),
    st.lists(st.integers(min_value=0, max_value=800), max_size=400),
    st.integers(min_value=0, max_value=2**31),
)
def test_append_unique_full_invariants(nt, neighbor_list, seed):
    rng = np.random.default_rng(seed)
    targets = rng.choice(2000, size=nt, replace=False)
    neighbors = np.array(neighbor_list, dtype=np.int64)
    res = append_unique(targets, neighbors, bucket_size=32)

    # 1. targets first, in order
    assert np.array_equal(res.unique_nodes[:nt], targets)
    # 2. no duplicates, and covers exactly targets ∪ neighbors
    assert np.unique(res.unique_nodes).shape[0] == res.num_unique
    assert set(res.unique_nodes.tolist()) == (
        set(targets.tolist()) | set(neighbors.tolist())
    )
    # 3. sub-graph IDs translate back to the inputs
    assert np.array_equal(
        res.unique_nodes[res.neighbor_subgraph_ids], neighbors
    )
    # 4. IDs are contiguous in [0, num_unique)
    if neighbors.size:
        assert res.neighbor_subgraph_ids.max() < res.num_unique
    # 5. duplicate counts = neighbor multiplicity
    c = Counter(neighbors.tolist())
    expected = np.array([c.get(n, 0) for n in res.unique_nodes.tolist()])
    assert np.array_equal(res.duplicate_counts, expected)


def test_append_unique_rejects_duplicate_targets():
    with pytest.raises(ValueError):
        append_unique([1, 1], [2, 3])


def test_append_unique_neighbor_equal_to_target():
    res = append_unique([10, 20], [20, 20, 30])
    assert res.num_unique == 3
    # neighbor '20' maps to the *target* sub-graph ID 1
    assert res.neighbor_subgraph_ids.tolist() == [1, 1, 2]
    assert res.duplicate_counts.tolist() == [0, 2, 1]


def test_append_unique_empty_neighbors():
    res = append_unique([4, 5], [])
    assert res.num_unique == 2
    assert res.neighbor_subgraph_ids.shape == (0,)
    assert res.duplicate_counts.tolist() == [0, 0]


def test_append_unique_duplicate_count_feeds_atomic_elision():
    """Nodes sampled once get duplicate_count 1 (the g-SpMM fast path)."""
    res = append_unique([1], [2, 3, 3])
    by_node = dict(zip(res.unique_nodes.tolist(),
                       res.duplicate_counts.tolist()))
    assert by_node[2] == 1
    assert by_node[3] == 2
