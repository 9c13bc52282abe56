"""WholeTensor gather/scatter correctness and cost accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dsm.whole_tensor import WholeTensor
from repro.hardware import SimNode


@pytest.fixture
def loaded():
    node = SimNode()
    t = WholeTensor(node, 500, 4, tag="f", charge_setup=False)
    host = np.arange(500 * 4, dtype=np.float32).reshape(500, 4)
    t.load_from_host(host)
    return node, t, host


def test_gather_equals_fancy_indexing(loaded):
    node, t, host = loaded
    rows = np.array([0, 499, 250, 3, 250])
    out = t.gather(rows, rank=5)
    assert np.array_equal(out, host[rows])


@given(st.lists(st.integers(min_value=0, max_value=499), max_size=64))
def test_gather_property_any_rows(rows):
    node = SimNode()
    t = WholeTensor(node, 500, 3, tag="f", charge_setup=False)
    host = np.random.default_rng(0).standard_normal((500, 3)).astype(np.float32)
    t.load_from_host(host)
    rows = np.array(rows, dtype=np.int64)
    assert np.array_equal(t.gather(rows, 0), host[rows])


def test_gather_charges_requesting_rank_only(loaded):
    node, t, host = loaded
    node.reset_clocks()
    t.gather(np.arange(100), rank=2)
    assert node.gpu_clock[2].now > 0
    assert node.gpu_clock[3].now == 0


def test_gather_stats_accumulate(loaded):
    node, t, _ = loaded
    t.gather(np.arange(10), 0)
    t.gather(np.arange(20), 0)
    assert t.stats["gather_calls"] == 2
    assert t.stats["gather_rows"] == 30
    assert t.stats["gather_bytes"] == 30 * t.row_bytes


def test_gather_remote_fraction_reflects_ownership(loaded):
    node, t, _ = loaded
    t.stats["gather_remote_bytes"] = 0
    t.stats["gather_bytes"] = 0
    # rows owned by rank 0, requested from rank 0: all local
    local_rows = np.arange(t.row_offsets[1])
    t.gather(local_rows, 0)
    assert t.stats["gather_remote_bytes"] == 0


def test_gather_out_of_range_rejected(loaded):
    _, t, _ = loaded
    with pytest.raises(IndexError):
        t.gather(np.array([500]), 0)
    with pytest.raises(IndexError):
        t.gather(np.array([-1]), 0)


def test_scatter_roundtrip(loaded):
    node, t, host = loaded
    rows = np.array([7, 123, 456])
    vals = np.full((3, 4), -1.0, dtype=np.float32)
    t.scatter(rows, vals, rank=1)
    assert np.array_equal(t.gather(rows, 0), vals)


def test_rank_of_row_matches_offsets(loaded):
    _, t, _ = loaded
    for rank in range(8):
        lo, hi = t.row_offsets[rank], t.row_offsets[rank + 1]
        if hi > lo:
            assert t.rank_of_row([lo]).item() == rank
            assert t.rank_of_row([hi - 1]).item() == rank


def test_explicit_rows_per_rank():
    node = SimNode()
    rows = [10, 20, 30, 40, 0, 0, 0, 0]
    t = WholeTensor(node, 100, 2, rows_per_rank=rows, charge_setup=False)
    assert t.rows_per_rank == rows
    assert t.local_part(1).shape == (20, 2)
    with pytest.raises(ValueError):
        WholeTensor(node, 100, 2, rows_per_rank=[50, 50], charge_setup=False)


def test_gather_no_cost_does_not_touch_clock(loaded):
    node, t, host = loaded
    node.reset_clocks()
    out = t.gather_no_cost(np.array([5, 10]))
    assert np.array_equal(out, host[[5, 10]])
    assert all(c.now == 0 for c in node.gpu_clock)
