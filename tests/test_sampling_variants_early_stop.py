"""With-replacement sampler variant."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ops import (
    batch_sample_with_replacement,
    batch_sample_without_replacement,
)


@given(
    st.integers(min_value=1, max_value=32),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1,
             max_size=30),
    st.integers(min_value=0, max_value=2**31),
)
def test_with_replacement_in_range(m, counts, seed):
    counts = np.array(counts, dtype=np.int64)
    rng = np.random.default_rng(seed)
    res = batch_sample_with_replacement(counts, m, rng)
    assert res.shape == (counts.shape[0], m)
    for i, n in enumerate(counts):
        assert res[i].min() >= 0 and res[i].max() < n


def test_with_replacement_can_exceed_degree():
    """Unlike Algorithm 1, M > N is legal with replacement."""
    rng = np.random.default_rng(0)
    res = batch_sample_with_replacement(np.array([3]), 10, rng)
    assert res.shape == (1, 10)
    assert res.max() < 3


def test_with_replacement_produces_duplicates():
    rng = np.random.default_rng(0)
    res = batch_sample_with_replacement(np.full(200, 5), 5, rng)
    dup_rows = sum(len(set(r.tolist())) < 5 for r in res)
    assert dup_rows > 100  # overwhelmingly likely with N=M=5


def test_without_replacement_never_duplicates_contrast():
    rng = np.random.default_rng(0)
    res = batch_sample_without_replacement(np.full(200, 5), 5, rng)
    assert all(len(set(r.tolist())) == 5 for r in res)


def test_with_replacement_rejects_empty_rows():
    with pytest.raises(ValueError):
        batch_sample_with_replacement(
            np.array([0, 3]), 2, np.random.default_rng(0)
        )


def test_with_replacement_uniform_marginals():
    rng = np.random.default_rng(1)
    res = batch_sample_with_replacement(np.full(5000, 8), 4, rng)
    freq = np.bincount(res.ravel(), minlength=8) / res.size
    assert np.allclose(freq, 1 / 8, atol=0.01)
