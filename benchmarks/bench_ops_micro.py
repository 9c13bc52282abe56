"""Microbenchmarks of the core WholeGraph ops (host wall-clock).

Unlike the table/figure benches these measure *this implementation's*
throughput (useful for tracking regressions in the vectorised kernels),
not the simulated DGX times.
"""

import numpy as np
import pytest

from repro.nn import Tensor
from repro.nn import functional as F
from repro.ops.append_unique import append_unique
from repro.ops.sampling import batch_sample_without_replacement
from repro.ops.segment import scatter_add_rows, segment_sum
from repro.ops.spmm import gspmm_backward_features, gspmm_sum

RNG = np.random.default_rng(0)


def test_bench_parallel_sampler(benchmark):
    counts = RNG.integers(30, 200, size=20_000)
    benchmark(
        batch_sample_without_replacement, counts, 30,
        np.random.default_rng(1),
    )


def test_bench_append_unique(benchmark):
    targets = RNG.choice(1_000_000, size=5_000, replace=False)
    neighbors = RNG.integers(0, 1_000_000, size=150_000)
    benchmark(append_unique, targets, neighbors)


def test_bench_append_unique_duplicate_heavy(benchmark):
    """Shaped like a ``train-sage-tiered`` hop: 30k targets and 150k
    neighbors from a 60k-ID space, ~37% of the neighbors distinct, so most
    probe lanes collide on a slot another lane also bids for."""
    targets = RNG.choice(60_000, size=30_000, replace=False)
    neighbors = RNG.integers(0, 60_000, size=150_000)
    benchmark(append_unique, targets, neighbors)


def test_bench_segment_sum(benchmark):
    sizes = RNG.integers(0, 60, size=20_000)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    values = RNG.standard_normal((int(indptr[-1]), 64)).astype(np.float32)
    benchmark(segment_sum, values, indptr)


def test_bench_scatter_add(benchmark):
    idx = RNG.integers(0, 50_000, size=500_000)
    vals = RNG.standard_normal((500_000, 32)).astype(np.float32)
    benchmark(scatter_add_rows, 50_000, idx, vals)


def test_bench_gspmm_forward(benchmark):
    sizes = RNG.integers(1, 40, size=20_000)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = RNG.integers(0, 60_000, size=int(indptr[-1]))
    x = RNG.standard_normal((60_000, 128)).astype(np.float32)
    benchmark(gspmm_sum, indptr, indices, x)


def test_bench_gspmm_backward(benchmark):
    sizes = RNG.integers(1, 40, size=20_000)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = RNG.integers(0, 60_000, size=int(indptr[-1]))
    g = RNG.standard_normal((20_000, 128)).astype(np.float32)
    benchmark(gspmm_backward_features, indptr, indices, g, 60_000)


def test_bench_gat_fused_aggregate(benchmark):
    """GAT's per-head aggregation, forward + backward, at E≈300k, H=4,
    D=64: one SpMM over the head-expanded CSR, then the transposed SpMM
    and the g-SDDMM for the attention gradient."""
    sizes = RNG.integers(0, 30, size=20_000)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = RNG.integers(0, 60_000, size=int(indptr[-1]))
    alpha = RNG.random((int(indptr[-1]), 4)).astype(np.float32)
    x = RNG.standard_normal((60_000, 4, 64)).astype(np.float32)
    g = RNG.standard_normal((20_000, 4, 64)).astype(np.float32)

    def forward_backward():
        a = Tensor(alpha, requires_grad=True)
        h = Tensor(x, requires_grad=True)
        F.spmm_sum(indptr, indices, h, edge_weights=a).backward(g)

    benchmark(forward_backward)
