"""Functional ops: activations, losses and the graph autograd ops."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor
from tests.test_nn_tensor import numeric_grad


def grad_close(build, x, atol=2e-2):
    t = Tensor(x, requires_grad=True)
    build(t).backward()
    num = numeric_grad(lambda: float(build(Tensor(x)).data), x)
    assert np.allclose(t.grad, num, atol=atol), np.abs(t.grad - num).max()


@pytest.fixture
def x(rng):
    return rng.standard_normal((5, 4)).astype(np.float32) + 0.05


def test_relu_leaky_elu_grads(x):
    grad_close(lambda t: F.relu(t).sum(), x)
    grad_close(lambda t: F.leaky_relu(t, 0.1).sum(), x)
    grad_close(lambda t: F.elu(t).sum(), x)


def test_relu_forward_values():
    out = F.relu(Tensor([[-1.0, 2.0]]))
    assert out.data.tolist() == [[0.0, 2.0]]
    out = F.leaky_relu(Tensor([[-1.0, 2.0]]), 0.2)
    assert np.allclose(out.data, [[-0.2, 2.0]])


def test_dropout_train_vs_eval(x, rng):
    t = Tensor(x)
    assert F.dropout(t, 0.5, rng, training=False) is t
    out = F.dropout(t, 0.5, rng, training=True)
    kept = out.data != 0
    # inverted dropout rescales survivors
    assert np.allclose(out.data[kept], x[kept] * 2.0, atol=1e-5)


def test_log_softmax_rows_normalised(x):
    out = F.log_softmax(Tensor(x))
    assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-5)


def test_cross_entropy_matches_manual(x):
    labels = np.array([0, 1, 2, 3, 0])
    loss = F.cross_entropy(Tensor(x), labels)
    logp = F.log_softmax(Tensor(x)).data
    manual = -logp[np.arange(5), labels].mean()
    assert float(loss.data) == pytest.approx(manual, abs=1e-6)


def test_cross_entropy_grad(x):
    labels = np.array([0, 1, 2, 3, 0])
    grad_close(lambda t: F.cross_entropy(t, labels), x, atol=5e-3)


def test_gather_and_slice_rows_grads(x):
    rows = np.array([0, 2, 2, 4])
    grad_close(lambda t: (F.gather_rows(t, rows) ** 2.0).sum(), x)
    grad_close(lambda t: (F.slice_rows(t, 3) * 3.0).sum(), x)


def test_slice_rows_is_prefix(x):
    out = F.slice_rows(Tensor(x), 2)
    assert np.array_equal(out.data, x[:2])


@pytest.fixture
def csr():
    indptr = np.array([0, 2, 5])
    indices = np.array([1, 2, 0, 3, 4])
    return indptr, indices


def test_spmm_sum_grad(csr, x):
    indptr, indices = csr
    grad_close(
        lambda t: (F.spmm_sum(indptr, indices, t) ** 2.0).sum(), x
    )


def test_spmm_sum_weighted_grads(csr, x, rng):
    indptr, indices = csr
    w = rng.standard_normal(5).astype(np.float32)
    grad_close(
        lambda t: (
            F.spmm_sum(indptr, indices, t, edge_weights=Tensor(w)) ** 2.0
        ).sum(),
        x,
    )
    # gradient w.r.t. weights is the g-SDDMM
    wt = Tensor(w, requires_grad=True)
    xs = Tensor(x)
    (F.spmm_sum(indptr, indices, xs, edge_weights=wt) ** 2.0).sum().backward()
    num = numeric_grad(
        lambda: float(
            (F.spmm_sum(indptr, indices, xs, edge_weights=Tensor(w)) ** 2.0)
            .sum().data
        ),
        w,
    )
    assert np.allclose(wt.grad, num, atol=2e-2)


def test_spmm_mean_grad(csr, x):
    indptr, indices = csr
    grad_close(
        lambda t: (F.spmm_mean(indptr, indices, t) ** 2.0).sum(), x
    )


def test_spmm_dup_counts_do_not_change_grad(csr, x):
    indptr, indices = csr
    dup = np.bincount(indices, minlength=5)
    a = Tensor(x, requires_grad=True)
    (F.spmm_sum(indptr, indices, a) ** 2.0).sum().backward()
    b = Tensor(x, requires_grad=True)
    (F.spmm_sum(indptr, indices, b, duplicate_counts=dup) ** 2.0).sum().backward()
    assert np.allclose(a.grad, b.grad, atol=1e-5)


def test_edge_softmax_grad(csr, rng):
    indptr, indices = csr
    logits = rng.standard_normal((5, 2)).astype(np.float32)
    grad_close(
        lambda t: (F.edge_softmax(indptr, t) ** 2.0).sum(), logits
    )


def test_edge_softmax_normalised_per_target(csr, rng):
    indptr, _ = csr
    alpha = F.edge_softmax(indptr, Tensor(rng.standard_normal((5, 3))))
    assert np.allclose(alpha.data[0:2].sum(axis=0), 1.0, atol=1e-5)
    assert np.allclose(alpha.data[2:5].sum(axis=0), 1.0, atol=1e-5)


def test_edge_gather_add_grads(csr, rng):
    indptr, indices = csr
    dst = rng.standard_normal((5, 2)).astype(np.float32)  # >2 rows: prefix
    src = rng.standard_normal((5, 2)).astype(np.float32)
    grad_close(
        lambda t: (
            F.edge_gather_add(indptr, indices, t, Tensor(src)) ** 2.0
        ).sum(),
        dst,
    )
    grad_close(
        lambda t: (
            F.edge_gather_add(indptr, indices, Tensor(dst), t) ** 2.0
        ).sum(),
        src,
    )


# GAT's fused aggregation: spmm_sum with per-head edge weights.  Targets 1
# and 3 have no edges, the 4 targets are a prefix of the 7 sources, and
# sources 3, 5 and 6 are referenced by no edge.
HEAD_INDPTR = np.array([0, 2, 2, 5, 5])
HEAD_INDICES = np.array([1, 4, 0, 4, 2])


@pytest.mark.parametrize("heads", [1, 4])
def test_spmm_sum_per_head_grads(rng, heads):
    alpha = rng.random((5, heads)).astype(np.float32)
    feat = rng.standard_normal((7, heads, 3)).astype(np.float32)
    weight = rng.standard_normal((4, heads, 3)).astype(np.float32)

    def loss(a, x):
        out = F.spmm_sum(HEAD_INDPTR, HEAD_INDICES, x, edge_weights=a)
        assert out.shape == (4, heads, 3)
        return (out * Tensor(weight)).sum() + (out ** 2.0).sum()

    grad_close(lambda t: loss(t, Tensor(feat)), alpha)
    grad_close(lambda t: loss(Tensor(alpha), t), feat)
    # unreferenced sources get exactly zero gradient
    x = Tensor(feat, requires_grad=True)
    loss(Tensor(alpha), x).backward()
    assert not x.grad[[3, 5, 6]].any()


def _loop_aggregate(indptr, indices, alpha, x, g):
    """Loop reference for the per-head aggregation, in float64: output,
    gradient w.r.t. ``alpha`` and w.r.t. ``x`` for upstream gradient ``g``."""
    alpha, x, g = (a.astype(np.float64) for a in (alpha, x, g))
    out = np.zeros((indptr.shape[0] - 1,) + x.shape[1:])
    g_alpha = np.zeros_like(alpha)
    g_x = np.zeros_like(x)
    for t in range(indptr.shape[0] - 1):
        for e in range(indptr[t], indptr[t + 1]):
            s = indices[e]
            out[t] += alpha[e][:, None] * x[s]
            g_alpha[e] = (g[t] * x[s]).sum(axis=-1)
            g_x[s] += alpha[e][:, None] * g[t]
    return out, g_alpha, g_x


def test_spmm_sum_per_head_matches_loop_reference(seeded_rng):
    """float32 fused op vs the float64 loop: rtol 1e-5 (atol 1e-5 for
    entries that cancel to near zero)."""
    rng = seeded_rng
    heads, dim, num_src, num_targets = 4, 8, 40, 25
    deg = rng.integers(0, 9, size=num_targets)
    deg[::7] = 0
    indptr = np.concatenate(([0], np.cumsum(deg)))
    indices = rng.integers(0, num_src, size=indptr[-1])
    alpha = rng.random((indptr[-1], heads)).astype(np.float32)
    feat = rng.standard_normal((num_src, heads, dim)).astype(np.float32)
    g = rng.standard_normal((num_targets, heads, dim)).astype(np.float32)
    a, x = Tensor(alpha, requires_grad=True), Tensor(feat, requires_grad=True)
    out = F.spmm_sum(indptr, indices, x, edge_weights=a)
    out.backward(g)
    ref_out, ref_ga, ref_gx = _loop_aggregate(indptr, indices, alpha, feat, g)
    for got, ref in ((out.data, ref_out), (a.grad, ref_ga), (x.grad, ref_gx)):
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)


def test_einsum_grads(rng):
    h = rng.standard_normal((5, 2, 3)).astype(np.float32)
    att = rng.standard_normal((2, 3)).astype(np.float32)
    w = rng.standard_normal((5, 2)).astype(np.float32)
    out = F.einsum("nhd,hd->nh", Tensor(h), Tensor(att))
    assert np.allclose(out.data, (h * att).sum(axis=2), atol=1e-6)
    grad_close(
        lambda t: (F.einsum("nhd,hd->nh", t, Tensor(att)) * Tensor(w)).sum(),
        h,
    )
    grad_close(
        lambda t: (F.einsum("nhd,hd->nh", Tensor(h), t) ** 2.0).sum(), att
    )
