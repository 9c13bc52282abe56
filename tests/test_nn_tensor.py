"""Autograd engine: every op's gradient vs central finite differences."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, unbroadcast


def numeric_grad(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f()
        x[i] = orig - eps
        fm = f()
        x[i] = orig
        g[i] = (fp - fm) / (2 * eps)
    return g


def check_grad(build, x: np.ndarray, atol: float = 2e-2):
    """``build(Tensor) -> scalar Tensor``; compares grads to numeric."""
    t = Tensor(x, requires_grad=True)
    loss = build(t)
    loss.backward()
    num = numeric_grad(lambda: float(build(Tensor(x)).data), x)
    assert np.allclose(t.grad, num, atol=atol), (t.grad, num)


@pytest.fixture
def x(rng):
    return rng.standard_normal((4, 3)).astype(np.float32)


def test_add_mul_sub_grads(x, rng):
    y = rng.standard_normal((4, 3)).astype(np.float32)
    check_grad(lambda t: ((t + Tensor(y)) * t - t).sum(), x)


def test_broadcast_add_bias_grad(x):
    b = np.ones(3, dtype=np.float32)
    t = Tensor(x, requires_grad=True)
    bias = Tensor(b, requires_grad=True)
    (t + bias).sum().backward()
    assert np.allclose(bias.grad, np.full(3, 4.0))
    assert np.allclose(t.grad, np.ones((4, 3)))


def test_matmul_grad(x, rng):
    w = rng.standard_normal((3, 5)).astype(np.float32)
    check_grad(lambda t: (t @ Tensor(w)).sum(), x)
    wt = Tensor(w, requires_grad=True)
    (Tensor(x) @ wt).sum().backward()
    num = numeric_grad(
        lambda: float((Tensor(x) @ Tensor(w)).sum().data), w
    )
    assert np.allclose(wt.grad, num, atol=2e-2)


def test_matmul_skips_grad_of_no_grad_operand(x, rng):
    w = rng.standard_normal((3, 5)).astype(np.float32)
    g = rng.standard_normal((4, 5)).astype(np.float32)
    feats, wt = Tensor(x), Tensor(w, requires_grad=True)
    (feats @ wt).backward(g)
    assert np.array_equal(wt.grad, x.T @ g)
    assert feats.grad is None
    # and the other way round
    xt, frozen = Tensor(x, requires_grad=True), Tensor(w)
    (xt @ frozen).backward(g)
    assert np.array_equal(xt.grad, g @ w.T)
    assert frozen.grad is None


def test_div_pow_grads(x):
    xp = np.abs(x) + 1.0
    check_grad(lambda t: (t / Tensor(np.full_like(xp, 2.0))).sum(), xp)
    check_grad(lambda t: (t ** 2.0).sum(), xp)


def test_mean_and_axis_sum_grads(x):
    check_grad(lambda t: t.mean(), x)
    check_grad(lambda t: t.sum(axis=0).sum(), x)
    check_grad(lambda t: t.sum(axis=1, keepdims=True).sum(), x)


def test_reshape_grad(x):
    check_grad(lambda t: (t.reshape(2, 6) * 2.0).sum(), x)


def test_diamond_graph_accumulates(x):
    """y used twice: gradient contributions must add."""
    t = Tensor(x, requires_grad=True)
    y = t * 2.0
    (y + y).sum().backward()
    assert np.allclose(t.grad, np.full_like(x, 4.0))


def test_no_grad_tracking_when_not_required(x):
    t = Tensor(x)  # requires_grad False
    out = (t * 2.0).sum()
    assert not out.requires_grad
    assert out._backward is None


def test_backward_twice_accumulates(x):
    t = Tensor(x, requires_grad=True)
    loss = (t * 3.0).sum()
    loss.backward()
    first = t.grad.copy()
    loss2 = (t * 3.0).sum()
    loss2.backward()
    assert np.allclose(t.grad, 2 * first)


def test_zero_grad(x):
    t = Tensor(x, requires_grad=True)
    (t * 1.0).sum().backward()
    t.zero_grad()
    assert t.grad is None


def test_detach_breaks_graph(x):
    t = Tensor(x, requires_grad=True)
    d = (t * 2.0).detach()
    assert not d.requires_grad


def test_unbroadcast_shapes():
    g = np.ones((4, 3))
    assert unbroadcast(g, (3,)).shape == (3,)
    assert unbroadcast(g, (1, 3)).shape == (1, 3)
    assert unbroadcast(g, (4, 1)).shape == (4, 1)
    assert np.allclose(unbroadcast(g, (3,)), np.full(3, 4.0))


def test_deep_chain_no_recursion_limit():
    t = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    out = t
    for _ in range(3000):
        out = out * 1.0
    out.sum().backward()
    assert np.allclose(t.grad, np.ones(2))
