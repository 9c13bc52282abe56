"""GNN layers and the three evaluation models."""

import numpy as np
import pytest

from repro.nn import GATConv, GCNConv, SAGEConv, Tensor, build_model
from repro.nn import functional as F
from repro.nn.models import GAT, GCN, MODEL_NAMES, GraphSage
from repro.ops.neighbor_sampler import LayerBlock, NeighborSampler


def toy_block(rng, num_targets=3, num_src=7, fanout=3):
    counts = rng.integers(0, fanout + 1, size=num_targets)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    indices = rng.integers(0, num_src, size=indptr[-1])
    dup = np.bincount(indices, minlength=num_src)
    return LayerBlock(
        indptr=indptr, indices=indices, num_targets=num_targets,
        num_src=num_src, duplicate_counts=dup,
    )


@pytest.fixture
def block(rng):
    return toy_block(rng)


def test_gcn_conv_output_shape_and_semantics(rng, block):
    conv = GCNConv(4, 6, rng)
    x = rng.standard_normal((7, 4)).astype(np.float32)
    out = conv(block, Tensor(x))
    assert out.shape == (3, 6)
    # row t aggregates (sum_nbrs + self) / (deg+1) then projects
    for t in range(3):
        nbrs = block.indices[block.indptr[t]:block.indptr[t + 1]]
        agg = (x[nbrs].sum(axis=0) + x[t]) / (len(nbrs) + 1)
        expected = agg @ conv.linear.weight.data + conv.linear.bias.data
        assert np.allclose(out.data[t], expected, atol=1e-4)


def test_sage_conv_semantics(rng, block):
    conv = SAGEConv(4, 5, rng)
    x = rng.standard_normal((7, 4)).astype(np.float32)
    out = conv(block, Tensor(x))
    for t in range(3):
        nbrs = block.indices[block.indptr[t]:block.indptr[t + 1]]
        mean = x[nbrs].mean(axis=0) if len(nbrs) else np.zeros(4)
        expected = (
            x[t] @ conv.linear_self.weight.data
            + conv.linear_self.bias.data
            + mean @ conv.linear_neigh.weight.data
        )
        assert np.allclose(out.data[t], expected, atol=1e-4)


def test_gat_conv_shape_and_heads(rng, block):
    conv = GATConv(4, 8, rng, num_heads=4)
    x = rng.standard_normal((7, 4)).astype(np.float32)
    out = conv(block, Tensor(x))
    assert out.shape == (3, 8)
    assert conv.head_dim == 2


def test_gat_attention_is_convex_combination(rng):
    """With a single head and the bias zeroed, each output row lies in the
    convex hull of its neighbors' projected features."""
    block = LayerBlock(
        indptr=np.array([0, 3]), indices=np.array([0, 1, 2]),
        num_targets=1, num_src=3,
        duplicate_counts=np.array([1, 1, 1]),
    )
    conv = GATConv(4, 4, rng, num_heads=1)
    x = rng.standard_normal((3, 4)).astype(np.float32)
    out = conv(block, Tensor(x)).data - conv.bias.data
    h = x @ conv.linear.weight.data
    lo, hi = h.min(axis=0) - 1e-4, h.max(axis=0) + 1e-4
    assert np.all(out[0] >= lo) and np.all(out[0] <= hi)


def test_gat_conv_grads_match_finite_differences(rng):
    """Whole-layer gradient check through ``linear``, ``att_src``,
    ``att_dst``, ``bias`` and the input, on a block with an empty target
    and unreferenced sources."""
    from tests.test_nn_tensor import numeric_grad

    block = LayerBlock(
        indptr=np.array([0, 3, 3, 6]), indices=np.array([1, 4, 0, 2, 4, 0]),
        num_targets=3, num_src=6,
        duplicate_counts=np.array([2, 1, 1, 0, 2, 0]),
    )
    conv = GATConv(3, 4, rng, num_heads=2)
    x = rng.standard_normal((6, 3)).astype(np.float32)
    weight = Tensor(rng.standard_normal((3, 4)).astype(np.float32))

    def loss(inp):
        return (conv(block, inp) * weight).sum()

    xt = Tensor(x, requires_grad=True)
    conv.zero_grad()
    loss(xt).backward()
    for name, value, grad in (
        ("x", x, xt.grad),
        ("linear", conv.linear.weight.data, conv.linear.weight.grad),
        ("att_src", conv.att_src.data, conv.att_src.grad),
        ("att_dst", conv.att_dst.data, conv.att_dst.grad),
        ("bias", conv.bias.data, conv.bias.grad),
    ):
        num = numeric_grad(lambda: float(loss(Tensor(x)).data), value)
        assert grad is not None and grad.shape == value.shape, name
        assert np.allclose(grad, num, atol=2e-2), (name, grad, num)


def test_gat_rejects_indivisible_heads(rng):
    with pytest.raises(ValueError):
        GATConv(4, 10, rng, num_heads=4)


def test_layer_cost_estimates_positive(rng, block):
    for conv in (GCNConv(4, 8, rng), SAGEConv(4, 8, rng),
                 GATConv(4, 8, rng)):
        cost = conv.estimate_cost(3, 7, block.num_edges)
        assert cost["flops"] > 0 and cost["sparse_bytes"] > 0


def test_build_model_dispatch(rng):
    assert isinstance(build_model("gcn", 8, 4, rng, hidden=16,
                                  num_layers=2), GCN)
    assert isinstance(build_model("graphsage", 8, 4, rng, hidden=16,
                                  num_layers=2), GraphSage)
    assert isinstance(build_model("gat", 8, 4, rng, hidden=16,
                                  num_layers=2), GAT)
    with pytest.raises(ValueError):
        build_model("transformer", 8, 4, rng)
    assert set(MODEL_NAMES) == {"gcn", "graphsage", "gat"}


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_models_forward_on_sampled_subgraph(name, small_store, rng):
    sampler = NeighborSampler(small_store, [4, 4], charge=False)
    seeds = small_store.train_nodes[:16]
    sg = sampler.sample(seeds, 0, rng)
    model = build_model(name, small_store.feature_dim,
                        small_store.num_classes, rng, hidden=8, num_layers=2)
    x = Tensor(small_store.feature_tensor.gather_no_cost(sg.input_nodes))
    logits = model(sg, x, rng)
    assert logits.shape == (16, small_store.num_classes)
    loss = F.cross_entropy(logits, small_store.labels[seeds])
    model.zero_grad()
    loss.backward()
    assert all(p.grad is not None for p in model.parameters())


def test_model_layer_count_mismatch_rejected(small_store, rng):
    sampler = NeighborSampler(small_store, [4], charge=False)
    sg = sampler.sample(small_store.train_nodes[:4], 0, rng)
    model = build_model("gcn", small_store.feature_dim, 3, rng,
                        hidden=8, num_layers=2)
    x = Tensor(small_store.feature_tensor.gather_no_cost(sg.input_nodes))
    with pytest.raises(ValueError):
        model(sg, x)


def test_estimate_train_time_positive_and_ordered(small_store, rng):
    """GAT must cost more simulated train time than GCN/SAGE (paper
    §IV-C2's explanation of the smaller GAT speedups)."""
    sampler = NeighborSampler(small_store, [4, 4], charge=False)
    sg = sampler.sample(small_store.train_nodes[:16], 0, rng)
    times = {}
    for name in MODEL_NAMES:
        m = build_model(name, small_store.feature_dim, 8, rng,
                        hidden=16, num_layers=2)
        times[name] = m.estimate_train_time(sg)
        assert times[name] > 0
    assert times["gat"] > times["gcn"]
    assert times["gat"] > times["graphsage"]
