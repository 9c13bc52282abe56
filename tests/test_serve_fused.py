"""Fused serving forwards: the block-diagonal sub-graph union and the
deferred forward of :class:`~repro.serve.engine.InferenceEngine`.

The union must keep the prefix property and every sub's CSR rows (entry
order included), so a forward over it gives each sub's logits; the engine
must serve the same predictions whether its queued forwards run one by one
or fused, at any flush size.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.serve.engine as engine_mod
from repro.graph import MultiGpuGraphStore
from repro.hardware import SimNode
from repro.nn.models import build_model
from repro.ops.neighbor_sampler import (
    LayerBlock,
    NeighborSampler,
    SampledSubgraph,
    batch_subgraphs,
    union_rows,
)
from repro.serve import FrozenModel, InferenceEngine, MicroBatcher, Request

FEATURES, CLASSES = 16, 5


def random_subgraph(rng, depth: int) -> SampledSubgraph:
    """A valid ``depth``-layer sub-graph with some zero-neighbor targets."""
    sizes = [int(rng.integers(1, 5))]
    for _ in range(depth):
        sizes.append(sizes[-1] + int(rng.integers(0, 7)))
    nodes = rng.choice(10_000, size=sizes[-1], replace=False)
    blocks = []
    for l in range(depth):
        counts = rng.integers(0, 4, size=sizes[l])
        counts[rng.random(sizes[l]) < 0.3] = 0
        indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        indices = rng.integers(0, sizes[l + 1], size=int(indptr[-1]))
        blocks.append(LayerBlock(
            indptr=indptr, indices=indices, num_targets=sizes[l],
            num_src=sizes[l + 1],
            duplicate_counts=np.bincount(indices, minlength=sizes[l + 1]),
            edge_positions=rng.integers(0, 10**6, size=indices.size),
        ))
    return SampledSubgraph(
        frontiers=[nodes[:n] for n in sizes], blocks=blocks
    )


def mixed_subgraphs(rng, store, depth: int, count: int) -> list:
    """Hand-built sub-graphs (isolated targets included) and sampled ones."""
    sampler = NeighborSampler(store, [4] * depth, charge=False)
    subs = []
    for k in range(count):
        if k % 2:
            seeds = rng.choice(store.num_nodes, size=int(rng.integers(1, 6)),
                               replace=False)
            subs.append(sampler.sample(seeds, 0, rng))
        else:
            subs.append(random_subgraph(rng, depth))
    return subs


@pytest.fixture(scope="module")
def store(medium_dataset):
    return MultiGpuGraphStore(SimNode(), medium_dataset, seed=0)


def union_position(subs, perm):
    """Union row of every sub's local rows: one array per sub."""
    pos = np.empty_like(perm)
    pos[perm] = np.arange(perm.size)
    off = np.cumsum([0] + [s.input_nodes.size for s in subs])
    return [pos[off[k]:off[k + 1]] for k in range(len(subs))]


def test_union_keeps_prefix_property_and_every_row(seeded_rng, store):
    subs = mixed_subgraphs(seeded_rng, store, depth=3, count=6)
    union, perm = batch_subgraphs(subs)
    union.validate_prefix_property()
    assert np.array_equal(
        union.input_nodes,
        np.concatenate([s.input_nodes for s in subs])[perm],
    )
    # group 0 is every sub's seeds, in sub order
    assert np.array_equal(union.seeds,
                          np.concatenate([s.seeds for s in subs]))
    rows = [seeded_rng.random((s.input_nodes.size, 3)) for s in subs]
    assert np.array_equal(union_rows(subs, rows),
                          np.concatenate(rows)[perm])
    where = union_position(subs, perm)
    for l, block in enumerate(union.blocks):
        assert block.num_targets == sum(s.blocks[l].num_targets for s in subs)
        assert block.num_src == sum(s.blocks[l].num_src for s in subs)
        for sub, pos in zip(subs, where):
            part = sub.blocks[l]
            for t in range(part.num_targets):
                lo, hi = part.indptr[t], part.indptr[t + 1]
                r = pos[t]
                ulo, uhi = block.indptr[r], block.indptr[r + 1]
                # the same entries, mapped to union rows, in the same order
                assert np.array_equal(block.indices[ulo:uhi],
                                      pos[part.indices[lo:hi]])
                assert np.array_equal(block.edge_positions[ulo:uhi],
                                      part.edge_positions[lo:hi])
            assert np.array_equal(
                block.duplicate_counts[pos[:part.num_src]],
                part.duplicate_counts,
            )


def test_union_rejects_mixed_depths(seeded_rng):
    with pytest.raises(ValueError):
        batch_subgraphs([random_subgraph(seeded_rng, 2),
                         random_subgraph(seeded_rng, 3)])


@pytest.mark.parametrize("name", ["graphsage", "gcn", "gat"])
def test_fused_logits_equal_per_batch_logits(seeded_rng, store, name):
    model = FrozenModel(build_model(name, FEATURES, CLASSES, seeded_rng,
                                    hidden=32, num_layers=2))
    subs = mixed_subgraphs(seeded_rng, store, depth=2, count=7)
    feats = [seeded_rng.standard_normal((s.input_nodes.size, FEATURES))
             .astype(np.float32) for s in subs]
    union, perm = batch_subgraphs(subs)
    fused = model(union, np.concatenate(feats)[perm])
    alone = np.concatenate([model(s, f) for s, f in zip(subs, feats)])
    # every sparse stage sums the same terms in the same order; only a
    # GEMM's row-count-dependent kernel choice may move the last float32
    # bits (a few ulps of the largest logit)
    scale = float(np.abs(alone).max())
    np.testing.assert_allclose(fused, alone, rtol=1e-5, atol=1e-5 * scale)
    assert np.array_equal(fused.argmax(axis=-1), alone.argmax(axis=-1))


def make_engine(dataset, frozen, replicas):
    store = MultiGpuGraphStore(SimNode(), dataset, seed=0)
    return InferenceEngine(store, model=frozen, fanouts=[5, 5],
                           batcher=MicroBatcher(32, 50.0), replicas=replicas)


@pytest.fixture(scope="module")
def frozen(medium_dataset):
    rng = np.random.default_rng(4)
    model = build_model("graphsage", medium_dataset.features.shape[1],
                        medium_dataset.num_classes, rng, hidden=32,
                        num_layers=2)
    return FrozenModel(model)


def test_single_queued_batch_runs_unfused(medium_dataset, frozen,
                                          monkeypatch):
    eng = make_engine(medium_dataset, frozen, replicas=[0])
    rec = eng._execute(np.array([3, 9, 3]), 0, np.random.default_rng(0))
    assert isinstance(rec, engine_mod.DeferredForward)

    def no_union(subs):
        raise AssertionError("a lone batch must not build a union")

    monkeypatch.setattr(engine_mod, "batch_subgraphs", no_union)
    predictions = np.full(3, -1)
    eng._forward([(np.arange(3), rec)], predictions)
    want = frozen.predict(rec.sub, rec.feats)[rec.inverse]
    assert np.array_equal(predictions, want)
    assert predictions[0] == predictions[2]


def test_serve_predictions_match_per_batch_forwards(
    medium_dataset, frozen, registry, monkeypatch
):
    # a small pool and a burst of arrivals: batches repeat nodes
    rng = np.random.default_rng(8)
    pool = medium_dataset.test_nodes[:12]
    reqs = [Request(i, int(rng.choice(pool)), float(i) * 2e-7)
            for i in range(300)]
    monkeypatch.setattr(engine_mod, "FUSED_FORWARD_ROWS", 600)
    eng = make_engine(medium_dataset, frozen, replicas=[0, 1])
    flushes, expected = [], np.full(len(reqs), -1)
    forward = eng._forward

    def recording(queued, predictions):
        flushes.append(len(queued))
        for batch, rec in queued:
            expected[batch] = frozen.predict(rec.sub, rec.feats)[rec.inverse]
            if rec.inverse.size > rec.sub.seeds.size:
                flushes.append("duplicates")
        forward(queued, predictions)

    monkeypatch.setattr(eng, "_forward", recording)
    result = eng.serve(reqs, seed=3)
    assert "duplicates" in flushes
    sizes = [f for f in flushes if f != "duplicates"]
    # several flushes per replica, most of them fused
    assert len(sizes) > 2 * len(eng.replicas)
    assert sum(n > 1 for n in sizes) > len(eng.replicas)
    assert np.array_equal(result.predictions, expected)

    # the fused run is the same serve: latencies and report unchanged
    monkeypatch.setattr(engine_mod, "FUSED_FORWARD_ROWS", 0)
    unfused = make_engine(medium_dataset, frozen, replicas=[0, 1])
    again = unfused.serve(reqs, seed=3)
    assert np.array_equal(again.latencies, result.latencies)
    assert np.array_equal(again.predictions, result.predictions)
