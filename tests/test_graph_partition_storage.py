"""Hash partitioning, GlobalIDs and the multi-GPU graph store."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import MultiGpuGraphStore, hash_partition, load_dataset
from repro.hardware import SimNode
from repro.utils.hashing import splitmix64


@given(st.integers(min_value=1, max_value=3000),
       st.integers(min_value=1, max_value=16))
def test_partition_is_a_bijection(n, ranks):
    p = hash_partition(n, ranks)
    assert p.counts.sum() == n
    # to_stored / to_original invert each other
    assert np.array_equal(p.to_original[p.to_stored], np.arange(n))
    assert np.array_equal(p.to_stored[p.to_original], np.arange(n))


@given(st.integers(min_value=100, max_value=3000))
def test_partition_global_ids_consistent_with_stored_rows(n):
    p = hash_partition(n, 8)
    nodes = np.arange(n)
    gids = p.global_ids(nodes)
    # GlobalID (rank||local) addresses the same storage row
    assert np.array_equal(p.stored_of_global(gids), p.to_stored[nodes])


def test_partition_balanced():
    p = hash_partition(100_000, 8)
    assert p.counts.max() - p.counts.min() < 0.05 * p.counts.mean()


def test_partition_rank_blocks_contiguous():
    p = hash_partition(1000, 8)
    owners_by_row = p.owner[p.to_original]
    # stored layout groups each rank's nodes contiguously
    changes = np.count_nonzero(np.diff(owners_by_row))
    assert changes == 7


def test_partition_rank_of_stored():
    p = hash_partition(1000, 8)
    rows = np.arange(1000)
    assert np.array_equal(
        p.rank_of_stored(rows), p.owner[p.to_original]
    )


def test_splitmix64_mixes():
    h = splitmix64(np.arange(1000).astype(np.uint64))
    # adjacent inputs land in different low bits
    assert len(set((h % np.uint64(8)).tolist())) == 8


def test_partition_seed_changes_assignment():
    a = hash_partition(1000, 8, seed=0)
    b = hash_partition(1000, 8, seed=1)
    assert not np.array_equal(a.owner, b.owner)


@given(st.integers(min_value=0, max_value=2**63))
def test_partition_accepts_any_seed(seed):
    """Regression: seed mixing must stay in 64-bit modular arithmetic
    (seed >= 2 used to overflow the uint64 conversion)."""
    p = hash_partition(64, 8, seed=seed)
    assert p.counts.sum() == 64


# -- store ---------------------------------------------------------------------

def test_store_features_match_dataset(small_store, small_dataset):
    s = np.array([0, 1, 100, small_store.num_nodes - 1])
    orig = small_store.partition.to_original[s]
    got = small_store.gather_features(s, rank=0)
    assert np.allclose(got, small_dataset.features[orig])


def test_store_neighbors_match_dataset(small_store, small_dataset):
    for stored in [0, 5, 999]:
        orig = small_store.partition.to_original[stored]
        flat, counts = small_store.neighbors_concat([stored])
        got = np.sort(small_store.partition.to_original[flat])
        assert np.array_equal(got, np.sort(small_dataset.graph.neighbors(orig)))


def test_store_labels_and_splits_translated(small_store, small_dataset):
    back = small_store.partition.to_original[small_store.train_nodes]
    assert set(back.tolist()) == set(small_dataset.train_nodes.tolist())
    # labels permuted consistently
    assert np.array_equal(
        small_store.labels,
        small_dataset.labels[small_store.partition.to_original],
    )


def test_store_structure_lives_in_dsm(small_store):
    """The DSM partitions hold exactly the canonical CSR slices."""
    csr = small_store.csr
    for rank in range(small_store.node.num_gpus):
        lo = small_store.partition.rank_offsets[rank]
        hi = small_store.partition.rank_offsets[rank + 1]
        elo, ehi = csr.indptr[lo], csr.indptr[hi]
        part = small_store.indices_tensor.local_part(rank).ravel()
        assert np.array_equal(part, csr.indices[elo:ehi])


def test_store_edges_partitioned_with_source(small_store):
    assert sum(small_store.edges_per_rank) == small_store.num_edges


def test_store_memory_tagged(small_store):
    usage = small_store.memory_usage_per_gpu()
    assert usage["graph"] > 0
    assert usage["feature"] > 0
    # features: num_nodes * dim * 4 bytes spread over 8 GPUs
    expected = small_store.num_nodes * small_store.feature_dim * 4 / 8
    assert usage["feature"] == pytest.approx(expected)


def test_store_free_releases(small_dataset):
    node = SimNode()
    store = MultiGpuGraphStore(node, small_dataset, seed=0)
    store.free()
    assert node.total_memory_usage() == 0


def test_dropped_store_releases_its_feature_rows(small_dataset):
    # nothing process-global (e.g. an IPC handle registry) may keep a
    # dropped store's rows alive
    store = MultiGpuGraphStore(SimNode(), small_dataset, seed=0)
    rows = weakref.ref(store.feature_tensor.local_part(0).base)
    del store
    gc.collect()
    assert rows() is None


def test_datasets_registry_complete():
    from repro.graph.datasets import DATASETS, dataset_spec

    assert set(DATASETS) == {
        "ogbn-products", "ogbn-papers100M", "friendster", "uk_domain"
    }
    with pytest.raises(KeyError):
        dataset_spec("ogbn-nope")


def test_dataset_split_fractions():
    ds = load_dataset("friendster", num_nodes=5000, seed=0, feature_dim=8)
    # 1% labels, 80/10/10 -> ~40 train, ~5 val, ~5 test at 5000 nodes
    assert 20 <= len(ds.train_nodes) <= 60
    assert len(ds.val_nodes) >= 1
    # splits disjoint
    all_ids = np.concatenate([ds.train_nodes, ds.val_nodes, ds.test_nodes])
    assert np.unique(all_ids).shape[0] == all_ids.shape[0]


def test_dataset_homophily_learnable_signal():
    """Features correlate with labels (class centroids separable)."""
    ds = load_dataset("ogbn-products", num_nodes=2000, seed=1,
                      feature_dim=16, num_classes=4)
    centroids = np.stack([
        ds.features[ds.labels == c].mean(axis=0) for c in range(4)
    ])
    dists = np.linalg.norm(
        centroids[:, None, :] - centroids[None, :, :], axis=-1
    )
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 0.5  # distinct centroids


def test_dataset_full_iterations_per_epoch():
    from repro.graph.datasets import dataset_spec

    spec = dataset_spec("ogbn-products")
    assert spec.full_iterations_per_epoch == int(np.ceil(196_615 / 512))
