"""Generalised sampled-dense-dense matrix multiplication (g-SDDMM).

Computes a per-edge scalar (or vector) from the dense features of the edge's
endpoints, "sampled" at the sparse adjacency pattern:

- :func:`gsddmm_dot` — ``z_e = <u[dst_e], v[src_e]>`` — the backward of
  g-SpMM with respect to edge weights (paper §III-C4), and the attention
  logits of transformer-style GNNs;
- :func:`gsddmm_add` — ``z_e = u[dst_e] + v[src_e]`` — GAT's additive
  attention, per head; :func:`gsddmm_add_backward` is its pullback, the
  SpMM of the edge incidence and of its transpose.

All operate on the CSR layout (edges sorted by destination row).
"""

from __future__ import annotations

import numpy as np

from repro.ops.segment import segment_ids_from_indptr
from repro.ops.spmm import csr_matmul, csr_operator

# edges per block in gsddmm_dot: bounds the gathered endpoint operands to
# a few MB, so a per-edge (E, H, D) pair never exists
_EDGE_BLOCK = 4096


def gsddmm_dot(
    csr_indptr, csr_indices, dst_features: np.ndarray, src_features: np.ndarray
) -> np.ndarray:
    """Per-edge dot product of endpoint features.

    ``dst_features`` is indexed by CSR row, ``src_features`` by CSR column.
    Returns an array of shape ``(num_edges,)`` (2-D inputs) or
    ``(num_edges, heads)`` (3-D inputs ``(nodes, heads, dim)``).  Edges are
    processed in fixed-size blocks, so the gathered endpoint rows never
    span the whole edge list.
    """
    indices = np.asarray(csr_indices, dtype=np.int64)
    dst_ids = segment_ids_from_indptr(csr_indptr)
    dtype = np.result_type(dst_features, src_features)
    out = np.empty(indices.shape + dst_features.shape[1:-1], dtype=dtype)
    for lo in range(0, indices.shape[0], _EDGE_BLOCK):
        hi = lo + _EDGE_BLOCK
        np.einsum("...d,...d->...", dst_features[dst_ids[lo:hi]],
                  src_features[indices[lo:hi]], out=out[lo:hi])
    return out


def gsddmm_add(
    csr_indptr, csr_indices, dst_values: np.ndarray, src_values: np.ndarray
) -> np.ndarray:
    """Per-edge sum of endpoint scalars (GAT's ``a_l^T Wh_dst + a_r^T Wh_src``)."""
    indices = np.asarray(csr_indices, dtype=np.int64)
    dst_ids = segment_ids_from_indptr(csr_indptr)
    return dst_values[dst_ids] + src_values[indices]


def gsddmm_add_backward(
    csr_indptr, csr_indices, grad_edges: np.ndarray, num_src: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pullback of :func:`gsddmm_add`: per-edge gradients summed into their
    CSR row (one per target) and their column (one per source).

    The row sums are the SpMM of the row→edge incidence (the CSR pattern
    with unit values over edge columns); the column sums are the transposed
    SpMM of the edge→source incidence, so no argsort of the edges is needed.
    """
    indptr = np.asarray(csr_indptr, dtype=np.int64)
    edges = np.arange(indptr[-1] + 1, dtype=np.int64)
    rows = csr_operator(indptr, edges[:-1], edges.shape[0] - 1)
    cols = csr_operator(edges, csr_indices, num_src)
    return (csr_matmul(rows, grad_edges),
            csr_matmul(cols, grad_edges, transpose=True))
