"""Parallel random sampling without replacement (paper Algorithm 1).

WholeGraph needs, for every target node, ``M`` random neighbors drawn
*without replacement* from its ``N`` neighbors.  Rejection-free parallel
generation is non-trivial because each lane must avoid every other lane's
pick.  The paper adopts the path-doubling scheme of Rajan, Ghosh & Gupta
(IPL 1989):

1. lane ``i`` draws ``r[i]`` uniform in ``[0, N-1-i]`` — a parallel analogue
   of Floyd's sampling;
2. the draws are sorted (the paper packs the 32-bit value and the 32-bit
   lane index into one 64-bit key and radix-sorts once — reproduced here);
3. colliding draws are redirected to the "reserved" values
   ``{N-M, …, N-1}`` through a successor ``chain`` array resolved with
   path doubling (``chain[i] = chain[chain[i]]`` for ``log M`` rounds);
4. each lane emits either its own draw (first of its value group) or the
   redirect of its predecessor in the sorted order.

The output is always ``M`` *distinct* neighbor indices, and the marginal
distribution is uniform — both are property-tested.

Two entry points:

- :func:`parallel_sample_without_replacement` — a single (N, M) instance,
  literal transcription of Algorithm 1;
- :func:`batch_sample_without_replacement` — the batched form used by the
  training pipeline: one CUDA thread block per target node becomes one row
  of a ``(B, M)`` array program, all rows resolved simultaneously.
"""

from __future__ import annotations

import numpy as np


def _parallel_sort_packed(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The paper's radix-sort trick: pack value<<32 | index, sort once.

    Returns ``(s, p)``: sorted values and the original index of each.
    Packing makes the sort stable by construction (ties broken by index),
    exactly like the 64-bit radix sort in the CUDA implementation.
    """
    idx = np.arange(r.shape[-1], dtype=np.uint64)
    packed = (r.astype(np.uint64) << np.uint64(32)) | idx
    packed.sort(axis=-1)
    s = (packed >> np.uint64(32)).astype(np.int64)
    p = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
    return s, p


def _path_doubling(chain: np.ndarray, row_len: int) -> np.ndarray:
    """Resolve successor chains: ``chain[i] <- chain[chain[i]]`` to fixpoint.

    Converges in ``ceil(log2(row_len))`` rounds — the classic
    pointer-jumping primitive (line 12 of Algorithm 1).  ``chain`` holds
    the rows flattened, each entry offset by its row start, so one gather
    per round jumps every row at once.
    """
    rounds = max(1, int(np.ceil(np.log2(max(row_len, 2)))))
    for _ in range(rounds):
        chain = chain[chain]
    return chain


def parallel_sample_without_replacement(
    neighbor_count: int,
    max_sample: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Algorithm 1 for a single target node.

    Parameters
    ----------
    neighbor_count:
        ``N``, the node's degree.
    max_sample:
        ``M``, the number of samples; must satisfy ``M <= N`` (for
        ``M >= N`` the caller simply takes all neighbors — paper §III-C1).

    Returns
    -------
    np.ndarray
        ``M`` distinct neighbor indices in ``[0, N)``.
    """
    n, m = int(neighbor_count), int(max_sample)
    if m > n:
        raise ValueError("Algorithm 1 requires M <= N; take all neighbors instead")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    out = batch_sample_without_replacement(
        np.array([n], dtype=np.int64), m, rng
    )
    return out[0]


def batch_sample_without_replacement(
    neighbor_counts: np.ndarray,
    max_sample: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Algorithm 1 batched over ``B`` target nodes (one row per node).

    Every row must have ``N_b >= M`` (callers split off the take-all rows
    first).  Returns a ``(B, M)`` int64 array of distinct indices per row.
    """
    counts = np.asarray(neighbor_counts, dtype=np.int64)
    m = int(max_sample)
    b = counts.shape[0]
    if m == 0 or b == 0:
        return np.empty((b, m), dtype=np.int64)
    if np.any(counts < m):
        raise ValueError("every row must satisfy N >= M")

    lanes = np.arange(m, dtype=np.int64)
    # rows are addressed flat: element (row, i) sits at row * m + i
    row_start = (np.arange(b, dtype=np.int64) * m)[:, None]
    # line 2: r[i] ~ uniform[0, N-1-i]
    spans = counts[:, None] - lanes[None, :]  # N - i, always >= 1
    r = (rng.random((b, m)) * spans).astype(np.int64)

    # line 5: s, p = parallel_sort(r)  (packed 64-bit radix sort)
    s, p = _parallel_sort_packed(r)
    p_flat = (p + row_start).ravel()

    # line 7: q[p[i]] = i
    q = np.empty(b * m, dtype=np.int64)
    q[p_flat] = np.tile(lanes, b)
    q = q.reshape(b, m)

    # line 3: chain[i] = i; lines 8-10: last occurrence of each value group
    # with s[i] >= N-M claims slot chain[N - s[i] - 1] = p[i]
    chain = np.arange(b * m, dtype=np.int64)
    is_group_end = np.ones((b, m), dtype=bool)
    is_group_end[:, :-1] = s[:, :-1] != s[:, 1:]
    eligible = is_group_end & (s >= (counts[:, None] - m))
    slots = counts[:, None] - s - 1  # N - s[i] - 1, in [0, M) when eligible
    chain[(slots + row_start)[eligible]] = p_flat[eligible.ravel()]

    # line 12: path doubling
    chain = _path_doubling(chain, m)

    # line 14: last[i] = N - chain[i] - 1
    last = (counts[:, None] - (chain.reshape(b, m) - row_start) - 1).ravel()

    # lines 16-22: emit own draw for the first of each value group, else the
    # redirect of the predecessor in sorted order.  q[i] is lane i's sorted
    # position, so s[q[i]] is its own draw r[i].
    prev_flat = (np.maximum(q - 1, 0) + row_start).ravel()
    first_of_group = q == 0
    first_of_group[:, 0] = True  # line 17: i == 0
    first_of_group |= r != s.ravel()[prev_flat].reshape(b, m)
    # res[i] = last[p[q[i]-1]] for the rest
    res = last[p_flat[prev_flat]].reshape(b, m)
    res[first_of_group] = r[first_of_group]
    return res


def batch_sample_with_replacement(
    neighbor_counts: np.ndarray,
    max_sample: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """With-replacement neighbor sampling (the cheaper variant some
    frameworks default to for very high fan-outs).

    Trivially parallel — every lane draws independently — at the cost of
    duplicate neighbors per target, which inflates downstream AppendUnique
    and gather work.  Provided for completeness and the sampler ablations;
    WholeGraph itself samples *without* replacement (paper §III-C1).
    """
    counts = np.asarray(neighbor_counts, dtype=np.int64)
    m = int(max_sample)
    b = counts.shape[0]
    if m == 0 or b == 0:
        return np.empty((b, m), dtype=np.int64)
    if np.any(counts < 1):
        raise ValueError("every row needs at least one neighbor")
    return (rng.random((b, m)) * counts[:, None]).astype(np.int64)


def reference_sample_without_replacement(
    neighbor_count: int, max_sample: int, rng: np.random.Generator
) -> np.ndarray:
    """Sequential reference sampler (Fisher–Yates partial shuffle).

    The oracle the parallel sampler is property-tested against, and the
    sampler the CPU baselines (DGL/PyG pipelines) use functionally.
    """
    n, m = int(neighbor_count), int(max_sample)
    if m >= n:
        return np.arange(n, dtype=np.int64)
    return rng.choice(n, size=m, replace=False).astype(np.int64)
