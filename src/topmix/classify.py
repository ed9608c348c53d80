"""k-nearest-neighbor prediction over a precomputed distance matrix.

``knn_grid`` is the only k-NN code. It votes a block of queries at every k
of a grid in one vectorised pass:

* Candidates. Every row carries a group id, and a query's candidates are
  the rows whose id differs from its own; that is the one rule. Hold-out
  marks the training rows 1 and every other row 0; cross-validation gives
  each row its fold id, so a whole protocol is one call. A (groups, rows)
  boolean table marks each group's rows, and a block's exclusions are its
  rows gathered by the queries' groups. Each query's row of ``distances``
  is gathered once, a copy the caller never sees, and its excluded
  columns are set to +inf, so columns stay in row-index order. Queries
  are ranked in blocks of at most ``BLOCK_ENTRIES`` entries, which bounds
  memory at large n; at n = 297 a call is one block.
* Ranking. ``np.partition`` finds each query's K-th smallest distance,
  K = max(k), and the flat indices of the entries at or below it are
  admitted, each query's in row-index order. Only a query with a tie at
  that boundary admits more than K (so the count of indices shows any);
  it keeps the ties of the smaller row indices. One stable argsort of the
  (queries, K) admitted distances then ranks them, ties to the smaller
  row index. Every entry that can rank among the K nearest is at or below
  the threshold, so this is the full ranking cut at K. The threshold
  needs finite distances.
* Vote. The vote at every k is read off running class counts.
* Tie-break. A tied vote goes to the smaller summed distance among the k
  neighbors, then to the smaller label. A tie at k has exactly k/2
  neighbors of each class: the first k/2 of each class in rank order. One
  stable counting sort by class, its places read off the running class
  counts of the vote, lays each class's distances out first, in rank
  order, in a (2, queries, K) array; the sums at k are its first k/2
  columns summed along the contiguous last axis. Numpy sums each such row
  as it sums the 1-D array ``d[lab == c]`` (the same elements in the same
  order), so the sums are bit-identical to that per-query form; a running
  sum over ranks adds in another order and can move a tie by an ulp.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractError


# Entries (query, row) per ranking block: about 1 MB per float array of a
# block at any n; up to n = 362 every call is one block.
BLOCK_ENTRIES = 1 << 17


def check_k_grid(k_grid: Sequence[int]) -> np.ndarray:
    """``k_grid`` as an int64 array, in order; ContractError unless it is non-empty int64s >= 1 (no bool)."""
    bad = [k for k in k_grid if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 1 <= k < 2**63]
    if bad or not len(k_grid):
        raise ContractError(f"k grid must be non-empty positive int64s, got {repr(bad[0]) if bad else 'none'}")
    return np.asarray(k_grid, dtype=np.int64)


def knn_grid(
    queries: np.ndarray, distances: np.ndarray, labels: np.ndarray,
    k_grid: Sequence[int], groups: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest candidates of each query row and its predicted label at every k.

    ``groups`` holds one id per row of ``distances``, a bool mask or small
    non-negative integers (ContractError on a negative id); a query's
    candidates are the rows whose id differs from its own. Candidate labels
    must be 0/1, every k an integer (``check_k_grid``) with 1 <= k <= the
    fewest candidates of a query, and the query-to-candidate distances
    finite; integer distances are ranked and summed as float64. Returns the
    max(k_grid) nearest candidate rows of each query, nearest first, and
    the predictions, shaped (len(queries), max(k_grid)) and (len(queries), len(k_grid)).
    """
    queries = np.asarray(queries, dtype=np.intp)
    ks = check_k_grid(k_grid)
    top = int(ks.max())
    groups = np.asarray(groups).astype(np.intp, casting="safe")  # bool or integer ids
    if (groups < 0).any():
        raise ContractError("group ids must be non-negative")
    own = groups[queries]
    fewest = groups.size - int(np.bincount(groups)[own].max(initial=0))  # np.unique would import numpy.ma
    if fewest < top:
        raise ContractError(f"need at least k={top} candidates, got {fewest}")
    members = groups == np.arange(groups.max(initial=0) + 1)[:, None]  # row g: the rows of group id g
    one_group = own.size and (own == own[0]).all()
    candidates = labels[~members[own[0]]] if one_group else labels  # of any query
    if not ((candidates == 0) | (candidates == 1)).all():
        raise ContractError("candidate labels must be 0 or 1")
    rows = max(1, BLOCK_ENTRIES // groups.size)
    # One partition buffer serves every block: a fresh partitioned copy per
    # block made the allocator hand its pages back and fault them in again
    # (~33,000 minor faults per 10-fold call at n = 3000).
    work = np.empty((min(rows, queries.size), groups.size))
    blocks = [
        _rank(queries[i : i + rows], members[own[i : i + rows]], distances, top, work)
        for i in range(0, max(queries.size, 1), rows)
    ]
    nearest = np.concatenate([block[0] for block in blocks])
    near_dist = np.concatenate([block[1] for block in blocks])

    is_one = (labels[nearest] == 1).astype(np.intp)  # each neighbour's class
    ones = np.cumsum(is_one, axis=1)  # class-1 neighbours among the first 1, 2, ...
    margin = 2 * ones[:, ks - 1] - ks  # ones minus zeros
    predictions = (margin > 0).astype(np.int64)
    tied = margin == 0
    # a stable counting sort by class: each class's distances first, in rank order
    place = np.where(is_one, ones, np.arange(1, top + 1) - ones) - 1
    class_dist = np.zeros((2,) + nearest.shape)
    class_dist[is_one, np.arange(len(nearest))[:, None], place] = near_dist
    for j in np.flatnonzero(tied.any(axis=0)):
        sums = class_dist[:, :, : ks[j] // 2].sum(axis=2)  # row c sums as d[lab == c].sum()
        np.copyto(predictions[:, j], sums[1] < sums[0], where=tied[:, j])  # equal sums: label 0
    return nearest, predictions


def _rank(
    queries: np.ndarray, excluded: np.ndarray, distances: np.ndarray, top: int, work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` nearest candidate rows of each query, nearest first, and their distances.

    ``excluded`` marks the columns of each query's own group. ``work`` is
    a float64 buffer of at least len(queries) rows that the block is
    copied into and partitioned in.
    """
    dist = distances[queries]  # the one gather, a copy: the caller's matrix is never written
    if not np.isfinite(dist).all() and not (np.isfinite(dist) | excluded).all():
        raise ContractError("distances must be finite")
    if not np.issubdtype(dist.dtype, np.floating):
        dist = dist.astype(np.float64)  # an integer block cannot hold inf
    np.putmask(dist, excluded, np.inf)

    work = work[: dist.shape[0]]
    np.copyto(work, dist)  # exact: float64 holds every value of the block's dtype
    work.partition(top - 1, axis=1)
    threshold = work[:, top - 1, None]
    admitted = dist <= threshold
    flat = np.flatnonzero(admitted)  # row-major: each query's entries in row-index order
    if flat.size > top * len(dist):  # ties at the K-th distance
        over = np.flatnonzero(np.bincount(flat // dist.shape[1], minlength=dist.shape[0]) > top)
        boundary = dist[over] == threshold[over]
        room = top - (dist[over] < threshold[over]).sum(axis=1, keepdims=True)
        admitted[over] &= ~boundary | (np.cumsum(boundary, axis=1) <= room)  # those of the smaller rows
        flat = np.flatnonzero(admitted)
    near_dist = dist.take(flat).reshape(-1, top)
    by_distance = np.argsort(near_dist, axis=1, kind="stable")
    by_distance += np.arange(0, flat.size, top)[:, None]  # flat positions
    return flat.take(by_distance) % dist.shape[1], near_dist.take(by_distance)
