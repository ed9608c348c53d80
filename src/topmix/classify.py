"""k-nearest-neighbor prediction over a precomputed distance matrix.

``knn_grid`` is the only k-NN code. It votes a block of queries at every k
of a grid in one vectorised pass:

* Candidates. Each query's row of ``distances`` is gathered once, a copy
  the caller never sees, and every column that is not one of its
  candidates is set to +inf: the rows outside ``candidates`` and, with
  ``groups``, the rows that share the query's group id. So columns stay
  in row-index order, and a whole cross-validation protocol (queries =
  candidates = every row, one group per fold) is one call. Queries are
  ranked in blocks of at most ``BLOCK_ENTRIES`` entries, which bounds
  memory at large n; at n = 297 a call is one block.
* Ranking. ``np.partition`` finds each query's K-th smallest distance,
  K = max(k), and the entries at or below it are admitted. Only a query
  with a tie at that boundary admits more than K; it keeps the ties of
  the smaller row indices. Each query then holds exactly K entries in
  row-index order, and one stable argsort of the (queries, K) block ranks
  them by distance, ties to the smaller row index. Every entry that can
  rank among the K nearest is at or below the threshold, so this is the
  full ranking cut at K. The threshold needs finite distances.
* Vote. The vote at every k is read off running class counts.
* Tie-break. A tied vote goes to the smaller summed distance among the k
  neighbors, then to the smaller class label. A tie at k has exactly k/2
  neighbors of each class, so each distinct k gathers the tied queries'
  class distances, in rank order, into a (ties, k/2) matrix per class and
  sums its rows. Each row is contiguous, and numpy sums it as it sums the
  1-D array ``d[lab == c]`` (pairwise over the same elements in the same
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


def knn_grid(
    queries: np.ndarray, candidates: np.ndarray, distances: np.ndarray,
    labels: np.ndarray, k_grid: Sequence[int], groups: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest candidates of each query row and its predicted label at every k.

    ``candidates`` may come in any order. Without ``groups`` they must not
    include a query. With ``groups``, one id per row of ``distances``, a
    query's candidates are those with another id (so a query may appear in
    ``candidates``). Candidate labels must be 0/1, every k must satisfy
    1 <= k <= the fewest candidates of a query, and the query-to-candidate
    distances must be finite; integer distances are ranked and summed as
    float64. Returns the max(k_grid) nearest candidate
    rows of each query, nearest first, and the predictions, shaped
    (len(queries), max(k_grid)) and (len(queries), len(k_grid)).
    """
    queries = np.asarray(queries, dtype=np.intp)
    ks = np.asarray(k_grid)
    top = int(ks.max())
    if ks.min() < 1:
        raise ContractError(f"k must be >= 1, got {ks.min()}")
    outside = np.ones(distances.shape[1], dtype=bool)
    outside[candidates] = False  # every column that is not a candidate
    pool = np.flatnonzero(~outside)  # the distinct candidates, ascending
    if groups is None:
        clash = queries[~outside[queries]]
        if clash.size:
            raise ContractError(f"query row {clash[0]} may not be its own candidate")
        fewest = pool.size
    else:
        groups = np.asarray(groups)
        shared, own = np.sort(groups[pool]), groups[queries]
        same = np.searchsorted(shared, own, "right") - np.searchsorted(shared, own, "left")
        fewest = pool.size - int(same.max(initial=0))
    if fewest < top:
        raise ContractError(f"need at least k={top} candidates, got {fewest}")
    if not np.isin(labels[pool], (0, 1)).all():
        raise ContractError("candidate labels must be 0 or 1")
    rows = max(1, BLOCK_ENTRIES // outside.size)
    # One partition buffer serves every block: a fresh partitioned copy per
    # block made the allocator hand its pages back and fault them in again
    # (~33,000 minor faults per 10-fold call at n = 3000).
    work = np.empty((min(rows, queries.size), outside.size))
    blocks = [
        _rank(queries[i : i + rows], distances, outside, groups, top, work)
        for i in range(0, max(queries.size, 1), rows)
    ]
    nearest = np.concatenate([block[0] for block in blocks])
    near_dist = np.concatenate([block[1] for block in blocks])

    near_labels = labels[nearest]
    margin = 2 * np.cumsum(near_labels, axis=1)[:, ks - 1] - ks  # ones minus zeros
    predictions = (margin > 0).astype(np.int64)
    for k in np.unique(ks[(margin == 0).any(axis=0)]):
        columns = ks == k
        tied = np.flatnonzero(margin[:, columns.argmax()] == 0)
        by_class = np.argsort(near_labels[tied, :k], axis=1, kind="stable")  # keeps rank order
        class_dist = np.take_along_axis(near_dist[tied, :k], by_class, axis=1)
        sums = class_dist.reshape(-1, 2, k // 2).sum(axis=2)  # row c sums as d[lab == c].sum()
        predictions[np.ix_(tied, columns)] = (sums[:, 1] < sums[:, 0])[:, None]  # equal: label 0
    return nearest, predictions


def _rank(
    queries: np.ndarray, distances: np.ndarray, outside: np.ndarray, groups: np.ndarray | None,
    top: int, work: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The ``top`` nearest candidate rows of each query, nearest first, and their distances.

    ``work`` is a float64 buffer of at least len(queries) rows that the
    block is copied into and partitioned in.
    """
    excluded = outside if groups is None else outside | (groups[queries, None] == groups)
    dist = distances[queries]  # the one gather, a copy: the caller's matrix is never written
    if not np.isfinite(dist).all() and not (np.isfinite(dist) | excluded).all():
        raise ContractError("distances must be finite")
    if not np.issubdtype(dist.dtype, np.floating):
        dist = dist.astype(np.float64)  # an integer block cannot hold inf
    np.putmask(dist, np.broadcast_to(excluded, dist.shape), np.inf)

    work = work[: dist.shape[0]]
    np.copyto(work, dist)  # exact: float64 holds every value of the block's dtype
    work.partition(top - 1, axis=1)
    threshold = work[:, top - 1, None]
    admitted = dist <= threshold
    over = np.flatnonzero(admitted.sum(axis=1) > top)  # ties at the K-th distance
    if over.size:
        boundary = dist[over] == threshold[over]
        room = top - (dist[over] < threshold[over]).sum(axis=1, keepdims=True)
        admitted[over] &= ~boundary | (np.cumsum(boundary, axis=1) <= room)
    nearest = (np.flatnonzero(admitted) % dist.shape[1]).reshape(-1, top)  # rows ascending
    by_distance = np.argsort(np.take_along_axis(dist, nearest, axis=1), axis=1, kind="stable")
    nearest = np.take_along_axis(nearest, by_distance, axis=1)
    return nearest, np.take_along_axis(dist, nearest, axis=1)


def knn_predict(
    query: int, candidates: np.ndarray, distances: np.ndarray, labels: np.ndarray, k: int
) -> int:
    """Majority label among the k candidates nearest to the query row (see ``knn_grid``)."""
    return int(knn_grid([query], candidates, distances, labels, [k])[1][0, 0])
