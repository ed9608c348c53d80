"""k-nearest-neighbor prediction over a precomputed distance matrix.

``knn_grid`` is the only k-NN code. It votes a block of queries at every k
of a grid in one vectorised pass:

* Ranking. ``np.partition`` finds each query's K-th smallest distance,
  K = max(k). Only the entries at or below it are lexsorted, by (query,
  distance, row index), and each query keeps the first K of its entries.
  Every entry that can rank among the K nearest is at or below that
  threshold, so this is the full ranking cut at K: ties at the boundary
  admit the smaller row index. The threshold needs finite distances.
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


def knn_grid(
    queries: np.ndarray, candidates: np.ndarray, distances: np.ndarray,
    labels: np.ndarray, k_grid: Sequence[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest candidates of each query row and its predicted label at every k.

    ``candidates`` (any order) must not include a query, their ``labels``
    must be 0/1, every k must satisfy 1 <= k <= len(candidates), and the
    query-to-candidate distances must be finite. Returns the max(k_grid)
    nearest candidate rows of each query, nearest first, and the
    predictions, shaped (len(queries), max(k_grid)) and
    (len(queries), len(k_grid)).
    """
    queries = np.asarray(queries, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    ks = np.asarray(k_grid)
    top = int(ks.max())
    if ks.min() < 1:
        raise ContractError(f"k must be >= 1, got {ks.min()}")
    if candidates.size < top:
        raise ContractError(f"need at least k={top} candidates, got {candidates.size}")
    clash = queries[np.isin(queries, candidates)]
    if clash.size:
        raise ContractError(f"query row {clash[0]} may not be its own candidate")
    if not np.isin(labels[candidates], (0, 1)).all():
        raise ContractError("candidate labels must be 0 or 1")
    dist = distances[queries].take(candidates, axis=1)  # C order, and faster than np.ix_
    if not np.isfinite(dist).all():
        raise ContractError("distances must be finite")

    threshold = np.partition(dist, top - 1, axis=1)[:, top - 1, None]
    admitted = dist <= threshold
    flat = np.flatnonzero(admitted)
    query_of, column = np.divmod(flat, candidates.size)
    admitted_dist = dist.ravel()[flat]
    order = np.lexsort((candidates[column], admitted_dist, query_of))
    first = np.searchsorted(query_of, np.arange(queries.size))  # query_of is ascending
    ranked = order[first[:, None] + np.arange(top)]
    nearest, near_dist = candidates[column[ranked]], admitted_dist[ranked]

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


def knn_predict(
    query: int, candidates: np.ndarray, distances: np.ndarray, labels: np.ndarray, k: int
) -> int:
    """Majority label among the k candidates nearest to the query row (see ``knn_grid``)."""
    return int(knn_grid([query], candidates, distances, labels, [k])[1][0, 0])
