"""k-nearest-neighbor prediction over a precomputed distance matrix.

``knn_grid`` is the only k-NN code. It ranks each query's candidates once,
by distance and then by row index, so ties at the rank-k boundary admit the
smaller row index, and reads the vote at every k of a grid off running
class counts. A tied vote goes to the smaller summed distance among the k
neighbors, then to the smaller class label. Those sums are
``d[lab == c].sum()`` over the k nearest: a running sum adds in another
order and can move a tie by an ulp.
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
    must be 0/1, and every k must satisfy 1 <= k <= len(candidates). Returns
    the max(k_grid) nearest candidate rows of each query, nearest first, and
    the predictions, shaped (len(queries), max(k_grid)) and
    (len(queries), len(k_grid)).
    """
    queries = np.asarray(queries, dtype=np.intp)
    candidates = np.asarray(candidates, dtype=np.intp)
    ks = np.asarray(k_grid)
    if ks.min() < 1:
        raise ContractError(f"k must be >= 1, got {ks.min()}")
    if candidates.size < ks.max():
        raise ContractError(f"need at least k={ks.max()} candidates, got {candidates.size}")
    clash = queries[np.isin(queries, candidates)]
    if clash.size:
        raise ContractError(f"query row {clash[0]} may not be its own candidate")
    if not np.isin(labels[candidates], (0, 1)).all():
        raise ContractError("candidate labels must be 0 or 1")

    dist = distances[np.ix_(queries, candidates)]
    order = np.lexsort((np.broadcast_to(candidates, dist.shape), dist))[:, : ks.max()]
    nearest, near_dist = candidates[order], np.take_along_axis(dist, order, axis=1)
    near_labels = labels[nearest]
    margin = 2 * np.cumsum(near_labels, axis=1)[:, ks - 1] - ks  # ones minus zeros
    predictions = (margin > 0).astype(np.int64)
    for i, j in np.argwhere(margin == 0):
        top_dist, top_labels = near_dist[i, : ks[j]], near_labels[i, : ks[j]]
        sums = [top_dist[top_labels == cls].sum() for cls in (0, 1)]
        predictions[i, j] = np.lexsort(((0, 1), sums))[0]  # smaller sum, then label
    return nearest, predictions


def knn_predict(
    query: int, candidates: np.ndarray, distances: np.ndarray, labels: np.ndarray, k: int
) -> int:
    """Majority label among the k candidates nearest to the query row (see ``knn_grid``)."""
    return int(knn_grid([query], candidates, distances, labels, [k])[1][0, 0])
