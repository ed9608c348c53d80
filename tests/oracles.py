"""Independent reference implementations used only to check the library.

These deliberately avoid the algorithms used by the package: dimension-0
pairs come from recounting components by graph traversal at every
threshold of a generic distance matrix instead of the closed form, and
diagram distances enumerate every augmented bijection instead of solving
an assignment problem. The k-NN reference classifies one query at one k
with its own sort, where the package ranks a block of queries once for a
whole grid of k.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np


def euclidean_distances(points) -> np.ndarray:
    """Generic distance matrix of a point set, blind to any closed form."""
    points = np.asarray(points, dtype=np.float64)
    diff = points[:, None, :] - points[None, :, :]
    out = np.sqrt((diff**2).sum(-1))
    np.fill_diagonal(out, 0.0)
    return out


def sweep_dim0_pairs(dist: np.ndarray, maxscale: float) -> list[tuple[float, float]]:
    """Dimension-0 pairs by sweeping thresholds and recounting components."""
    n = dist.shape[0]

    def component_count(threshold: float) -> int:
        seen = [False] * n
        count = 0
        for start in range(n):
            if seen[start]:
                continue
            count += 1
            stack = [start]
            seen[start] = True
            while stack:
                u = stack.pop()
                for v in range(n):
                    if v != u and not seen[v] and dist[u, v] <= threshold:
                        seen[v] = True
                        stack.append(v)
        return count

    thresholds = sorted({float(dist[i, j]) for i in range(n) for j in range(i + 1, n)})
    deaths: list[float] = []
    previous = n
    for t in thresholds:
        current = component_count(t)
        deaths.extend([t] * (previous - current))
        previous = current
        if current == 1:
            break
    deaths.append(float(maxscale))
    return sorted((0.0, d) for d in deaths)


def _linf(a: np.ndarray, b: np.ndarray) -> float:
    return float(max(abs(a[0] - b[0]), abs(a[1] - b[1])))


def brute_wasserstein(p1: np.ndarray, p2: np.ndarray, p: float) -> float:
    """Minimum over all augmented bijections, enumerated exhaustively."""
    n1, n2 = len(p1), len(p2)
    halves1 = [(float(d) - float(b)) / 2 for b, d in p1]
    halves2 = [(float(d) - float(b)) / 2 for b, d in p2]
    best = None
    for r in range(min(n1, n2) + 1):
        for subset1 in combinations(range(n1), r):
            rest1 = [i for i in range(n1) if i not in subset1]
            for subset2 in combinations(range(n2), r):
                rest2 = [j for j in range(n2) if j not in subset2]
                for perm in permutations(subset2):
                    cost = sum(_linf(p1[i], p2[j]) ** p for i, j in zip(subset1, perm))
                    cost += sum(halves1[i] ** p for i in rest1)
                    cost += sum(halves2[j] ** p for j in rest2)
                    if best is None or cost < best:
                        best = cost
    assert best is not None
    return best ** (1.0 / p)


def brute_bottleneck(p1: np.ndarray, p2: np.ndarray) -> float:
    """Minimum over augmented bijections of the maximal per-pair cost."""
    n1, n2 = len(p1), len(p2)
    halves1 = [(float(d) - float(b)) / 2 for b, d in p1]
    halves2 = [(float(d) - float(b)) / 2 for b, d in p2]
    best = None
    for r in range(min(n1, n2) + 1):
        for subset1 in combinations(range(n1), r):
            rest1 = [i for i in range(n1) if i not in subset1]
            for subset2 in combinations(range(n2), r):
                rest2 = [j for j in range(n2) if j not in subset2]
                for perm in permutations(subset2):
                    costs = [_linf(p1[i], p2[j]) for i, j in zip(subset1, perm)]
                    costs += [halves1[i] for i in rest1]
                    costs += [halves2[j] for j in rest2]
                    cost = max(costs) if costs else 0.0
                    if best is None or cost < best:
                        best = cost
    assert best is not None
    return best


def closed_form_cloud_distances(x: np.ndarray) -> list[float]:
    """Pairwise distances of the projection cloud from coordinate magnitudes.

    d(x, p_i(x)) = |x_i| and d(p_i(x), p_j(x)) = sqrt(x_i^2 + x_j^2).
    """
    m = len(x)
    out = [abs(float(x[i])) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            out.append(float(np.sqrt(x[i] ** 2 + x[j] ** 2)))
    return sorted(out)


def two_pass_mean_std(column: np.ndarray) -> tuple[float, float]:
    """Plain two-pass population moments with Python accumulation."""
    n = len(column)
    mean = sum(float(v) for v in column) / n
    var = sum((float(v) - mean) ** 2 for v in column) / n
    return mean, var ** 0.5


def knn_predict(query: int, candidates, distances: np.ndarray, labels: np.ndarray, k: int) -> int:
    """Majority label of the k nearest candidates, one query at one k.

    Candidates tied at the rank-k boundary are admitted by smallest row
    index; a tied vote goes to the smaller summed distance, then to the
    smaller label.
    """
    candidates = np.asarray(candidates, dtype=np.intp)
    dist = distances[query, candidates]
    order = np.lexsort((candidates, dist))[:k]
    top_labels = labels[candidates[order]]
    top_dist = dist[order]
    votes = np.bincount(top_labels, minlength=2)
    tied = np.flatnonzero(votes == votes.max())
    if tied.size == 1:
        return int(tied[0])
    sums = [top_dist[top_labels == cls].sum() for cls in tied]
    return int(tied[int(np.lexsort((tied, sums))[0])])
