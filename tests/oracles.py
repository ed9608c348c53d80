"""Independent reference implementations used only to check the library.

These deliberately avoid the algorithms used by the package: dimension-0
pairs come from recounting components by graph traversal at every
threshold of a generic distance matrix of the explicit point cloud
(``build_point_cloud``) instead of the closed form.
Diagram distances come from two general-diagram references in place of
the package's DP over sorted deaths: ``wasserstein`` solves the augmented
assignment problem of any two ``PersistenceDiagram``s with scipy, and
``brute_wasserstein`` enumerates every augmented bijection of small ones.
``canonical_gap`` integrates the sorted certificate's potential exactly
over the merged deaths of a pair, where the package clamps one rank at a
time in floats.
The k-NN reference classifies one query at one k with its own sort, where
the package ranks a block of queries once for a whole grid of k, and the
cross-validation reference ranks one fold at a time against the rows of
the other folds, where the package ranks every row in one call that
excludes each row's own fold. The split references carve each class's
shuffle into index lists (hold-out) or deal it row by row into folds,
where the package scatters one group id per row. The
table references parse, validate, binarize and one-hot encode one row,
and within it one field, at a time, where the package works on whole
columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

from topmix.classify import knn_grid
from topmix.errors import ContractError, EvaluationError, ParseError, SchemaError
from topmix.evaluate import SplitSpec
from topmix.ingest import ParseReport, RawDataset
from topmix.persistence import PersistenceDiagram
from topmix.preprocess import FeatureMatrix
from topmix.schema import PositiveRule, SchemaSpec


def build_point_cloud(x) -> np.ndarray:
    """The (m+1, m) points [x, p_1(x), ..., p_m(x)], p_i(x) being x with coordinate i zeroed."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ContractError("point cloud input must be a non-empty 1-d vector")
    if not np.isfinite(x).all():
        raise ContractError("point cloud input must be finite")
    points = [x.copy()]
    for i in range(x.shape[0]):
        projected = x.copy()
        projected[i] = 0.0
        points.append(projected)
    return np.array(points)


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


def _check_comparable(d1: PersistenceDiagram, d2: PersistenceDiagram) -> None:
    if d1.dimension != d2.dimension:
        raise ContractError(
            f"diagram dimensions differ: {d1.dimension} vs {d2.dimension}"
        )
    if d1.maxscale != d2.maxscale:
        raise ContractError(
            f"diagram caps differ: {d1.maxscale!r} vs {d2.maxscale!r}; "
            "diagrams are only comparable under a shared cap"
        )


def _canonical_order(
    d1: PersistenceDiagram, d2: PersistenceDiagram
) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    # Fixed argument order makes the whole computation, and hence the
    # floating-point result, symmetric in the inputs.
    k1 = (len(d1), d1.pairs.tobytes())
    k2 = (len(d2), d2.pairs.tobytes())
    return (d1, d2) if k1 <= k2 else (d2, d1)


def _augmented_costs(d1: PersistenceDiagram, d2: PersistenceDiagram) -> np.ndarray:
    """(n1+n2) x (n1+n2) matrix of L-infinity ground costs (no exponent).

    Layout: rows = d1 points then d2-sized diagonal slots; columns = d2
    points then d1-sized diagonal slots. Diagonal-to-diagonal entries are 0.
    """
    p1, p2 = d1.pairs, d2.pairs
    n1, n2 = len(d1), len(d2)
    cost = np.zeros((n1 + n2, n1 + n2), dtype=np.float64)
    if n1 and n2:
        db = np.abs(p1[:, 0, None] - p2[None, :, 0])
        dd = np.abs(p1[:, 1, None] - p2[None, :, 1])
        cost[:n1, :n2] = np.maximum(db, dd)
    if n1:
        cost[:n1, n2:] = ((p1[:, 1] - p1[:, 0]) / 2.0)[:, None]
    if n2:
        cost[n1:, :n2] = ((p2[:, 1] - p2[:, 0]) / 2.0)[None, :]
    return cost


def wasserstein(d1: PersistenceDiagram, d2: PersistenceDiagram, p: float = 1.0) -> float:
    """Exact p-Wasserstein distance between two general diagrams under a shared cap.

    Solves the (n1 + n2)-square augmented assignment problem, one diagonal
    slot per point of the other diagram, and sums the matched costs exactly
    (math.fsum). The arguments are put in a canonical order first, so that
    w(a, b) == w(b, a) bit for bit. Appending the same capped essential pair
    to both diagrams leaves the distance unchanged (the new points match at
    zero cost).
    """
    _check_comparable(d1, d2)
    if not (math.isfinite(p) and p >= 1):
        raise ContractError(f"wasserstein order p must be finite and >= 1, got {p!r}")
    a, b = _canonical_order(d1, d2)
    if len(a) + len(b) == 0:
        return 0.0
    cost = _augmented_costs(a, b) ** p
    rows, cols = linear_sum_assignment(cost)
    total = math.fsum(cost[rows, cols].tolist())
    return total ** (1.0 / p)


def canonical_gap(a, b) -> Fraction:
    """The gap G of the sorted certificate for two ascending death lists of one length, exactly.

    f(x) is the integral over [0, x] of sign(F_B - F_A), where F_A and F_B
    count the deaths <= t; it is integrated piece by piece between the
    merged deaths, in ``Fraction``s. Returns
    min_k (f(b_k) + b_k/2) - max_k (f(a_k) - a_k/2).
    """
    a, b = [Fraction(float(x)) for x in a], [Fraction(float(x)) for x in b]
    points = sorted({Fraction(0), *a, *b})
    f = {points[0]: Fraction(0)}
    for lo, hi in zip(points, points[1:]):
        below_a, below_b = sum(x <= lo for x in a), sum(x <= lo for x in b)
        f[hi] = f[lo] + ((below_b > below_a) - (below_b < below_a)) * (hi - lo)
    return min(f[x] + x / 2 for x in b) - max(f[x] - x / 2 for x in a)


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


def kfold_predictions_per_fold(
    distances: np.ndarray, labels: np.ndarray, fold_of: np.ndarray, k_grid
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest rows and predictions of every row, one ``knn_grid`` call per fold.

    Fold f's rows are ranked against the rows of every other fold, in fold
    order; the first fold that leaves fewer than max(k_grid) candidates
    raises. Returns arrays shaped like ``knn_grid``'s, one line per row.
    """
    n = labels.size
    nearest = np.empty((n, max(k_grid)), dtype=np.intp)
    preds = np.empty((n, len(k_grid)), dtype=np.int64)
    for f in range(int(fold_of.max()) + 1):
        fold = np.flatnonzero(fold_of == f)
        candidates = np.flatnonzero(fold_of != f)
        if candidates.size < max(k_grid):
            raise EvaluationError(f"fold leaves only {candidates.size} candidates for k={max(k_grid)}")
        nearest[fold], preds[fold] = knn_grid(fold, distances, labels, k_grid, fold_of == f)
    return nearest, preds


def _per_class_indices(labels: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(labels == cls) for cls in sorted(set(labels.tolist()))]


def holdout_indices(
    labels: np.ndarray, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, val, test) row-index arrays covering all rows."""
    if spec.mode != "holdout":
        raise ContractError("holdout_indices needs a holdout SplitSpec")
    labels = np.asarray(labels)
    rng = np.random.default_rng(spec.seed)

    def carve(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        perm = rng.permutation(indices)
        n = perm.size
        n_val = int(np.floor(spec.val_frac * n))
        n_test = int(np.floor(spec.test_frac * n))
        n_train = n - n_val - n_test
        return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]

    if spec.stratified:
        parts = [carve(idx) for idx in _per_class_indices(labels)]
        train = np.concatenate([p[0] for p in parts])
        val = np.concatenate([p[1] for p in parts])
        test = np.concatenate([p[2] for p in parts])
    else:
        train, val, test = carve(np.arange(labels.size))
    return np.sort(train), np.sort(val), np.sort(test)


def kfold_indices(labels: np.ndarray, spec: SplitSpec) -> list[np.ndarray]:
    """Seeded fold assignment; every row lands in exactly one fold."""
    if spec.mode != "kfold":
        raise ContractError("kfold_indices needs a kfold SplitSpec")
    labels = np.asarray(labels)
    if spec.folds > labels.size:
        raise EvaluationError(f"cannot split {labels.size} rows into {spec.folds} folds")
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        buckets: list[list[int]] = [[] for _ in range(spec.folds)]
        offset = 0
        for idx in _per_class_indices(labels):
            for j, row in enumerate(rng.permutation(idx)):
                buckets[(offset + j) % spec.folds].append(int(row))
            offset += idx.size
        folds = [np.asarray(b, dtype=np.intp) for b in buckets]
    else:
        folds = np.array_split(rng.permutation(labels.size), spec.folds)
    return [np.sort(f) for f in folds]


def binarize_target(token: str, rule: PositiveRule) -> int:
    """One raw target token as 0 or 1 under the schema's positive rule."""
    if rule.kind == "one-of":
        return int(token in rule.tokens)
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"target token {token!r} is not numeric") from None
    if not math.isfinite(value):
        raise ParseError(f"target token {token!r} is not finite")
    return int(value > rule.threshold)


def parse_dataset_rowwise(
    source: str | Path,
    schema: SchemaSpec,
    delimiter: str = ",",
    has_header: bool = False,
) -> tuple[RawDataset, ParseReport]:
    """``ingest.parse_dataset`` one row, and within it one field, at a time.

    The first fault met in reading order is raised: a wrong field count,
    then each attribute left to right, the target last. A categorical
    field's code is the ``attr.domain.index`` of its stripped token.
    """
    with open(source, "r", encoding="utf-8-sig") as fh:
        lines = [ln.rstrip("\n").rstrip("\r") for ln in fh]
    data_lines = [ln for ln in lines if ln.strip() != ""]
    if has_header and data_lines:
        data_lines = data_lines[1:]

    n_fields = schema.n_fields
    rows: list[tuple[float | int, ...]] = []
    labels: list[int] = []
    dropped: list[int] = []

    for idx, line in enumerate(data_lines):
        fields = [f.strip() for f in line.split(delimiter)]
        if len(fields) != n_fields:
            raise ParseError(
                f"row {idx}: expected {n_fields} fields, got {len(fields)}"
            )
        if schema.missing_token in fields:
            dropped.append(idx)
            continue
        parsed: list[float | int] = []
        for attr, token in zip(schema.attributes, fields[:-1]):
            if attr.kind == "numeric":
                try:
                    value = float(token)
                except ValueError:
                    raise ParseError(
                        f"row {idx}: attribute {attr.name!r}: {token!r} is not numeric"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"row {idx}: attribute {attr.name!r}: non-finite value {token!r}"
                    )
                parsed.append(value)
            else:
                if token not in attr.domain:
                    raise SchemaError(
                        f"row {idx}: attribute {attr.name!r}: token {token!r} "
                        f"outside declared domain {list(attr.domain)}"
                    )
                parsed.append(attr.domain.index(token))
        try:
            labels.append(binarize_target(fields[-1], schema.positive_rule))
        except ParseError as exc:
            raise ParseError(f"row {idx}: {exc}") from None
        rows.append(tuple(parsed))

    columns = tuple(
        np.array([row[c] for row in rows], dtype=np.float64 if attr.kind == "numeric" else np.intp)
        for c, attr in enumerate(schema.attributes)
    )
    dataset = RawDataset(schema=schema, columns=columns, labels=np.asarray(labels, dtype=np.int64))
    report = ParseReport(
        total_rows=len(data_lines),
        kept_rows=len(rows),
        dropped_rows=len(dropped),
        dropped_indices=tuple(dropped),
    )
    return dataset, report


def one_hot_encode_rowwise(raw: RawDataset) -> FeatureMatrix:
    """``preprocess.one_hot_encode`` one cell at a time."""
    schema = raw.schema
    n, width = raw.n, schema.encoded_width
    values = np.zeros((n, width), dtype=np.float64)
    for i, row in enumerate(zip(*raw.columns)):
        col = 0
        for attr, value in zip(schema.attributes, row):
            if attr.kind == "numeric":
                values[i, col] = value
                col += 1
            else:
                values[i, col + int(value)] = 1.0  # a domain code
                col += len(attr.domain)
    return FeatureMatrix(
        values=values,
        column_names=schema.encoded_column_names(),
        labels=raw.labels.copy(),
        stage="encoded",
    )
