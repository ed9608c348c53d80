import numpy as np
import pytest

from topmix.classify import knn_grid, knn_predict
from topmix.errors import ContractError

import oracles


def _matrix(rows):
    out = np.asarray(rows, dtype=np.float64)
    assert np.array_equal(out, out.T)
    return out


def test_k1_returns_nearest_label():
    dist = _matrix([[0, 1, 9], [1, 0, 9], [9, 9, 0]])
    labels = np.array([0, 1, 0])
    assert knn_predict(0, np.array([1, 2]), dist, labels, k=1) == 1


def test_k3_strict_majority():
    dist = _matrix(
        [
            [0, 1, 2, 3],
            [1, 0, 9, 9],
            [2, 9, 0, 9],
            [3, 9, 9, 0],
        ]
    )
    labels = np.array([1, 0, 0, 1])
    assert knn_predict(0, np.array([1, 2, 3]), dist, labels, k=3) == 0


def test_even_k_tie_broken_by_summed_distance():
    # neighbors: label 0 at 0.5, label 1 at 0.9 -> 1:1 vote, class 0 is closer
    dist = _matrix([[0, 0.5, 0.9], [0.5, 0, 9], [0.9, 9, 0]])
    labels = np.array([9, 0, 1])  # query label irrelevant
    assert knn_predict(0, np.array([1, 2]), dist, labels, k=2) == 0


def test_tied_vote_and_tied_sum_goes_to_smaller_label():
    dist = _matrix([[0, 0.7, 0.7], [0.7, 0, 9], [0.7, 9, 0]])
    labels = np.array([9, 1, 0])
    assert knn_predict(0, np.array([1, 2]), dist, labels, k=2) == 0


def test_rank_boundary_tie_broken_by_smaller_row_index():
    # rows 2 and 3 tie at distance 1.0 for the single neighbor slot
    dist = _matrix(
        [
            [0, 9, 1.0, 1.0],
            [9, 0, 9, 9],
            [1.0, 9, 0, 9],
            [1.0, 9, 9, 0],
        ]
    )
    labels = np.array([9, 9, 1, 0])
    assert knn_predict(0, np.array([2, 3]), dist, labels, k=1) == 1


def test_contract_errors():
    dist = _matrix([[0, 1], [1, 0]])
    labels = np.array([0, 1])
    with pytest.raises(ContractError):
        knn_predict(0, np.array([0, 1]), dist, labels, k=1)  # self as candidate
    with pytest.raises(ContractError):
        knn_predict(0, np.array([1]), dist, labels, k=2)  # too few candidates
    with pytest.raises(ContractError):
        knn_predict(0, np.array([1]), dist, labels, k=0)


def test_monotone_transform_invariance_odd_k():
    rng = np.random.default_rng(21)
    for _ in range(50):
        n = 12
        raw = rng.uniform(0.1, 5.0, size=(n, n))
        dist = (raw + raw.T) / 2
        np.fill_diagonal(dist, 0.0)
        labels = rng.integers(0, 2, size=n)
        candidates = np.arange(1, n)
        for transform in (np.sqrt, np.cbrt, lambda d: d**3, lambda d: 2.5 * d + 1.0 * (d > 0)):
            warped = transform(dist)
            for k in (1, 3, 5):
                assert knn_predict(0, candidates, dist, labels, k) == knn_predict(
                    0, candidates, warped, labels, k
                )


def test_affine_transform_invariance_any_k():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = 10
        raw = rng.uniform(0.1, 5.0, size=(n, n))
        dist = (raw + raw.T) / 2
        np.fill_diagonal(dist, 0.0)
        labels = rng.integers(0, 2, size=n)
        candidates = np.arange(1, n)
        warped = 3.0 * dist + 0.25 * (dist > 0)
        for k in range(1, 7):
            assert knn_predict(0, candidates, dist, labels, k) == knn_predict(
                0, candidates, warped, labels, k
            )


def _random_table(rng, integer_valued):
    n = int(rng.integers(3, 25))
    if integer_valued:  # ties at the rank boundary, in the vote and in the sums
        raw = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    else:  # few distinct non-dyadic values: float sums depend on their order
        raw = rng.choice([0.1, 0.2, 0.3, 0.7], size=(n, n)) * rng.uniform(0.5, 2.0)
    dist = np.triu(raw, 1) + np.triu(raw, 1).T
    labels = rng.integers(0, 2, size=n)
    rows = rng.permutation(n)
    n_queries = int(rng.integers(1, min(5, n)))
    return dist, labels, rows[:n_queries], rows[n_queries:]  # candidates unsorted


def test_grid_matches_per_query_oracle_3000_tables():
    rng = np.random.default_rng(23)
    cases = 0
    for table in range(3000):
        dist, labels, queries, candidates = _random_table(rng, integer_valued=table % 2 == 0)
        k_grid = list(range(1, candidates.size + 1))
        nearest, predictions = knn_grid(queries, candidates, dist, labels, k_grid)
        for i, q in enumerate(queries):
            ranked = candidates[np.lexsort((candidates, dist[q, candidates]))]
            assert nearest[i].tolist() == ranked.tolist()
            for j, k in enumerate(k_grid):
                expected = oracles.knn_predict(int(q), candidates, dist, labels, k)
                assert predictions[i, j] == expected, (table, int(q), k)
                cases += 1
            k = int(rng.integers(1, candidates.size + 1))
            assert knn_predict(int(q), candidates, dist, labels, k) == predictions[i, k - 1]
    assert cases >= 30_000


def test_grid_contract_errors():
    dist = _matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    with pytest.raises(ContractError, match="0 or 1"):
        knn_grid([0], np.array([1, 2]), dist, np.array([0, 1, 2]), [1])
    with pytest.raises(ContractError, match="own candidate"):
        knn_grid([0, 2], np.array([1, 2]), dist, np.array([0, 1, 0]), [1])
    with pytest.raises(ContractError, match="k=3"):
        knn_grid([0], np.array([1, 2]), dist, np.array([0, 1, 0]), [1, 3])
