import functools
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import topmix.classify
from topmix.classify import knn_grid
from topmix.errors import ContractError

import oracles


def _groups(dist, candidates):
    """Group ids under which ``candidates`` are the candidates of every other row."""
    return np.isin(np.arange(len(dist)), candidates)


def _predict(query, candidates, dist, labels, k):
    """``knn_grid``'s prediction for one query at one k."""
    return int(knn_grid([query], dist, labels, [k], _groups(dist, candidates))[1][0, 0])


def _matrix(rows):
    out = np.asarray(rows, dtype=np.float64)
    assert np.array_equal(out, out.T)
    return out


def test_k1_returns_nearest_label():
    dist = _matrix([[0, 1, 9], [1, 0, 9], [9, 9, 0]])
    labels = np.array([0, 1, 0])
    assert _predict(0, np.array([1, 2]), dist, labels, k=1) == 1


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
    assert _predict(0, np.array([1, 2, 3]), dist, labels, k=3) == 0


def test_even_k_tie_broken_by_summed_distance():
    # neighbors: label 0 at 0.5, label 1 at 0.9 -> 1:1 vote, class 0 is closer
    dist = _matrix([[0, 0.5, 0.9], [0.5, 0, 9], [0.9, 9, 0]])
    labels = np.array([9, 0, 1])  # query label irrelevant
    assert _predict(0, np.array([1, 2]), dist, labels, k=2) == 0


def test_tied_vote_and_tied_sum_goes_to_smaller_label():
    dist = _matrix([[0, 0.7, 0.7], [0.7, 0, 9], [0.7, 9, 0]])
    labels = np.array([9, 1, 0])
    assert _predict(0, np.array([1, 2]), dist, labels, k=2) == 0


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
    assert _predict(0, np.array([2, 3]), dist, labels, k=1) == 1


def test_contract_errors():
    dist = _matrix([[0, 1], [1, 0]])
    labels = np.array([0, 1])
    with pytest.raises(ContractError):
        _predict(0, np.array([1]), dist, labels, k=2)  # too few candidates
    with pytest.raises(ContractError):
        _predict(0, np.array([1]), dist, labels, k=0)


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
                assert _predict(0, candidates, dist, labels, k) == _predict(
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
            assert _predict(0, candidates, dist, labels, k) == _predict(
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


def _assert_grid_matches_oracle(dist, labels, queries, candidates, k_grid, where):
    """knn_grid against the full lexsort ranking and the per-query oracle; returns the predictions."""
    nearest, predictions = knn_grid(queries, dist, labels, k_grid, _groups(dist, candidates))
    for i, q in enumerate(queries):
        ranked = candidates[np.lexsort((candidates, dist[q, candidates]))]
        assert nearest[i].tolist() == ranked[: max(k_grid)].tolist(), (where, int(q))
        for j, k in enumerate(k_grid):
            expected = oracles.knn_predict(int(q), candidates, dist, labels, k)
            assert predictions[i, j] == expected, (where, int(q), k)
    return predictions


def test_grid_matches_per_query_oracle_3000_tables():
    rng = np.random.default_rng(23)
    cases = 0
    for table in range(3000):
        dist, labels, queries, candidates = _random_table(rng, integer_valued=table % 2 == 0)
        k_grid = list(range(1, candidates.size + 1))
        predictions = _assert_grid_matches_oracle(dist, labels, queries, candidates, k_grid, table)
        cases += predictions.size
        for i, q in enumerate(queries):
            k = int(rng.integers(1, candidates.size + 1))
            assert _predict(int(q), candidates, dist, labels, k) == predictions[i, k - 1]
    assert cases >= 30_000


def test_partition_cut_below_candidate_count_matches_oracle():
    # max(k) < len(candidates) with integer distances: the partition cuts each
    # row, and the cut often falls inside a run of equal distances
    rng = np.random.default_rng(24)
    boundary_ties = 0
    for table in range(1500):
        dist, labels, queries, candidates = _random_table(rng, integer_valued=True)
        if candidates.size < 2:
            continue
        top = int(rng.integers(1, candidates.size))
        k_grid = sorted(set(rng.integers(1, top + 1, size=3).tolist()) | {top})
        _assert_grid_matches_oracle(dist, labels, queries, candidates, k_grid, table)
        for q in queries:
            row = np.sort(dist[q, candidates])
            boundary_ties += row[top - 1] == row[top]
    assert boundary_ties >= 1000


def _running_sum(values):
    return functools.reduce(operator.add, values)


def _plant_ulp_tie(rng, dist, labels, query, candidates, k):
    """Give ``query`` a tie at ``k`` that numpy's class sums and running sums decide differently.

    Its k nearest candidates get k/2 distances of each class and every
    other candidate lies farther. Class 1's distances are few non-dyadic
    values whose pairwise sum (numpy's order) and running sum differ; class
    0's are dyadic but the largest, and sum to one of those two exactly in
    either order, so the vote goes one way under numpy's sums and the other
    under running sums. Returns numpy's vote, or None when the draw fails.
    """
    half = k // 2
    ones, zeros = (rng.permutation(candidates[labels[candidates] == c]) for c in (1, 0))
    if min(ones.size, zeros.size) < half:
        return None
    one_dist = np.sort(rng.choice([0.1, 0.2, 0.3, 0.7, 1.1], size=half) * rng.uniform(0.5, 2.0))
    pairwise, running = float(np.sum(one_dist)), _running_sum(one_dist)
    if pairwise == running:
        return None
    target = max(pairwise, running)  # the smaller class-1 sum ties with class 0 in one order only
    dyadic = np.sort(rng.integers(1, 64, size=half - 1)) / 1024
    zero_dist = np.append(dyadic, target - dyadic.sum())
    if not (zero_dist[-1] >= dyadic[-1] and np.sum(zero_dist) == _running_sum(zero_dist) == target):
        return None
    far = max(one_dist[-1], zero_dist[-1]) + rng.uniform(0.1, 1.0, size=candidates.size)
    dist[query, candidates] = far
    dist[query, ones[:half]], dist[query, zeros[:half]] = one_dist, zero_dist
    dist[candidates, query] = dist[query, candidates]
    vote = int(pairwise < target)
    assert vote != int(running < target)  # a running sum would decide the tie the other way
    return vote


def test_tied_votes_at_large_k_match_oracle():
    # k up to 38 with 8 or more neighbours of each class in a tie; few
    # non-dyadic values, so the class sums depend on their summation order.
    # Two queries of each table get a tie planted that an ulp decides:
    # summing a class in another order than numpy's moves its vote.
    rng = np.random.default_rng(25)
    ties_at_16_or_more = planted = 0
    for table in range(60):
        n = int(rng.integers(45, 70))
        raw = rng.choice([0.1, 0.2, 0.3, 0.7, 1.1], size=(n, n)) * rng.uniform(0.5, 2.0)
        dist = np.triu(raw, 1) + np.triu(raw, 1).T
        labels = rng.integers(0, 2, size=n)
        rows = rng.permutation(n)
        queries, candidates = rows[:5], rows[5:]
        k_grid = list(range(16, 39, 2))
        votes = {}
        for q in queries[:2]:
            vote = None
            while vote is None:
                k = int(rng.choice(k_grid))
                vote = _plant_ulp_tie(rng, dist, labels, q, candidates, k)
            votes[int(q), k] = vote
        predictions = _assert_grid_matches_oracle(dist, labels, queries, candidates, k_grid, table)
        for (q, k), vote in votes.items():
            assert predictions[list(queries).index(q), k_grid.index(k)] == vote, (table, q, k)
            planted += 1
        nearest, _ = knn_grid(queries, dist, labels, k_grid, _groups(dist, candidates))
        ones = np.cumsum(labels[nearest], axis=1)[:, np.asarray(k_grid) - 1]
        ties_at_16_or_more += int((2 * ones == np.asarray(k_grid)).sum())
    assert planted == 120 and ties_at_16_or_more >= 50 + planted


def test_tie_break_sums_each_class_as_numpy_sums_it():
    # a tie at k = 18, nine neighbours of each class: numpy's pairwise sum of
    # class 1 is an ulp below class 0's, a running sum over ranks makes them
    # equal, and the two sums give different votes
    ones = [0.1] * 4 + [0.2] * 2 + [0.3] * 2 + [0.7]
    zeros = [j / 1024 for j in range(1, 9)] + [2.1 - 36 / 1024]
    running = lambda d: functools.reduce(operator.add, d)
    assert np.sum(zeros) == running(zeros) == 2.1
    assert np.sum(ones) < running(ones) == 2.1
    row = np.array(zeros[:8] + ones + zeros[8:])  # ascending: rank order is row order
    dist = np.zeros((19, 19))
    dist[0, 1:] = dist[1:, 0] = row
    labels = np.array([0] * 9 + [1] * 9 + [0])
    groups = np.arange(19) == 0
    assert knn_grid([0], dist, labels, [18], groups)[1].tolist() == [[1]]
    assert knn_grid([0], dist, labels, range(1, 19), groups)[1][0, -1] == 1  # beside a tie at k = 16
    assert oracles.knn_predict(0, np.arange(1, 19), dist, labels, 18) == 1


def test_grid_contract_errors():
    dist = _matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    with pytest.raises(ContractError, match="0 or 1"):
        knn_grid([0], dist, np.array([0, 1, 2]), [1], np.array([0, 1, 1]))
    with pytest.raises(ContractError, match="0 or 1"):  # queries of two groups see every row
        knn_grid([0, 1], dist, np.array([2, 1, 0]), [1], np.array([0, 1, 1]))
    with pytest.raises(ContractError, match="k=3"):
        knn_grid([0], dist, np.array([0, 1, 0]), [1, 3], np.array([0, 1, 1]))
    for bad in (np.nan, np.inf, -np.inf):
        broken = dist.copy()
        broken[0, 2] = bad  # beyond the single neighbour k = 1 keeps
        with pytest.raises(ContractError, match="finite"):
            knn_grid([0], broken, np.array([0, 1, 0]), [1], np.array([0, 1, 2]))
    with pytest.raises(ContractError, match="k=2 candidates, got 1"):  # row 0 sees row 2 only
        knn_grid([0, 1], dist, np.array([0, 1, 0]), [2], np.array([0, 0, 1]))
    with pytest.raises(ContractError, match="group ids must be non-negative"):
        knn_grid([0], dist, np.array([0, 1, 0]), [1], np.array([0, -1, 1]))


@pytest.mark.parametrize(
    "k_grid", [[], [1.5], [1, 2.0], [True], np.array([True]), [0], ["1"], [2**63], [1, 10**30], [np.uint64(2**63)]]
)
def test_grid_of_no_positive_integer_k_rejected(k_grid):
    dist = _matrix([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    with pytest.raises(ContractError, match="k grid"):
        knn_grid([0], dist, np.array([0, 1, 0]), k_grid, np.array([0, 1, 2]))


@st.composite
def _knn_tables(draw):
    """(distances, labels, queries, candidates, k_grid) with ties in ranks, votes and sums."""
    n = draw(st.integers(3, 14))
    pool = draw(st.sampled_from([[0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.7], None]))
    cell = st.floats(0.0, 10.0) if pool is None else st.sampled_from(pool)
    dist = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    rows = np.array(draw(st.permutations(range(n))))
    n_queries = draw(st.integers(1, n - 1))
    candidates = rows[n_queries:]
    k_grid = draw(st.lists(st.integers(1, candidates.size), min_size=1, max_size=5))
    return dist, labels, rows[:n_queries], candidates, k_grid


@settings(max_examples=300, deadline=None)
@given(_knn_tables(), st.floats(0.0, 5.0), st.integers(0, 1))
def test_far_candidate_changes_nothing(table, extra, far_label):
    dist, labels, queries, candidates, k_grid = table
    n = labels.size
    grown = np.zeros((n + 1, n + 1))
    grown[:n, :n] = dist
    grown[queries, n] = dist[queries].max(axis=1) + 1.0 + extra  # farther than every candidate
    grown_labels = np.append(labels, far_label)
    before = knn_grid(queries, dist, labels, k_grid, _groups(dist, candidates))
    after = knn_grid(queries, grown, grown_labels, k_grid, _groups(grown, np.append(candidates, n)))
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])


@settings(max_examples=300, deadline=None)
@given(_knn_tables())
def test_swapped_labels_mirror_every_untied_vote(table):
    dist, labels, queries, candidates, k_grid = table
    groups = _groups(dist, candidates)
    nearest, predictions = knn_grid(queries, dist, labels, k_grid, groups)
    swapped_nearest, swapped = knn_grid(queries, dist, 1 - labels, k_grid, groups)
    assert np.array_equal(nearest, swapped_nearest)
    ks = np.asarray(k_grid)
    untied = 2 * np.cumsum(labels[nearest], axis=1)[:, ks - 1] != ks
    assert np.array_equal(swapped[untied], 1 - predictions[untied])


@st.composite
def _grouped_tables(draw):
    """(distances, labels, groups, queries, k_grid) with up to four groups."""
    n = draw(st.integers(3, 14))
    pool = draw(st.sampled_from([[0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.7], None]))
    cell = st.floats(0.0, 10.0) if pool is None else st.sampled_from(pool)
    dist = np.array(draw(st.lists(cell, min_size=n * n, max_size=n * n))).reshape(n, n)
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    groups = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):  # entries within a group are never read
        dist[groups[:, None] == groups] = draw(st.sampled_from([np.nan, np.inf]))
    queries = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)))
    eligible = (groups[queries, None] != groups).sum(axis=1)
    queries = queries[eligible > 0]
    assume(queries.size)
    fewest = int(eligible[eligible > 0].min())
    k_grid = draw(st.lists(st.integers(1, fewest), min_size=1, max_size=5))
    return dist, labels, groups, queries, k_grid


@settings(max_examples=300, deadline=None)
@given(_grouped_tables())
def test_groups_exclude_own_group_and_equal_per_group_calls(table):
    dist, labels, groups, queries, k_grid = table
    nearest, predictions = knn_grid(queries, dist, labels, k_grid, groups)
    assert (groups[nearest] != groups[queries, None]).all()
    for g in np.unique(groups[queries]):
        mine = groups[queries] == g
        expected = knn_grid(queries[mine], dist, labels, k_grid, groups != g)
        assert np.array_equal(nearest[mine], expected[0])
        assert np.array_equal(predictions[mine], expected[1])


def test_query_blocks_rank_as_one_block(monkeypatch):
    # every table above is one block; here each block holds 1 to 5 queries
    rng = np.random.default_rng(26)
    split = 0
    for table in range(300):
        n = int(rng.integers(6, 30))
        raw = rng.integers(0, 4, size=(n, n)).astype(np.float64)
        dist = np.triu(raw, 1) + np.triu(raw, 1).T
        labels = rng.integers(0, 2, size=n)
        if table % 2:  # a k-fold protocol: every row against every other group
            queries = np.arange(n)
            groups = rng.permutation(np.resize(np.arange(3), n))
            top = n - np.bincount(groups).max()
        else:
            rows = rng.permutation(n)
            queries, groups = rows[: n // 2], _groups(dist, rows[n // 2 :])
            top = n - n // 2
        k_grid = sorted(set(rng.integers(1, top + 1, size=4).tolist()))
        whole = knn_grid(queries, dist, labels, k_grid, groups)
        per_block = int(rng.integers(1, 6))
        monkeypatch.setattr(topmix.classify, "BLOCK_ENTRIES", n * per_block)
        blocked = knn_grid(queries, dist, labels, k_grid, groups)
        monkeypatch.undo()
        assert np.array_equal(whole[0], blocked[0]) and np.array_equal(whole[1], blocked[1]), table
        split += per_block < queries.size
    assert split >= 250


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_candidate_set_as_groups_matches_per_query_oracle(data):
    # integer distances, asymmetric and with a non-zero diagonal: ties at the
    # rank boundary, in votes and in sums
    n = data.draw(st.integers(2, 16))
    dist = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)))
    dist = dist.reshape(n, n).astype(np.float64)
    labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    rows = np.arange(n)
    candidates = np.array(data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=n - 1, unique=True)))
    others = np.setdiff1d(rows, candidates)
    queries = np.array(data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
    k_grid = list(range(1, candidates.size + 1))
    _, predictions = knn_grid(queries, dist, labels, k_grid, np.isin(rows, candidates))
    for i, q in enumerate(queries.tolist()):
        for j, k in enumerate(k_grid):
            assert predictions[i, j] == oracles.knn_predict(q, candidates, dist, labels, k), (q, k)
