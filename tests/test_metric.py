import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topmix import metric
from topmix.errors import ContractError
from topmix.ingest import parse_dataset
from topmix.metric import distance_matrix
from topmix.pipeline import load_distance_matrix, save_distance_matrix
from topmix.persistence import PersistenceDiagram, dim0_diagrams
from topmix.preprocess import (
    default_symmetry_vector,
    fit_standardizer,
    one_hot_encode,
    standardize,
    symmetry_break,
)
from topmix.schema import load_schema

from conftest import CLEVELAND_SCHEMA, synthetic_cleveland_rows
from oracles import brute_bottleneck, brute_wasserstein, wasserstein

CAP = 10.0


def _diag(pairs, cap=CAP):
    return PersistenceDiagram(np.asarray(pairs, dtype=np.float64).reshape(-1, 2), maxscale=cap)


def _random_diagram(rng, max_points=4, cap=CAP):
    n = int(rng.integers(0, max_points + 1))
    births = rng.uniform(0, cap / 2, size=n)
    deaths = births + rng.uniform(0, cap / 2, size=n)
    return _diag(np.column_stack([births, deaths]) if n else np.zeros((0, 2)), cap)


def _zero_birth(deaths, cap=CAP):
    return _diag(np.column_stack([np.zeros_like(deaths), deaths]), cap)


def _zero_birth_diagram(rng, max_points=4, cap=CAP):
    return _zero_birth(rng.uniform(0, cap, size=int(rng.integers(0, max_points + 1))), cap)


def _deaths(diagrams):
    """Zero-birth diagrams as rows of ascending deaths, front-padded with 0
    deaths: points on the diagonal, which cost nothing to match."""
    width = max(len(d) for d in diagrams)
    return np.array([np.concatenate([np.zeros(width - len(d)), d.deaths]) for d in diagrams])


def _close_to_wasserstein(got, want):
    """The DP sums the assignment solver's terms in path order, not exactly."""
    return abs(got - want) <= 1e-15 * max(1.0, want)


class TestWorkedExamples:
    def test_identity_is_zero(self):
        d = _diag([[0.0, 1.0], [0.5, 3.0]])
        assert wasserstein(d, d, 1.0) == 0.0

    def test_single_pair_shift(self):
        # direct match costs 2; both-to-diagonal costs 0.5 + 1.5 = 2
        assert wasserstein(_diag([[0.0, 1.0]]), _diag([[0.0, 3.0]]), 1.0) == 2.0

    def test_single_pair_versus_empty(self):
        assert wasserstein(_diag([[0.0, 2.0]]), _diag(np.zeros((0, 2))), 1.0) == 1.0

    def test_empty_vs_empty(self):
        e = _diag(np.zeros((0, 2)))
        assert wasserstein(e, e, 1.0) == 0.0

    def test_worked_clouds_are_separated(self):
        deaths, cap = dim0_diagrams(np.array([[6.0, 8.0], [7.0, 7.0]]), safety=1.1)
        assert cap == 1.1 * 10.0
        dx, dy = _zero_birth(deaths[0], cap), _zero_birth(deaths[1], cap)
        # finite deaths {6, 8} vs {7, 7}: optimal matching pays |6-7| + |8-7|
        w = wasserstein(dx, dy, 1.0)
        assert w == 2.0
        assert distance_matrix(deaths, 1.0)[0, 1] == 2.0
        assert w > 0.0
        assert w == pytest.approx(brute_wasserstein(dx.pairs, dy.pairs, 1.0), rel=1e-12)


class TestContracts:
    def test_mismatched_caps(self):
        with pytest.raises(ContractError, match="caps differ"):
            wasserstein(_diag([[0.0, 1.0]], cap=5.0), _diag([[0.0, 1.0]], cap=6.0), 1.0)

    def test_mismatched_dimension(self):
        d1 = PersistenceDiagram(np.array([[0.0, 1.0]]), maxscale=CAP, dimension=0)
        d2 = PersistenceDiagram(np.array([[0.0, 1.0]]), maxscale=CAP, dimension=1)
        with pytest.raises(ContractError, match="dimension"):
            wasserstein(d1, d2, 1.0)

    def test_bad_order(self):
        d = _diag([[0.0, 1.0]])
        for p in (0.5, 0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ContractError):
                wasserstein(d, d, p)

    def test_zero_persistence_pairs_are_legal(self):
        d1 = _diag([[1.0, 1.0], [0.0, 2.0]])
        d2 = _diag([[0.0, 2.0]])
        assert wasserstein(d1, d2, 1.0) == 0.0


class TestAgainstBruteForce:
    def test_wasserstein_many_random_pairs(self):
        rng = np.random.default_rng(10)
        for _ in range(150):
            d1, d2 = _random_diagram(rng, 3), _random_diagram(rng, 3)
            p = float(rng.choice([1.0, 2.0, 3.0]))
            got = wasserstein(d1, d2, p)
            want = brute_wasserstein(d1.pairs, d2.pairs, p)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    def test_large_p_approaches_bottleneck(self):
        # with at most 2 points per diagram the augmented matching has at most
        # 4 nonzero terms, so W_32 / W_inf <= 4**(1/32) < 1.05 unconditionally
        rng = np.random.default_rng(12)
        for _ in range(100):
            d1, d2 = _random_diagram(rng, 2), _random_diagram(rng, 2)
            if len(d1) + len(d2) == 0:
                continue
            w32 = wasserstein(d1, d2, 32.0)
            binf = brute_bottleneck(d1.pairs, d2.pairs)
            if binf == 0.0:
                assert w32 <= 1e-12
            else:
                assert 1.0 - 1e-12 <= w32 / binf <= 1.05


class TestMetricProperties:
    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            d1, d2 = _random_diagram(rng), _random_diagram(rng)
            assert wasserstein(d1, d2, 1.0) == wasserstein(d2, d1, 1.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            a, b, c = (_random_diagram(rng) for _ in range(3))
            for p in (1.0, 2.0):
                ab = wasserstein(a, b, p)
                bc = wasserstein(b, c, p)
                ac = wasserstein(a, c, p)
                assert ac <= ab + bc + 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            d1, d2 = _random_diagram(rng), _random_diagram(rng)
            assert wasserstein(d1, d2, 1.0) >= 0.0

    def test_shared_cap_essential_pairs_cancel_exactly(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            d1, d2 = _random_diagram(rng), _random_diagram(rng)
            base = wasserstein(d1, d2, 1.0)
            e1 = _diag(np.vstack([d1.pairs, [[0.0, CAP]]]))
            e2 = _diag(np.vstack([d2.pairs, [[0.0, CAP]]]))
            assert wasserstein(e1, e2, 1.0) == base


class TestDistanceMatrix:
    def test_single_diagram(self):
        out = distance_matrix([[1.0, CAP]], 1.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.0

    def test_duplicated_diagram(self):
        out = distance_matrix([[1.0, 4.0, CAP]] * 2, 1.0)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_symmetric_zero_diagonal_and_spot_values(self):
        rng = np.random.default_rng(17)
        diagrams = [_zero_birth_diagram(rng) for _ in range(8)]
        out = distance_matrix(_deaths(diagrams), 1.0)
        assert np.array_equal(out, out.T)
        assert np.array_equal(np.diag(out), np.zeros(8))
        for i, j in [(0, 3), (2, 7), (4, 5)]:
            assert _close_to_wasserstein(out[i, j], wasserstein(diagrams[i], diagrams[j], 1.0))

    def test_malformed_deaths_rejected(self):
        for deaths in (
            [1.0, 2.0],  # one diagram, not a matrix of them
            np.zeros((0, 3)),
            np.zeros((2, 3, 1)),
            [[1.0, 2.0], [1.0, np.nan]],
            [[1.0, 2.0], [1.0, np.inf]],
            [[1.0, 2.0], [-1.0, 2.0]],
            [[1.0, 2.0], [3.0, 2.0]],  # not ascending
        ):
            with pytest.raises(ContractError):
                distance_matrix(deaths, 1.0)

    def test_bad_order_rejected(self):
        for p in (0.5, 0.0, math.inf, math.nan):
            with pytest.raises(ContractError):
                distance_matrix([[1.0, CAP]] * 2, p)

    @pytest.mark.parametrize("p", [1.0, 2.0, 1e308])
    def test_overflowing_distance_rejected(self, p):
        # at p = 1e308 every power above 1 overflows; at p <= 2 the deaths
        # must come near the float64 limit first
        deaths = [[1.0, 3.0], [1.0, 6.0]] if p == 1e308 else [[0.0] * 3, [1.7e308] * 3]
        with pytest.raises(ContractError, match=re.escape(f"distances at p = {p!r} are not finite")):
            distance_matrix(deaths, p)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        diagrams = [_zero_birth_diagram(rng) for _ in range(5)]
        out = distance_matrix(_deaths(diagrams), 1.0)
        path = tmp_path / "distances.npy"
        save_distance_matrix(out, path)
        assert np.array_equal(load_distance_matrix(path, bytearray(path.read_bytes())), out)
        first = path.read_bytes()
        save_distance_matrix(out, path)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float64, np.int32])
    def test_load_from_bytes_already_read(self, tmp_path, order, dtype):
        matrix = np.asarray(np.arange(12).reshape(3, 4), dtype=dtype, order=order)
        path = tmp_path / "distances.npy"
        save_distance_matrix(matrix, path)
        loaded = load_distance_matrix(path, bytearray(path.read_bytes()))
        assert loaded.dtype == matrix.dtype and np.array_equal(loaded, matrix)
        assert loaded.flags.writeable


class TestDistanceMatrixAgainstOracles:
    def test_brute_force_500_pairs(self):
        rng = np.random.default_rng(20)
        seen = {"tied": 0, "zero": 0, "unequal": 0, "ratio > 3": 0}
        for case in range(500):
            sides = []
            for _ in range(2):
                deaths = CAP * rng.random(int(rng.integers(0, 7))) ** 3
                if rng.random() < 0.3:
                    deaths = np.round(deaths * 2) / 2  # ties, and zeros
                sides.append(_zero_birth(np.sort(deaths)))
            d1, d2 = sides
            p = float(rng.choice([1.0, 2.0, 3.5]))
            got = distance_matrix(_deaths(sides), p)
            want = brute_wasserstein(d1.pairs, d2.pairs, p)
            assert got[0, 1] == got[1, 0]
            assert math.isclose(got[0, 1], want, rel_tol=1e-12, abs_tol=1e-15), f"case {case}"
            both = np.concatenate([d1.deaths, d2.deaths])
            seen["tied"] += len(np.unique(both)) < len(both)
            seen["zero"] += bool((both == 0).any())
            seen["unequal"] += len(d1) != len(d2)
            lo, hi = d1.deaths[d1.deaths > 0], d2.deaths[d2.deaths > 0]
            if lo.size and hi.size:
                ratios = hi[None, :] / lo[:, None]
                seen["ratio > 3"] += bool(((ratios > 3) | (ratios < 1 / 3)).any())
        assert min(seen.values()) >= 50, seen

    def test_matches_assignment_solver_on_cleveland_shaped_table(self, tmp_path):
        path = tmp_path / "synth.csv"
        path.write_text("\n".join(synthetic_cleveland_rows()) + "\n", encoding="utf-8")
        raw, _ = parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
        encoded = one_hot_encode(raw)
        broken = symmetry_break(
            standardize(encoded, fit_standardizer(encoded)), default_symmetry_vector(encoded.m)
        )
        deaths, cap = dim0_diagrams(broken.values, safety=1.1)
        assert len(deaths) == 297
        out = distance_matrix(deaths, 1.0)
        diagrams = [_zero_birth(row, cap) for row in deaths]
        for i in range(len(diagrams)):
            for j in range(i + 1, len(diagrams)):
                want = wasserstein(diagrams[i], diagrams[j], 1.0)
                assert _close_to_wasserstein(out[i, j], want), (i, j, out[i, j], want)


def _programme(deaths, p=1.0):
    """``_dp_distances`` on every pair (i < j) of rows, in ``triu_indices`` order."""
    rows, cols = np.triu_indices(len(deaths), k=1)
    a = np.ascontiguousarray(deaths[rows].T)
    b_rev = np.ascontiguousarray(deaths[cols, ::-1].T)
    return metric._dp_distances(a, b_rev, p)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


@st.composite
def _deaths_matrices(draw, max_rows=7, max_width=6):
    """Rows of ascending deaths: continuous, on a coarse grid (ties and
    zeros), or drawn from a few shared magnitudes as under the zero
    symmetry vector; sometimes with a shared cap column; (n, 0) included."""
    n = draw(st.integers(1, max_rows))
    width = draw(st.integers(0, max_width))
    kind = draw(st.sampled_from(["continuous", "grid", "few"]))
    if kind == "few":
        pool = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=3))
        cell = st.sampled_from(pool)
    else:
        cell = st.floats(0.0, 10.0)
    deaths = np.sort(np.array(draw(st.lists(cell, min_size=n * width, max_size=n * width))).reshape(n, width))
    if kind == "grid":
        deaths = np.round(deaths * 2) / 2
    if width and draw(st.booleans()):
        deaths[:, -1] = max(11.0, deaths.max())
    return deaths


class TestSortedCertificate:
    @settings(max_examples=300, deadline=None)
    @given(_deaths_matrices())
    def test_every_entry_is_the_programmes(self, deaths):
        out = distance_matrix(deaths, 1.0)
        rows, cols = np.triu_indices(len(deaths), k=1)
        assert np.array_equal(_bits(out[rows, cols]), _bits(_programme(deaths)))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.lists(st.floats(0.0, 40.0), max_size=12), st.randoms())
    def test_mixed_blocks_land_in_their_cells(self, block, extra, random):
        # (1, 10) against (10, 30) is not settled, (1, 10) against (2, 11) is
        fixed = [[1.0, 10.0, 40.0], [10.0, 30.0, 40.0], [2.0, 11.0, 40.0]]
        drawn = np.sort(np.array(extra[: len(extra) // 2 * 2]).reshape(-1, 2), axis=1)
        deaths = np.vstack([fixed, np.column_stack([drawn, np.full(len(drawn), 40.0)])])
        order = list(range(len(deaths)))
        random.shuffle(order)
        deaths = deaths[order]
        rows, cols = np.triu_indices(len(deaths), k=1)
        with mock.patch.object(metric, "_BLOCK_PAIRS", block):
            left = metric._settle_sorted(deaths, rows, cols, np.zeros((len(deaths),) * 2))
            out = distance_matrix(deaths, 1.0)
        assert 0 < left.size < rows.size
        assert np.array_equal(_bits(out[rows, cols]), _bits(_programme(deaths)))
        assert np.array_equal(out, out.T)

    def test_non_optimal_sorted_matching_rejected(self):
        # sorted: |1 - 10| + |10 - 30| = 29; optimal: 10 with 10, 1/2 + 30/2 = 15.5
        a, b = np.array([[1.0], [10.0]]), np.array([[10.0], [30.0]])
        settled, cost = metric._sorted_certificate(a, b, 0.0, np.empty((4, 2, 1)))
        assert not settled[0]
        assert cost[0] == 29.0
        assert distance_matrix([[1.0, 10.0], [10.0, 30.0]], 1.0)[0, 1] == 15.5

    def test_every_pair_settled_on_cleveland_shaped_table(self, tmp_path):
        path = tmp_path / "synth.csv"
        path.write_text("\n".join(synthetic_cleveland_rows()) + "\n", encoding="utf-8")
        raw, _ = parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
        encoded = one_hot_encode(raw)
        broken = symmetry_break(
            standardize(encoded, fit_standardizer(encoded)), default_symmetry_vector(encoded.m)
        )
        deaths, _ = dim0_diagrams(broken.values, safety=1.1)
        rows, cols = np.triu_indices(len(deaths), k=1)
        out = np.zeros((len(deaths),) * 2)
        assert metric._settle_sorted(deaths, rows, cols, out).size == 0
        assert np.array_equal(_bits(out[rows, cols]), _bits(_programme(deaths)))


class TestDistanceMatrixProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    def test_stability_bound(self, data, p):
        # W_p(D(x), D(y)) <= ||sort|x| - sort|y|||_p <= ||x - y||_p
        m = data.draw(st.integers(1, 8))
        vector = st.lists(st.floats(-5.0, 5.0), min_size=m, max_size=m)
        x, y = np.array(data.draw(vector)), np.array(data.draw(vector))
        deaths, _ = dim0_diagrams(np.vstack([x, y]), safety=1.1)
        w = distance_matrix(deaths, p)[0, 1]
        sorted_gap = np.sum(np.abs(np.sort(np.abs(x)) - np.sort(np.abs(y))) ** p) ** (1 / p)
        plain_gap = np.sum(np.abs(x - y) ** p) ** (1 / p)
        assert w <= sorted_gap * (1 + 1e-12) + 1e-300
        assert sorted_gap <= plain_gap * (1 + 1e-12) + 1e-300

    @settings(max_examples=200, deadline=None)
    @given(_deaths_matrices(), st.sampled_from([1.0, 2.0]), st.randoms())
    def test_symmetric_zero_diagonal_and_row_order_free(self, deaths, p, random):
        out = distance_matrix(deaths, p)
        assert np.array_equal(out, out.T)
        assert not np.diag(out).any()
        order = list(range(len(deaths)))
        random.shuffle(order)
        assert np.array_equal(_bits(distance_matrix(deaths[order], p)), _bits(out[np.ix_(order, order)]))
