import io
import logging
import math
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
from oracles import brute_bottleneck, brute_wasserstein, canonical_gap, wasserstein

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
        assert np.array_equal(load_distance_matrix(path, bytearray(path.read_bytes()), len(out)), out)
        for rows in (1, len(out) - 1, len(out) + 1):  # the header names another shape
            assert load_distance_matrix(path, bytearray(path.read_bytes()), rows) is None
        first = path.read_bytes()
        save_distance_matrix(out, path)
        assert path.read_bytes() == first

    def test_save_holds_no_copy_of_the_matrix(self, tmp_path):
        matrix = np.random.default_rng(3).random((2000, 2000))  # 32 MB
        path = tmp_path / "distances.npy"
        tracemalloc.start()
        try:
            save_distance_matrix(matrix, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        expected = io.BytesIO()
        np.save(expected, matrix)
        assert path.read_bytes() == expected.getvalue()

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dtype", [np.float64, np.int32])
    def test_load_from_bytes_already_read(self, tmp_path, order, dtype):
        matrix = np.asarray(np.arange(12).reshape(3, 4), dtype=dtype, order=order)
        path = tmp_path / "distances.npy"
        save_distance_matrix(matrix, path)
        loaded = load_distance_matrix(path, bytearray(path.read_bytes()), 3)
        if dtype is np.float64 and order == "C":  # the one layout the cache writes
            assert loaded.dtype == matrix.dtype and np.array_equal(loaded, matrix)
            assert loaded.flags.writeable
        else:  # another header than the expected one is refused, not parsed
            assert loaded is None


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


def _sides(a, b):
    """Both sides' certificate terms and a scratch for them, built as ``_fill_upper`` builds them:
    (deaths, scaled, scaled / 2, rise, floor) and (deaths, scaled, scaled / 2), the float32 terms
    on the deaths scaled by 2^-e, 2^(e-1) <= the largest death < 2^e."""
    e = math.frexp(max(a.max(initial=0.0), b.max(initial=0.0)))[1]
    a32, b32 = np.ldexp(a, -e).astype(np.float32), np.ldexp(b, -e).astype(np.float32)
    rise = a32[1:] - a32[:-1]
    floor = np.concatenate([np.negative(rise), np.zeros((min(len(a), 1),) + a.shape[1:], np.float32)])
    scratch = [*np.empty((3,) + b.shape, np.float32), np.empty(b.shape)]
    return (a, a32, a32 / 2, rise, floor), (b, b32, b32 / 2), scratch


def _gap_bound(width):
    """The module docstring's bound on the float32 gap's error, on deaths scaled by 2^-e with
    2^(e-1) <= the largest death < 2^e: (8n + 15) u + 24 (n + 2)^2 u^2 + 2^-149, u = 2^-24."""
    u = Fraction(1, 2**24)
    return (8 * width + 15) * u + 24 * (width + 2) ** 2 * u**2 + Fraction(1, 2**149)


def _assert_margin_leaves_the_proof_its_gap(margin, width):
    """A computed gap at or above ``margin``, as the float32 compare rounds it, leaves G >= 14 n^2 2^-53 (scaled)."""
    assert Fraction(float(np.float32(margin))) >= _gap_bound(width) + 14 * width**2 * Fraction(1, 2**53)


def _float32_at_most(x):
    """The largest float32 <= the Fraction x, as a float."""
    near = np.float32(float(x))
    while Fraction(float(near)) > x:
        near = np.nextafter(near, np.float32(-np.inf))
    return float(near)


def _float32_above(x):
    """The smallest float32 > the Fraction x, as a float."""
    near = np.float32(float(x))
    while Fraction(float(near)) <= x:
        near = np.nextafter(near, np.float32(np.inf))
    return float(near)


def _bits(values):
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


def _fill_upper_without_programme(deaths, out):
    """``_fill_upper`` at p = 1 with a programme that returns NaN: the NaN cells are the pairs it programmed."""

    def nan_programme(a, b_rev, p):
        assert a.shape[1] <= metric._BLOCK_PAIRS  # the programme's memory bound
        return np.full(a.shape[1], np.nan)

    with mock.patch.object(metric, "_dp_distances", nan_programme):
        programmed = metric._fill_upper(deaths, 1.0, out)
    assert np.isnan(out).sum() == programmed
    return programmed


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


@st.composite
def _near_tie_matrices(draw, max_rows=5, max_width=6):
    """Rows on a grid of halves, where the sorted path often ties another (G = 0), each death then
    nudged by up to 64 float32 units of 8: gaps on either side of the certificate's margin."""
    n, width = draw(st.integers(2, max_rows)), draw(st.integers(1, max_width))
    grid = draw(st.lists(st.integers(0, 16), min_size=n * width, max_size=n * width))
    nudge = draw(st.lists(st.integers(-64, 64), min_size=n * width, max_size=n * width))
    deaths = np.array(grid) / 2 + np.array(nudge) * 2.0**-24 * 8
    return np.sort(np.abs(deaths).reshape(n, width), axis=1)


class TestSortedCertificate:
    @settings(max_examples=300, deadline=None)
    @given(_deaths_matrices())
    @example(np.array([[1.0, 10.0], [1.1, 30.0]]))  # a last column the rows do not share is never skipped
    @example(np.array([[1.0], [3.0]]))  # the sorted and the diagonal path tie: G = 0
    @example(np.array([[1.0], [np.nextafter(3.0, np.inf)]]))  # the sorted path loses by one ulp
    @example(np.array([[5e-324, 5e-324], [5e-324, 1.5e-323]]))  # a subnormal largest death: 2^-e overflows
    def test_every_entry_is_the_programmes(self, deaths):
        out = distance_matrix(deaths, 1.0)
        rows, cols = np.triu_indices(len(deaths), k=1)
        assert np.array_equal(_bits(out[rows, cols]), _bits(_programme(deaths)))

    @settings(max_examples=300, deadline=None)
    @given(_near_tie_matrices())
    def test_near_margin_pairs_settle_only_as_the_proof_allows(self, deaths):
        # a settled pair's exact gap is at least 14 n^2 2^(e - 53), and its entry is the programme's
        n, width = deaths.shape
        out = np.zeros((n, n))
        _fill_upper_without_programme(deaths, out)
        rows, cols = np.triu_indices(n, k=1)
        settled = ~np.isnan(out[rows, cols])
        assert np.array_equal(_bits(out[rows, cols][settled]), _bits(_programme(deaths)[settled]))
        if width == 1 and (deaths == deaths[0]).all():
            return  # one shared cap, skipped: no gap term is left, and every cost is +0
        least = 14 * width**2 * Fraction(2) ** (math.frexp(deaths.max())[1] - 53)
        assert all(canonical_gap(deaths[i], deaths[j]) >= least for i, j in zip(rows[settled], cols[settled]))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 10), st.lists(st.floats(0.0, 40.0), min_size=2, max_size=14), st.randoms())
    def test_mixed_blocks_land_in_their_cells(self, block, extra, random):
        # (1, 10) against (10, 30) is not settled, (1, 10) against (2, 11) is
        fixed = [[1.0, 10.0, 40.0], [10.0, 30.0, 40.0], [2.0, 11.0, 40.0]]
        drawn = np.sort(np.array(extra[: len(extra) // 2 * 2]).reshape(-1, 2), axis=1)
        drawn = drawn[: (len(drawn) - 1) // 2 * 2 + 1]  # an even row count: offset n/2 meets its pairs twice
        deaths = np.vstack([fixed, np.column_stack([drawn, np.full(len(drawn), 40.0)])])
        order = list(range(len(deaths)))
        random.shuffle(order)
        deaths = deaths[order]
        rows, cols = np.triu_indices(len(deaths), k=1)
        with mock.patch.object(metric, "_BLOCK_PAIRS", block):  # blocks of one or more offsets
            left = _fill_upper_without_programme(deaths, np.zeros((len(deaths),) * 2))
            out = distance_matrix(deaths, 1.0)
        assert len(deaths) % 2 == 0
        assert 0 < left < rows.size
        assert np.array_equal(_bits(out[rows, cols]), _bits(_programme(deaths)))
        assert np.array_equal(out, out.T)

    @pytest.mark.parametrize("b", [3.0, np.nextafter(3.0, np.inf)], ids=["tie", "one-ulp-dearer"])
    def test_near_ties_go_to_the_programme(self, b):
        # 1 against b: the sorted path costs b - 1, both deaths to the diagonal 1/2 + b/2
        assert _fill_upper_without_programme(np.array([[1.0], [b]]), np.zeros((2, 2))) == 1

    @settings(max_examples=300, deadline=None)
    @given(_deaths_matrices())
    @example(np.array([[1.0], [3.0]]))
    @example(np.array([[0.0, 1e-300, 1e300], [1e-200, 2e-200, 2e300]]))
    def test_computed_gap_is_within_the_bound_of_the_exact_one(self, deaths):
        # the float32 gap, on the deaths as _fill_upper scales them, is within _gap_bound of the exact
        # one, and the margin above that bound settles only pairs whose float sums keep the order
        # of their exact costs
        n, width = deaths.shape
        assume(width)
        scale, bound = Fraction(2) ** -math.frexp(deaths.max())[1], _gap_bound(width)
        certificate, visited = metric._sorted_certificate, []

        def each_pair(a, b, margin, scratch):
            _assert_margin_leaves_the_proof_its_gap(margin, width)
            for offset, row in np.ndindex(scratch[0].shape[1:]):
                one_a = [term[:, :, row : row + 1] for term in a]
                one_b = [term[:, offset : offset + 1, row : row + 1] for term in b]
                one_scratch = [buffer[:, :1, :1] for buffer in scratch]
                visited.append((offset, row))
                if not len(a[0]):
                    continue  # a shared cap alone: no gap terms
                gap = canonical_gap(one_a[0].ravel(), one_b[0].ravel()) * scale
                for margin, settled in ((_float32_at_most(gap - bound), True), (_float32_above(gap + bound), False)):
                    got, _ = certificate(one_a, one_b, margin, one_scratch)
                    assert got.ravel()[0] == settled, (offset, row, gap, margin)
            return certificate(a, b, margin, scratch)

        with mock.patch.object(metric, "_sorted_certificate", each_pair):
            # the reversed rows meet each pair in the other orientation, as wrapped pairs reach it
            for matrix in (deaths, deaths[::-1]):
                _fill_upper_without_programme(matrix, np.zeros((n, n)))
        assert len(visited) >= n * (n - 1)

    @pytest.mark.parametrize("width", [1, 26, 1024])
    def test_margin_leaves_the_proof_its_gap_at_any_width(self, width):
        # at 1,024 deaths per row the margin's u^2 term is needed
        certificate, margins = metric._sorted_certificate, []

        def recording(a, b, margin, scratch):
            margins.append(margin)
            return certificate(a, b, margin, scratch)

        deaths = np.sort(np.random.default_rng(0).random((2, width)), axis=1)
        with mock.patch.object(metric, "_sorted_certificate", recording):
            _fill_upper_without_programme(deaths, np.zeros((2, 2)))
        assert margins
        for margin in margins:
            _assert_margin_leaves_the_proof_its_gap(margin, width)

    def test_non_optimal_sorted_matching_rejected(self):
        # sorted: |1 - 10| + |10 - 30| = 29; optimal: 10 with 10, 1/2 + 30/2 = 15.5
        a, b = np.array([[1.0], [10.0]]), np.array([[10.0], [30.0]])
        side_a, side_b, scratch = _sides(a, b)
        settled, cost = metric._sorted_certificate(side_a, side_b, 0.0, scratch)
        assert not settled[0]
        assert cost[0] == 29.0
        assert distance_matrix([[1.0, 10.0], [10.0, 30.0]], 1.0)[0, 1] == 15.5

    @settings(max_examples=200, deadline=None)
    @given(_deaths_matrices())
    def test_shared_cap_is_skipped_exactly(self, deaths):
        # rows without a shared last column, then the same rows with a shared cap appended
        assume(not deaths.shape[1] or (deaths[:, -1] != deaths[0, -1]).any())
        n, width = deaths.shape
        # a cap in the binade of the largest death: both runs scale the deaths by the same power of two
        cap = math.ldexp(1 - 2**-53, math.frexp(deaths.max(initial=0.0))[1])
        capped = np.column_stack([deaths, np.full(n, cap)])
        # the margin grows with the width: hold both runs to the capped one's
        u = 2.0**-24
        margin = (8 * (width + 1) + 16 + 32 * (width + 3) ** 2 * u) * u
        certificate, calls, outs = metric._sorted_certificate, [], []

        def at_capped_margin(a, b, given_margin, scratch):
            calls[-1].append((len(a[0]), given_margin))  # death columns, margin
            return certificate(a, b, margin, scratch)

        with mock.patch.object(metric, "_sorted_certificate", at_capped_margin):
            for matrix in (capped, deaths):
                calls.append([])
                outs.append(np.zeros((n, n)))
                _fill_upper_without_programme(matrix, outs[-1])
        assert all(call == (width, margin) for call in calls[0])  # the cap never reaches the certificate
        rows, cols = np.triu_indices(n, k=1)  # NaN where programmed, in both runs alike
        assert np.array_equal(_bits(outs[0][rows, cols]), _bits(outs[1][rows, cols]))

    @pytest.mark.parametrize("top", [1e-300, 1.0, 1e300, np.finfo(np.float64).max])
    def test_extreme_deaths_are_scaled_not_overflowed(self, top):
        # rows spanning 300 decades below top: cast unscaled, the large deaths overflow float32 and the small
        # flush to 0; every pair whose exact gap is a thousandth of the largest death must still settle
        rng = np.random.default_rng(5)
        deaths = np.sort(top * np.vstack([rng.uniform(0.5, 1.0, (6, 4)), 10.0 ** rng.uniform(-300, 0, (6, 4))]), axis=1)
        deaths = deaths[rng.permutation(len(deaths))]
        n = len(deaths)
        out = np.zeros((n, n))
        with np.errstate(over="ignore"):  # as in distance_matrix: a cost may overflow to inf
            _fill_upper_without_programme(deaths, out)
            want = _programme(deaths)
        rows, cols = np.triu_indices(n, k=1)
        settled = ~np.isnan(out[rows, cols])
        assert np.array_equal(_bits(out[rows, cols][settled]), _bits(want[settled]))
        gaps = [canonical_gap(deaths[i], deaths[j]) for i, j in zip(rows, cols)]
        assert all(gap > 0 for gap, done in zip(gaps, settled) if done)  # no pair settled through inf or NaN
        wide = np.array([gap >= Fraction(deaths.max()) / 1000 for gap in gaps])
        assert wide.sum() >= 10 and settled[wide].all()

    def test_cost_is_summed_in_path_order(self):
        # after 0.75 + 0.75 each 2^-53 is half an ulp and rounds away in path order, as in
        # _dp_distances; numpy's pairwise sum over a contiguous k axis would keep them
        tiny = 2.0**-53
        a = np.repeat([[0.0], [0.0]] + [[0.75]] * 14, 2, axis=1)  # two pairs: k is a block's outer axis
        b = np.repeat([[0.75], [0.75]] + [[0.75 + tiny]] * 14, 2, axis=1)
        side_a, side_b, scratch = _sides(a, b)
        _, cost = metric._sorted_certificate(side_a, side_b, 0.0, scratch)
        terms = np.abs(a[:, 0] - b[:, 0])
        in_order = 0.0
        for term in terms:
            in_order += term
        assert np.sum(terms) != in_order  # the two orders round differently here
        assert np.array_equal(_bits(cost), _bits([in_order, in_order]))

    def test_every_certificate_call_holds_two_pairs(self):
        # a lone pair would reduce over a contiguous k axis, pairwise, not in path order
        certificate, pairs = metric._sorted_certificate, []

        def recording(a, b, margin, scratch):
            pairs.append(math.prod(scratch[0].shape[1:]))
            return certificate(a, b, margin, scratch)

        rng = np.random.default_rng(3)
        with mock.patch.object(metric, "_sorted_certificate", recording):
            for n in [*range(2, 80), 511, 512, 513, 1024, 1025]:
                del pairs[:]
                _fill_upper_without_programme(np.sort(rng.random((n, 3)), axis=1), np.zeros((n, n)))
                assert pairs and min(pairs) >= 2, (n, pairs)

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
        assert _fill_upper_without_programme(deaths, out) == 0
        assert np.array_equal(_bits(out[rows, cols]), _bits(_programme(deaths)))

    @pytest.mark.parametrize(
        "vector, p, settled, table",
        [
            pytest.param("default", 1.0, 43956, (303, 6), id="default-1.0-43956"),
            pytest.param("zero", 1.0, 12725, (303, 6), id="zero-1.0-12725"),
            pytest.param("default", 2.0, 0, (303, 6), id="default-2.0-0"),
            # 980 kept rows: each block of offsets spans two row runs, whose leftovers share its programme calls
            pytest.param("zero", 1.0, 130683, (1000, 20), id="zero-1.0-130683-980-rows"),
        ],
    )
    def test_pair_counts_match_the_triangle_enumeration(self, tmp_path, caplog, vector, p, settled, table):
        # the counts of the row-major pair order: the offset order settles the same pairs
        path = tmp_path / "synth.csv"
        path.write_text("\n".join(synthetic_cleveland_rows(*table)) + "\n", encoding="utf-8")
        raw, _ = parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
        encoded = one_hot_encode(raw)
        weights = default_symmetry_vector(encoded.m) if vector == "default" else np.zeros(encoded.m)
        broken = symmetry_break(standardize(encoded, fit_standardizer(encoded)), weights)
        deaths, _ = dim0_diagrams(broken.values, safety=1.1)
        with caplog.at_level(logging.INFO, logger="topmix"):
            distance_matrix(deaths, p)
        pairs = len(deaths) * (len(deaths) - 1) // 2
        assert [r.getMessage() for r in caplog.records if r.getMessage().startswith("distances: ")] == [
            f"distances: {pairs} pairs, {settled} settled by the sorted certificate, "
            f"{pairs - settled} by the dynamic programme"
        ]


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
