import functools
import hashlib
import io
import logging
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from topmix import metric
from topmix.errors import ContractError
from topmix.ingest import parse_dataset
from topmix.metric import distance_matrix
from topmix.pipeline import load_distance_matrix, save_distance_matrix
from topmix.persistence import dim0_diagrams
from topmix.preprocess import (
    default_symmetry_vector,
    fit_standardizer,
    one_hot_encode,
    standardize,
    symmetry_break,
)
from topmix.schema import load_schema

from conftest import CLEVELAND_SCHEMA, synthetic_cleveland_rows
from oracles import PersistenceDiagram, brute_bottleneck, brute_wasserstein, canonical_gap, wasserstein

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
        entry = save_distance_matrix(out, path)
        first = path.read_bytes()
        assert entry == {"bytes": len(first), "sha256": hashlib.sha256(first).hexdigest()}
        assert np.array_equal(load_distance_matrix(path, entry, len(out)), out)
        for rows in (1, len(out) - 1, len(out) + 1):  # the header names another shape
            assert load_distance_matrix(path, entry, rows) is None
        assert save_distance_matrix(out, path) == entry
        assert path.read_bytes() == first

    @pytest.mark.parametrize(
        "fault",
        ["none", "list", "no-bytes", "no-sha256", "bytes-plus-one", "bytes-minus-one", "other-sha256", "other-rows"],
    )
    def test_load_refuses_a_file_its_entry_does_not_vouch_for(self, tmp_path, fault):
        matrix = np.arange(12.0).reshape(3, 4)
        path = tmp_path / "distances.npy"
        entry = save_distance_matrix(matrix, path)
        bad, rows = {
            "none": (None, 3),
            "list": ([entry["bytes"], entry["sha256"]], 3),
            "no-bytes": ({"sha256": entry["sha256"]}, 3),
            "no-sha256": ({"bytes": entry["bytes"]}, 3),
            "bytes-plus-one": ({**entry, "bytes": entry["bytes"] + 1}, 3),
            "bytes-minus-one": ({**entry, "bytes": entry["bytes"] - 1}, 3),
            "other-sha256": ({**entry, "sha256": hashlib.sha256(b"other bytes").hexdigest()}, 3),
            "other-rows": (entry, 4),  # vouched for, but its header names 3 rows
        }[fault]
        # the size is compared before the file is opened; past it, the file is read once
        reads = 1 if fault in ("no-sha256", "other-sha256", "other-rows") else 0
        with mock.patch("builtins.open", wraps=open) as opened:
            assert load_distance_matrix(path, bad, rows) is None
        assert opened.call_args_list == [mock.call(path, "rb")] * reads
        with mock.patch("builtins.open", wraps=open) as opened:
            loaded = load_distance_matrix(path, entry, 3)
        assert opened.call_args_list == [mock.call(path, "rb")]
        assert loaded.flags.writeable and loaded.tobytes() == matrix.tobytes()

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
        loaded = load_distance_matrix(path, save_distance_matrix(matrix, path), 3)
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


# Q, two bits below the width of the integer type the certificate decides in, and that type.
_TYPES = {14: np.int16, 30: np.int32}


def _quantized(deaths, q, e):
    """Deaths scaled by 2^(q - e) and truncated to integers, exactly, as the module docstring quantizes them."""
    return [math.floor(Fraction(float(x)) * Fraction(2) ** (q - e)) for x in deaths]


def _sides(a, b, q):
    """Both sides' certificate terms at Q = q and a scratch for them, built as ``_fill_upper`` builds them:
    (deaths, deaths >> 1, rise, floor) and (deaths, deaths >> 1), on the deaths scaled by 2^(q - e),
    2^(e-1) <= the largest death < 2^e, and truncated to integers."""
    e = math.frexp(max(a.max(initial=0.0), b.max(initial=0.0)))[1]
    ints_a, ints_b = (np.ldexp(x, q - e).astype(_TYPES[q]) for x in (a, b))
    rise = np.diff(ints_a, axis=0, append=ints_a[-1:])
    scratch = [*np.empty((3,) + b.shape, _TYPES[q])]
    return (ints_a, ints_a >> 1, rise[:-1], np.negative(rise)), (ints_b, ints_b >> 1), scratch


def _margin(width, q):
    """The margin the module docstring gives the certificate at Q = q: 4n + 4 + ceil(14 n^2 2^(q - 53)) LSBs."""
    return 4 * width + 4 + math.ceil(14 * width**2 * Fraction(2) ** (q - 53))


def _assert_margin_leaves_the_proof_its_gap(margin, width, q):
    """A computed gap at or above ``margin``, less than 4n + 4 LSBs from G, leaves G > 14 n^2 2^(q - 53) LSBs."""
    assert margin - (4 * width + 4) >= 14 * width**2 * Fraction(2) ** (q - 53)


def _assert_gap_is_exact_or_one_below(side_a, side_b, scratch, exact, certificate=metric._sorted_certificate):
    """The certificate's gap for one pair is an integer in [exact - 1, exact]: it settles the pair at the
    margin ceil(exact - 1) and not at floor(exact) + 1. (The default is the certificate itself, even where
    a test has patched it.)"""
    assert certificate(side_a, side_b, math.ceil(exact - 1), scratch).all()
    assert not certificate(side_a, side_b, math.floor(exact) + 1, scratch).any()


def _q(dtype):
    return np.iinfo(dtype).bits - 2


def _deciding_at(q):
    """A certificate on which only the type of Q = q settles pairs: the other type's runs are left unsettled."""
    certificate = metric._sorted_certificate

    def deciding(a, b, margin, scratch):
        settled = certificate(a, b, margin, scratch)
        return settled if _q(a[0].dtype) == q else np.zeros_like(settled)

    return deciding


def _settle_all(a, b, margin, scratch):
    """A certificate that settles every pair: each entry is then the sorted path's cost."""
    return np.ones(scratch[0].shape[1:], dtype=bool)


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


def _cleveland_shaped_deaths(tmp_path, vector):
    """The deaths of the tests' 297-row Cleveland-shaped table under the default or the zero symmetry vector."""
    path = tmp_path / "synth.csv"
    path.write_text("\n".join(synthetic_cleveland_rows()) + "\n", encoding="utf-8")
    raw, _ = parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
    encoded = one_hot_encode(raw)
    weights = default_symmetry_vector(encoded.m) if vector == "default" else np.zeros(encoded.m)
    broken = symmetry_break(standardize(encoded, fit_standardizer(encoded)), weights)
    return dim0_diagrams(broken.values, safety=1.1)[0]


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
    nudged by up to 64 units of 2^-21 or of 2^-27 (about an int32 LSB of the largest death): gaps on
    either side of the certificate's margins."""
    n, width = draw(st.integers(2, max_rows)), draw(st.integers(1, max_width))
    grid = draw(st.lists(st.integers(0, 16), min_size=n * width, max_size=n * width))
    nudge = draw(st.lists(st.integers(-64, 64), min_size=n * width, max_size=n * width))
    deaths = np.array(grid) / 2 + np.array(nudge) * draw(st.sampled_from([2.0**-21, 2.0**-27]))
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
        # a settled pair's exact gap is above 14 n^2 2^(e - 53), and its entry is the programme's
        n, width = deaths.shape
        out = np.zeros((n, n))
        _fill_upper_without_programme(deaths, out)
        rows, cols = np.triu_indices(n, k=1)
        settled = ~np.isnan(out[rows, cols])
        assert np.array_equal(_bits(out[rows, cols][settled]), _bits(_programme(deaths)[settled]))
        if width == 1 and (deaths == deaths[0]).all():
            return  # one shared cap, skipped: no gap term is left, and every cost is +0
        least = 14 * width**2 * Fraction(2) ** (math.frexp(deaths.max())[1] - 53)
        assert all(canonical_gap(deaths[i], deaths[j]) > least for i, j in zip(rows[settled], cols[settled]))

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
        # each pair _fill_upper meets is decided on its deaths truncated at the scale 2^(q - e); their exact gap
        # G_q is within 4n + 3 LSBs of the exact G of any deaths that truncate to them, the computed gap is G_q
        # or up to 1 below it, and the margin above that leaves the proof its gap
        n, width = deaths.shape
        assume(width)
        e = math.frexp(deaths.max())[1]
        certificate, visited, truncating = metric._sorted_certificate, [], {}
        gap_of = functools.cache(lambda a, b: canonical_gap(a, b))  # pairs recur across types and runs

        def each_pair(a, b, margin, scratch):
            q, cols = _q(a[0].dtype), len(a[0])
            _assert_margin_leaves_the_proof_its_gap(margin, width, q)
            if q not in truncating:  # each row's quantized deaths -> the rows that truncate to them
                truncating[q] = {}
                for row in deaths[:, :cols].tolist():
                    truncating[q].setdefault(tuple(_quantized(row, q, e)), []).append(tuple(row))
            for offset, row in np.ndindex(scratch[0].shape[1:]):
                one_a = [term[:, :, row : row + 1] for term in a]
                one_b = [term[:, offset : offset + 1, row : row + 1] for term in b]
                one_scratch = [buffer[:, :1, :1] for buffer in scratch]
                visited.append((offset, row))
                if not cols:
                    continue  # a shared cap alone: no gap terms
                ints_a, ints_b = tuple(one_a[0].ravel().tolist()), tuple(one_b[0].ravel().tolist())
                exact = gap_of(ints_a, ints_b)
                _assert_gap_is_exact_or_one_below(one_a, one_b, one_scratch, exact)
                for float_a in truncating[q][ints_a]:
                    for float_b in truncating[q][ints_b]:
                        assert abs(exact - gap_of(float_a, float_b) * Fraction(2) ** (q - e)) < 4 * cols + 3
            settled = certificate(a, b, margin, scratch)
            return settled & (q != 14 or not int16_declines)

        with mock.patch.object(metric, "_sorted_certificate", each_pair):
            # the reversed rows meet each pair in the other orientation, as wrapped pairs reach it; with int16
            # declining every pair, int32 decides them all
            for int16_declines in (False, True):
                for matrix in (deaths, deaths[::-1]):
                    _fill_upper_without_programme(matrix, np.zeros((n, n)))
        assert len(visited) >= 3 * n * (n - 1)  # where int16 declines, int32 meets every pair too

    @settings(max_examples=200, deadline=None)
    @given(_deaths_matrices(), st.sampled_from(sorted(_TYPES)))
    @example(np.array([[1.0], [3.0]]), 14)
    def test_computed_gap_is_the_exact_gap_of_the_quantized_deaths_or_one_below(self, deaths, q):
        # subtract, abs, clamp, prefix sum, min and max are exact in integers; each floored half lowers
        # its gap term by at most half an LSB
        n, width = deaths.shape
        assume(width)
        for i, j in permutations(range(n), 2):
            side_a, side_b, scratch = _sides(deaths[i][:, None], deaths[j][:, None], q)
            exact = canonical_gap(side_a[0].ravel().tolist(), side_b[0].ravel().tolist())
            _assert_gap_is_exact_or_one_below(side_a, side_b, scratch, exact)

    @pytest.mark.parametrize("q", sorted(_TYPES))
    def test_no_value_wraps_at_the_extremes(self, q):
        # 1,024 deaths of 0 and of just under 2^e drive f, the prefix sums and the gap terms to the ends
        # of the ranges the module docstring states; subnormal deaths, all-zero rows, widths 0 and 1
        top = math.ldexp(1 - 2.0**-53, 3)
        rng = np.random.default_rng(11)
        wide = [
            np.zeros(1024),
            np.full(1024, top),
            np.r_[np.zeros(1023), top],
            np.r_[0.0, np.full(1023, top)],
            *np.sort(rng.choice([0.0, top], (3, 1024)), axis=1),
            np.sort(rng.uniform(0.0, top, 1024)),
        ]
        subnormal = [*np.sort(rng.integers(0, 2**20, (3, 40)) * 5e-324, axis=1)]
        narrow = [[np.zeros(0)] * 2, [np.array([0.0]), np.array([top])], [np.zeros(5)] * 2]
        for group in (wide, subnormal, *narrow):
            for a, b in permutations(group, 2):
                side_a, side_b, scratch = _sides(a[:, None], b[:, None], q)
                if not len(a):  # no gap terms: the extremes keep their initial values, the ends of the type
                    span = np.iinfo(_TYPES[q]).max - np.iinfo(_TYPES[q]).min
                    _assert_gap_is_exact_or_one_below(side_a, side_b, scratch, span)
                    assert metric._sorted_certificate(side_a, side_b, span, scratch).all()
                    continue
                exact = canonical_gap(side_a[0].ravel().tolist(), side_b[0].ravel().tolist())
                _assert_gap_is_exact_or_one_below(side_a, side_b, scratch, exact)
        for group in (wide, subnormal, *narrow):
            deaths = np.array(group)
            with mock.patch.object(metric, "_sorted_certificate", _deciding_at(q)):
                out = distance_matrix(deaths, 1.0)
            rows, cols = np.triu_indices(len(deaths), k=1)
            assert np.array_equal(_bits(out[rows, cols]), _bits(_programme(deaths)))

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_deaths_matrices(), _near_tie_matrices()))
    def test_int32_alone_settles_the_pairs_both_types_settle(self, deaths):
        # a pair that int16 settles, int32 settles too: the counts are int32's whichever type decided
        n = len(deaths)
        programmed = []
        for certificate in (metric._sorted_certificate, _deciding_at(30)):
            out = np.zeros((n, n))
            with mock.patch.object(metric, "_sorted_certificate", certificate):
                _fill_upper_without_programme(deaths, out)
            programmed.append(np.isnan(out))
        assert np.array_equal(*programmed)

    @pytest.mark.parametrize("vector", ["default", "zero"])
    def test_int32_alone_settles_the_same_pairs_on_cleveland_shaped_table(self, tmp_path, vector):
        deaths = _cleveland_shaped_deaths(tmp_path, vector)
        n = len(deaths)
        programmed = []
        for certificate in (metric._sorted_certificate, _deciding_at(30)):
            out = np.zeros((n, n))
            with mock.patch.object(metric, "_sorted_certificate", certificate):
                _fill_upper_without_programme(deaths, out)
            programmed.append(np.isnan(out))
        assert np.array_equal(*programmed)
        assert programmed[0].sum() == (0 if vector == "default" else n * (n - 1) // 2 - 12725)

    def test_int16_terms_freed_before_int32_builds_its_own(self, tmp_path):
        # under the zero vector int16 leaves the first run unsettled, so int32 decides every later run;
        # building int32's terms alone takes their bytes, so a smaller rise of the traced peak from
        # int16's first call to int32's means int16's terms were freed first
        deaths = _cleveland_shaped_deaths(tmp_path, "zero")
        n = len(deaths)
        certificate, first_call = metric._sorted_certificate, {}

        def recording(a, b, margin, scratch):
            q = _q(a[0].dtype)
            if q not in first_call:  # the traced memory and peak, and the bytes of the type's terms
                first_call[q] = (*tracemalloc.get_traced_memory(), sum(term.base.nbytes for term in a))
                tracemalloc.reset_peak()
            return certificate(a, b, margin, scratch)

        tracemalloc.start()
        try:
            with mock.patch.object(metric, "_sorted_certificate", recording):
                _fill_upper_without_programme(deaths, np.zeros((n, n)))
        finally:
            tracemalloc.stop()
        (traced, _, int16_terms), (_, peak, int32_terms) = first_call[14], first_call[30]
        assert int32_terms == 2 * int16_terms
        assert peak - traced < int32_terms - int16_terms // 2

    @pytest.mark.parametrize("q", sorted(_TYPES))
    @pytest.mark.parametrize(
        "b", [3.0, np.nextafter(3.0, np.inf), np.nextafter(3.0, -np.inf)], ids=["tie", "one-ulp-dearer", "one-ulp-cheaper"]
    )
    def test_near_ties_go_to_the_programme_at_either_type(self, b, q):
        # 1 against b: the sorted path costs b - 1, both deaths to the diagonal 1/2 + b/2; a gap of half
        # an ulp either way is far inside the margin of either type
        for a_side, b_side in (([[1.0]], [[b]]), ([[b]], [[1.0]])):
            side_a, side_b, scratch = _sides(np.array(a_side), np.array(b_side), q)
            assert not metric._sorted_certificate(side_a, side_b, _margin(1, q), scratch).any()
        with mock.patch.object(metric, "_sorted_certificate", _deciding_at(q)):
            assert _fill_upper_without_programme(np.array([[1.0], [b]]), np.zeros((2, 2))) == 1

    @pytest.mark.parametrize("width", [1, 26, 1024])
    def test_margin_leaves_the_proof_its_gap_at_any_width(self, width):
        # at 1,024 deaths per row int32's margin needs its n^2 term at 2
        certificate, margins = metric._sorted_certificate, []

        def recording(a, b, margin, scratch):
            margins.append((margin, _q(a[0].dtype)))
            return np.zeros_like(certificate(a, b, margin, scratch))  # every run goes on to int32

        deaths = np.sort(np.random.default_rng(0).random((2, width)), axis=1)
        with mock.patch.object(metric, "_sorted_certificate", recording):
            _fill_upper_without_programme(deaths, np.zeros((2, 2)))
        assert {q for _, q in margins} == set(_TYPES)
        for margin, q in margins:
            assert margin == _margin(width, q)
            _assert_margin_leaves_the_proof_its_gap(margin, width, q)

    def test_non_optimal_sorted_matching_rejected(self):
        # sorted: |1 - 10| + |10 - 30| = 29; optimal: 10 with 10, 1/2 + 30/2 = 15.5
        a, b = np.array([[1.0], [10.0]]), np.array([[10.0], [30.0]])
        for q in _TYPES:
            side_a, side_b, scratch = _sides(a, b, q)
            assert not metric._sorted_certificate(side_a, side_b, 0, scratch)[0]
        out = np.zeros((2, 2))
        with mock.patch.object(metric, "_sorted_certificate", _settle_all):
            metric._fill_upper(np.array([[1.0, 10.0], [10.0, 30.0]]), 1.0, out)
        assert out[0, 1] == 29.0
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
        certificate, calls, outs = metric._sorted_certificate, [], []

        def at_capped_margin(a, b, given_margin, scratch):
            margin = _margin(width + 1, _q(a[0].dtype))
            calls[-1].append((len(a[0]), given_margin == margin))  # death columns, the capped margin
            return certificate(a, b, margin, scratch)

        with mock.patch.object(metric, "_sorted_certificate", at_capped_margin):
            for matrix in (capped, deaths):
                calls.append([])
                outs.append(np.zeros((n, n)))
                _fill_upper_without_programme(matrix, outs[-1])
        assert all(call == (width, True) for call in calls[0])  # the cap never reaches the certificate
        rows, cols = np.triu_indices(n, k=1)  # NaN where programmed, in both runs alike
        assert np.array_equal(_bits(outs[0][rows, cols]), _bits(outs[1][rows, cols]))

    @pytest.mark.parametrize("top", [1e-300, 1.0, 1e300, np.finfo(np.float64).max])
    def test_extreme_deaths_are_scaled_not_overflowed(self, top):
        # rows spanning 300 decades below top: cast unscaled, the large deaths wrap and the small truncate
        # to 0; every pair whose exact gap is a thousandth of the largest death must still settle
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
        deaths = np.array([[0.0, 0.0] + [0.75] * 14, [0.75, 0.75] + [0.75 + tiny] * 14])
        out = np.zeros((2, 2))
        with mock.patch.object(metric, "_sorted_certificate", _settle_all):
            # offset 1 of two rows meets the pair in both orientations: two pairs, k is the block's outer axis
            assert metric._fill_upper(deaths, 1.0, out) == 0
        terms = np.abs(deaths[0] - deaths[1])
        in_order = 0.0
        for term in terms:
            in_order += term
        assert np.sum(terms) != in_order  # the two orders round differently here
        assert _bits(out[0, 1]) == _bits(in_order)

    def test_a_numpy_that_sums_out_of_path_order_is_refused(self):
        # the probe's planted column, 2^53 then fifteen 1.0s, sums to 2^53 in path order and to more pairwise
        planted = np.vstack([[2.0**53] * 2, np.ones((15, 2))])
        assert metric._path_order() and (np.add.reduce(planted, axis=0) == 2.0**53).all()
        assert (np.add.reduce(np.asfortranarray(planted), axis=0) > 2.0**53).all()  # contiguous k: pairwise
        with mock.patch.object(metric, "_path_order", lambda: False):
            with pytest.raises(ContractError, match="path order"):
                distance_matrix([[1.0], [2.0]], 1.0)
            assert distance_matrix([[1.0], [2.0]], 2.0)[0, 1] == 1.0  # the programme sums its own costs

    def test_the_path_order_probe_runs_once_and_not_at_import(self):
        # a first reduction adds RSS, so a process that never fills at p = 1 never runs the probe
        probe = metric._path_order
        probe.cache_clear()
        distance_matrix([[1.0], [2.0]], 2.0)
        assert probe.cache_info().misses == 0
        distance_matrix([[1.0], [2.0]], 1.0)
        distance_matrix([[1.0], [3.0]], 1.0)
        assert probe.cache_info().misses == 1 and probe.cache_info().hits == 1

    def test_every_certificate_call_holds_two_pairs(self):
        # a block's cost has the shape of its certificate calls: a lone pair would reduce over a contiguous
        # k axis, pairwise, not in path order
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
        deaths = _cleveland_shaped_deaths(tmp_path, "default")
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
            pytest.param("zero", 1.0, 130709, (1000, 20), id="zero-1.0-130709-980-rows"),
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
