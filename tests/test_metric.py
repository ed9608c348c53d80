import math

import numpy as np
import pytest

from topmix.errors import ContractError
from topmix.metric import (
    distance_matrix,
    load_distance_matrix,
    save_distance_matrix,
    wasserstein,
)
from topmix.persistence import PersistenceDiagram, dim0_diagrams

from oracles import brute_bottleneck, brute_wasserstein

CAP = 10.0


def _diag(pairs, cap=CAP):
    return PersistenceDiagram(np.asarray(pairs, dtype=np.float64).reshape(-1, 2), maxscale=cap)


def _random_diagram(rng, max_points=4, cap=CAP):
    n = int(rng.integers(0, max_points + 1))
    births = rng.uniform(0, cap / 2, size=n)
    deaths = births + rng.uniform(0, cap / 2, size=n)
    return _diag(np.column_stack([births, deaths]) if n else np.zeros((0, 2)), cap)


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
        (dx, dy), cap = dim0_diagrams(np.array([[6.0, 8.0], [7.0, 7.0]]), safety=1.1)
        assert cap == 1.1 * 10.0
        # finite deaths {6, 8} vs {7, 7}: optimal matching pays |6-7| + |8-7|
        w = wasserstein(dx, dy, 1.0)
        assert w == 2.0
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
        out = distance_matrix([_diag([[0.0, 1.0]])], 1.0)
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.0

    def test_duplicated_diagram(self):
        d = _diag([[0.0, 1.0], [0.0, 4.0]])
        out = distance_matrix([d, d], 1.0)
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_symmetric_zero_diagonal_and_spot_values(self):
        rng = np.random.default_rng(17)
        diagrams = [_random_diagram(rng) for _ in range(8)]
        out = distance_matrix(diagrams, 1.0)
        assert np.array_equal(out, out.T)
        assert np.array_equal(np.diag(out), np.zeros(8))
        for i, j in [(0, 3), (2, 7), (4, 5)]:
            assert out[i, j] == wasserstein(diagrams[i], diagrams[j], 1.0)

    def test_parallel_equals_serial(self):
        rng = np.random.default_rng(18)
        diagrams = [_random_diagram(rng, 5) for _ in range(12)]
        serial = distance_matrix(diagrams, 1.0, threads=1)
        parallel = distance_matrix(diagrams, 1.0, threads=3)
        assert np.array_equal(serial, parallel)

    def test_mixed_caps_rejected(self):
        with pytest.raises(ContractError):
            distance_matrix([_diag([[0.0, 1.0]], cap=5.0), _diag([[0.0, 1.0]], cap=6.0)], 1.0)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        diagrams = [_random_diagram(rng) for _ in range(5)]
        out = distance_matrix(diagrams, 1.0)
        path = tmp_path / "distances.csv"
        save_distance_matrix(out, path)
        assert np.array_equal(load_distance_matrix(path), out)
        first = path.read_bytes()
        save_distance_matrix(out, path)
        assert path.read_bytes() == first
