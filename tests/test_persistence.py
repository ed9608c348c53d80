import numpy as np
import pytest

from topmix.errors import ContractError
from topmix.pipeline import save_distance_matrix
from topmix.persistence import PersistenceDiagram, dim0_diagrams

from oracles import build_point_cloud, euclidean_distances, sweep_dim0_pairs


def _pairs(deaths):
    """A row of ascending deaths as its diagram's (birth, death) pairs."""
    return [(0.0, d) for d in deaths.tolist()]


def _diagram(row, maxscale=None, safety=1.1):
    deaths, _ = dim0_diagrams(np.asarray([row], dtype=np.float64), maxscale, safety)
    return deaths[0]


class TestWorkedExamples:
    def test_two_point_cloud_cap_five(self):
        # the cloud of x = (1) is the two points {1, 0}
        diagram = _diagram([1.0], maxscale=5.0)
        assert _pairs(diagram) == [(0.0, 1.0), (0.0, 5.0)]


class TestContracts:
    def test_maxscale_too_small(self):
        with pytest.raises(ContractError, match="maxscale too small"):
            _diagram([9.0, 0.0], maxscale=5.0)

    def test_non_positive_maxscale(self):
        with pytest.raises(ContractError):
            _diagram([0.0], maxscale=0.0)

    def test_zero_length_edges_are_legal(self):
        diagram = _diagram([0.0, 0.0], maxscale=2.0)
        assert _pairs(diagram) == [(0.0, 0.0), (0.0, 0.0), (0.0, 2.0)]

    def test_diagram_pair_ordering_is_invalid(self):
        with pytest.raises(ContractError):
            PersistenceDiagram(np.array([[2.0, 1.0]]), maxscale=5.0)
        with pytest.raises(ContractError):
            PersistenceDiagram(np.array([[0.0, 9.0]]), maxscale=5.0)


class TestStructure:
    def test_cardinality_and_cap(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(1, 11))
            rows = rng.normal(size=(3, m))
            deaths, cap = dim0_diagrams(rows, safety=1.5)
            assert deaths.shape == (3, m + 1)
            assert (deaths[:, -1] == cap).all()
            assert (np.diff(deaths, axis=1) >= 0).all()
            assert ((deaths == cap).sum(axis=1) == 1).all()

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=8)
        cap = float(np.abs(row).max()) + 1.0
        base = _diagram(row, cap)
        for _ in range(20):
            shuffled = _diagram(row[rng.permutation(8)], cap)
            assert np.array_equal(base, shuffled)

    def test_isometry_invariance(self):
        # flipping coordinate signs moves the cloud rigidly
        rng = np.random.default_rng(2)
        row = rng.normal(size=5)
        cap = 50.0
        base = _diagram(row, cap)
        for _ in range(20):
            flipped = _diagram(row * rng.choice([-1.0, 1.0], size=5), cap)
            assert np.array_equal(base, flipped)

    def test_monotone_scaling(self):
        rng = np.random.default_rng(3)
        row = rng.normal(size=6)
        cap = float(np.abs(row).max()) + 1.0
        lam = 3.25
        base = _diagram(row, cap)
        scaled = _diagram(row * lam, cap * lam)
        finite_base = base[base < cap]
        finite_scaled = scaled[scaled < cap * lam]
        assert finite_scaled == pytest.approx(finite_base * lam, rel=1e-12)

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(60):
            rows = rng.uniform(-5, 5, size=(int(rng.integers(1, 4)), int(rng.integers(1, 11))))
            deaths, cap = dim0_diagrams(rows)
            for row, diagram in zip(rows, deaths):
                assert _pairs(diagram) == sweep_dim0_pairs(euclidean_distances(build_point_cloud(row)), cap)


class TestChooseMaxscale:
    """The shared cap picked when the config sets no explicit maxscale."""

    def test_single_cloud_with_safety(self):
        _, cap = dim0_diagrams(np.array([[6.0, 8.0]]), safety=1.1)
        assert cap == pytest.approx(11.0, rel=1e-12)

    def test_max_over_clouds(self):
        _, cap = dim0_diagrams(np.array([[3.0], [-7.0]]), safety=1.0)
        assert cap == 7.0

    def test_empty_and_bad_safety(self):
        with pytest.raises(ContractError):
            dim0_diagrams(np.zeros((0, 3)))
        with pytest.raises(ContractError):
            dim0_diagrams(np.array([[1.0]]), safety=0.5)

    def test_degenerate_clouds_get_positive_cap(self):
        _, cap = dim0_diagrams(np.zeros((3, 2)), safety=1.25)
        assert cap == 1.25

    def test_guarantees_diagram_precondition(self):
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(10, 6))
        _, cap = dim0_diagrams(rows, safety=1.1)
        assert cap == pytest.approx(1.1 * max(euclidean_distances(build_point_cloud(r)).max() for r in rows), rel=1e-15)
        dim0_diagrams(rows, maxscale=cap)  # must not raise


def test_cap_rules_exact():
    # m = 1: the cloud {x, 0} has the single distance |x_1|
    _, cap = dim0_diagrams(np.array([[-2.0], [0.5]]), safety=1.5)
    assert cap == 1.5 * 2.0
    # all-zero rows: every cloud collapses, the cap is the safety factor
    deaths, cap = dim0_diagrams(np.zeros((2, 3)), safety=1.3)
    assert cap == 1.3
    assert all(_pairs(d) == [(0.0, 0.0)] * 3 + [(0.0, 1.3)] for d in deaths)
    # m >= 2: safety * sqrt(a1^2 + a2^2) over the two largest magnitudes
    _, cap = dim0_diagrams(np.array([[1.0, -8.0, 6.0], [7.0, 7.0, 0.0]]), safety=1.1)
    assert cap == 1.1 * 10.0
    # an explicit cap is used as given once it covers every |x_i|
    deaths, cap = dim0_diagrams(np.array([[1.0, -8.0]]), maxscale=8.0)
    assert cap == 8.0
    assert _pairs(deaths[0]) == [(0.0, 1.0), (0.0, 8.0), (0.0, 8.0)]
    with pytest.raises(ContractError, match="maxscale too small"):
        dim0_diagrams(np.array([[1.0, -8.0]]), maxscale=np.nextafter(8.0, 0.0))


def test_non_finite_input_rejected():
    with pytest.raises(ContractError, match="finite"):
        dim0_diagrams(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
def test_non_finite_cap_settings_rejected(value):
    # NaN passes every `<` test and an infinite cap leaves the essential pair at inf
    with pytest.raises(ContractError, match=f"safety factor must be finite and >= 1, got {value!r}"):
        dim0_diagrams(np.array([[1.0, 2.0]]), safety=value)
    with pytest.raises(ContractError, match=f"maxscale must be positive and finite, got {value!r}"):
        dim0_diagrams(np.array([[1.0, 2.0]]), maxscale=value)


@pytest.mark.parametrize("rows", [[[3.0, 4.0]], [[-3.0]]], ids=["two_coordinates", "one_coordinate"])
def test_overflowing_cap_rejected(rows):
    # 1e308 x 5 and 1e308 x 3 are inf in float64; the all-zero cap is the safety itself
    with pytest.raises(ContractError, match="maxscale overflows: safety factor 1e\\+308 times"):
        dim0_diagrams(np.array(rows), safety=1e308)
    assert dim0_diagrams(np.zeros((1, 2)), safety=1e308)[1] == 1e308
    assert dim0_diagrams(np.array([[0.5, 0.0]]), safety=1e308)[1] == 5e307


def test_sqrt_of_square_is_abs_bit_for_bit():
    # the premise that makes the closed form equal to a generic distance
    # computation: d(x, p_i(x)) = sqrt(x_i * x_i) rounds to exactly |x_i|
    rng = np.random.default_rng(20)
    x = rng.choice([-1.0, 1.0], size=10**6) * 10.0 ** rng.uniform(-100, 100, size=10**6)
    x[:1000] = 0.0
    x[1000:2000] = -0.0
    assert np.array_equal(
        np.sqrt(x * x).view(np.uint64), np.abs(x).view(np.uint64)
    )


def test_save_load_round_trip(tmp_path):
    # the diagram export: the deaths matrix in .npy format, bit-exact on reload
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(5, 4))
    deaths, _ = dim0_diagrams(rows, maxscale=40.0)
    path = tmp_path / "diagrams.npy"
    save_distance_matrix(deaths, path)
    loaded = np.load(path, allow_pickle=False)
    assert loaded.shape == (5, 5)
    assert np.array_equal(loaded.view(np.uint64), deaths.view(np.uint64))
