"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria that need the
real Cleveland table (statistical reproduction, and the real-data variant
of the performance budget) skip with an explanatory reason when
data/processed.cleveland.data is absent; scripts/fetch_cleveland.py
downloads it. Performance and determinism are exercised on synthetic data
with the exact Cleveland shape (297 kept rows, 26-point clouds in 25
dimensions), which is computationally identical.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topmix.classify import knn_grid
from topmix.errors import FitError
from topmix.evaluate import SplitSpec, evaluate_split, select_k_kfold, split_groups
from topmix.ingest import RawDataset, parse_dataset
from topmix.metric import distance_matrix
from topmix.persistence import PersistenceDiagram, dim0_diagrams
from topmix.pipeline import load_experiment_config, run_pipeline
from topmix.preprocess import (
    FeatureMatrix,
    default_symmetry_vector,
    fit_standardizer,
    one_hot_encode,
    standardize,
    symmetry_break,
)
from topmix.schema import Attribute, PositiveRule, SchemaSpec, load_schema

from conftest import (
    CLEVELAND_DATA,
    CLEVELAND_SCHEMA,
    requires_cleveland,
    synthetic_cleveland_rows,
    write_config,
)
from oracles import brute_wasserstein, build_point_cloud, euclidean_distances, sweep_dim0_pairs, wasserstein


def _ok(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


def _pairs(deaths) -> list[tuple[float, float]]:
    """A row of ascending deaths as its diagram's (birth, death) pairs."""
    return [(0.0, d) for d in deaths.tolist()]


def _random_diagram(rng, max_points: int, cap: float) -> PersistenceDiagram:
    return _diagram_with(rng, int(rng.integers(0, max_points + 1)), cap)


def _diagram_with(rng, n: int, cap: float) -> PersistenceDiagram:
    births = rng.uniform(0, cap / 2, size=n)
    deaths = births + rng.uniform(0, cap / 2, size=n)
    pairs = np.column_stack([births, deaths]) if n else np.zeros((0, 2))
    return PersistenceDiagram(pairs, maxscale=cap)


# -- criterion 1: worked-example golden tests (exact) ------------------------


def test_c1a_two_point_diagram_exact():
    (deaths,), _ = dim0_diagrams(np.array([[1.0]]), maxscale=5.0)
    assert _pairs(deaths) == [(0.0, 1.0), (0.0, 5.0)]
    (deaths,), cap = dim0_diagrams(np.array([[6.0, 8.0]]), safety=1.1)
    assert cap == 1.1 * 10.0
    assert _pairs(deaths) == [(0.0, 6.0), (0.0, 8.0), (0.0, cap)]
    _ok("1a", "cloud of x=(1) at cap 5 gives (0,1),(0,5); x=(6,8) gives deaths [6, 8, 1.1*10] exactly")


def test_c1b_mirrored_rows_distance_multisets():
    def multiset(x):
        dist = euclidean_distances(build_point_cloud(np.asarray(x, dtype=float)))
        return sorted(dist[np.triu_indices(len(x) + 1, k=1)].tolist())

    before_x, before_y = multiset([1, 2]), multiset([2, 1])
    expected = [1.0, 2.0, math.sqrt(5.0)]
    for got in (before_x, before_y):
        assert all(math.isclose(g, e, rel_tol=1e-12) for g, e in zip(got, expected))
    after_x, after_y = multiset([6, 8]), multiset([7, 7])
    for got, expected in (
        (after_x, [6.0, 8.0, 10.0]),
        (after_y, [7.0, 7.0, 7.0 * math.sqrt(2.0)]),
    ):
        assert all(math.isclose(g, e, rel_tol=1e-12) for g, e in zip(got, expected))
    assert after_x != after_y
    _ok("1b", "mirrored rows share {1,2,sqrt5}; offset rows split to {6,8,10} vs {7,7,7sqrt2}")


def test_c1c_cleveland_encoding_width(tmp_path):
    path = tmp_path / "synth.csv"
    path.write_text("\n".join(synthetic_cleveland_rows(40, 0)) + "\n", encoding="utf-8")
    raw, _ = parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
    encoded = one_hot_encode(raw)
    assert encoded.m == 25
    cloud = build_point_cloud(encoded.values[0])
    assert cloud.shape == (26, 25)
    _ok("1c", "13 attributes encode to 25 columns; clouds are 26 points in R^25")


def test_c1d_holdout_sizes_at_297():
    labels = np.array([0] * 160 + [1] * 137)
    for seed in range(10):
        assert np.bincount(split_groups(labels, SplitSpec(seed=seed))).tolist() == [179, 59, 59]
    _ok("1d", "60:20:20 split of 297 rows is 179/59/59 for 10 seeds")


# -- criterion 2: oracle equivalence (exhaustive, exact) ---------------------


def test_c2a_dim0_matches_sweep_oracle_500_clouds():
    rng = np.random.default_rng(101)
    for case in range(500):
        m = int(rng.integers(1, 10))
        x = rng.uniform(-10, 10, size=m)
        if rng.random() < 0.15:
            x[rng.integers(0, m)] = 0.0  # a coordinate whose projection is x itself
        if rng.random() < 0.15 and m >= 2:
            x[1] = -x[0]  # tied magnitudes
        dist = euclidean_distances(build_point_cloud(x))
        cap = float(dist.max()) * 1.1 + 0.25
        (deaths,), _ = dim0_diagrams(x[None, :], maxscale=cap)
        assert _pairs(deaths) == sweep_dim0_pairs(dist, cap), f"case {case}"
    _ok("2a", "500 random projection clouds of <=10 points: closed form == threshold-sweep oracle")


def test_c2b_wasserstein_matches_brute_force_500_pairs():
    rng = np.random.default_rng(102)
    cap = 10.0
    for case in range(500):
        d1 = _diagram_with(rng, int(rng.integers(0, 4)), cap)
        d2 = _diagram_with(rng, int(rng.integers(0, 4)), cap)
        p = float(rng.choice([1.0, 2.0, 3.0]))
        got = wasserstein(d1, d2, p)
        want = brute_wasserstein(d1.pairs, d2.pairs, p)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15), f"case {case}"
    _ok("2b", "500 random diagram pairs of <=6 points: assignment == bijection enumeration")


# -- criterion 3: randomized property suites (>=1000 cases each) -------------


def test_c3_one_hot_block_sums_1000():
    rng = np.random.default_rng(103)
    for _ in range(1000):
        n_cat = int(rng.integers(1, 4))
        n_num = int(rng.integers(0, 3))
        attributes = []
        for a in range(n_cat):
            size = int(rng.integers(2, 6))
            attributes.append(Attribute(f"c{a}", "categorical", tuple(f"t{v}" for v in range(size))))
        attributes += [Attribute(f"n{a}", "numeric") for a in range(n_num)]
        schema = SchemaSpec(
            attributes=tuple(attributes),
            target="y",
            positive_rule=PositiveRule(kind="greater-than"),
        )
        n = int(rng.integers(1, 12))
        rows = []
        for _ in range(n):
            row = []
            for attr in schema.attributes:
                if attr.kind == "categorical":
                    row.append(attr.domain.index(str(rng.choice(attr.domain))))
                else:
                    row.append(float(rng.normal()))
            rows.append(tuple(row))
        columns = tuple(
            np.array(column, dtype=np.intp if attr.kind == "categorical" else np.float64)
            for attr, column in zip(schema.attributes, zip(*rows))
        )
        raw = RawDataset(schema=schema, columns=columns, labels=np.zeros(n, dtype=np.int64))
        encoded = one_hot_encode(raw)
        col = 0
        for attr in schema.attributes:
            if attr.kind == "categorical":
                block = encoded.values[:, col : col + attr.width]
                assert (block.sum(axis=1) == 1.0).all()
            col += attr.width
    _ok("3.one-hot", "1000 random schemas: every categorical block sums to exactly 1 per row")


def test_c3_standardization_moments_1000():
    rng = np.random.default_rng(104)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 8))
        values = rng.uniform(-100, 100, size=(n, m))
        matrix = FeatureMatrix(
            values=values,
            column_names=tuple(f"c{j}" for j in range(m)),
            labels=np.zeros(n, dtype=np.int64),
            stage="encoded",
        )
        try:
            out = standardize(matrix, fit_standardizer(matrix))
        except FitError:
            continue
        assert np.abs(out.values.mean(axis=0)).max() <= 1e-9
        assert np.abs(out.values.std(axis=0) - 1.0).max() <= 1e-9
        checked += 1
    _ok("3.standardize", "1000 random matrices: fit-set moments within 1e-9 of (0, 1)")


def test_c3_projection_idempotence_1000():
    rng = np.random.default_rng(105)
    for _ in range(1000):
        m = int(rng.integers(1, 30))
        x = rng.uniform(-1e6, 1e6, size=m)
        i = int(rng.integers(1, m + 1))
        once = build_point_cloud(x)[i]  # p_i(x)
        assert np.array_equal(build_point_cloud(once)[i], once)
    _ok("3.projection", "1000 random vectors: zeroing a coordinate is idempotent")


def test_c3_diagram_permutation_isometry_invariance_1000():
    # permuting coordinates or flipping their signs moves the projection
    # cloud rigidly, so the diagram must not change in any bit
    rng = np.random.default_rng(106)
    for _ in range(1000):
        m = int(rng.integers(1, 8))
        x = rng.normal(size=m)
        moved = x[rng.permutation(m)] * rng.choice([-1.0, 1.0], size=m)
        (base, iso), cap = dim0_diagrams(np.vstack([x, moved]), safety=2.0)
        assert np.array_equal(base.view(np.uint64), iso.view(np.uint64))
        assert cap == 2.0 * euclidean_distances(build_point_cloud(x)).max()
        assert _pairs(base) == sweep_dim0_pairs(
            euclidean_distances(build_point_cloud(moved)), cap
        )
    _ok("3.invariance", "1000 rows: coordinate permutations and sign flips leave the diagram bit-identical")


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)


@st.composite
def _feature_rows(draw, max_rows=8, max_width=8):
    """Feature rows: continuous values, or values on a coarse grid (tied
    magnitudes, zeros and mirrored signs), as under the zero symmetry vector."""
    n, m = draw(st.integers(1, max_rows)), draw(st.integers(1, max_width))
    cells = draw(st.lists(st.floats(-50.0, 50.0), min_size=n * m, max_size=n * m))
    rows = np.array(cells).reshape(n, m)
    return np.round(rows) / 2 if draw(st.booleans()) else rows


@settings(max_examples=300, deadline=None)
@given(_feature_rows(), st.randoms())
def test_c3_invariance_property_coordinates(rows, random):
    # each row gets its own coordinate permutation and sign flips
    moved = rows.copy()
    for i in range(rows.shape[0]):
        order = list(range(rows.shape[1]))
        random.shuffle(order)
        moved[i] = rows[i, order] * [random.choice([-1.0, 1.0]) for _ in order]
    (base, base_cap), (iso, iso_cap) = dim0_diagrams(rows), dim0_diagrams(moved)
    assert np.array_equal(_bits(base), _bits(iso))
    assert base_cap == iso_cap


@settings(max_examples=300, deadline=None)
@given(_feature_rows(), st.sampled_from([1.0, 1.5, 2.0]), st.randoms())
def test_c3_invariance_property_rows(rows, p, random):
    # permuting the rows permutes the distance matrix, bit for bit
    order = list(range(rows.shape[0]))
    random.shuffle(order)
    out = distance_matrix(dim0_diagrams(rows)[0], p)
    moved = distance_matrix(dim0_diagrams(rows[order])[0], p)
    assert np.array_equal(_bits(moved), _bits(out[np.ix_(order, order)]))


def test_c3_wasserstein_symmetry_and_triangle_1000():
    rng = np.random.default_rng(107)
    cap = 10.0
    for _ in range(1000):
        a, b, c = (_random_diagram(rng, 4, cap) for _ in range(3))
        p = float(rng.choice([1.0, 2.0]))
        ab, ba = wasserstein(a, b, p), wasserstein(b, a, p)
        assert ab == ba  # exact, bit for bit
        assert wasserstein(a, c, p) <= ab + wasserstein(b, c, p) + 1e-9
    _ok("3.metric", "1000 diagram triples: symmetry exact, triangle within 1e-9 slack")


def test_c3_essential_pair_cancellation_1000():
    rng = np.random.default_rng(108)
    cap = 10.0
    for _ in range(1000):
        d1, d2 = _random_diagram(rng, 4, cap), _random_diagram(rng, 4, cap)
        base = wasserstein(d1, d2, 1.0)
        e1 = PersistenceDiagram(np.vstack([d1.pairs, [[0.0, cap]]]), maxscale=cap)
        e2 = PersistenceDiagram(np.vstack([d2.pairs, [[0.0, cap]]]), maxscale=cap)
        assert wasserstein(e1, e2, 1.0) == base
    _ok("3.essential", "1000 pairs: appending (0, cap) to both diagrams changes nothing, exactly")


def _vote(candidates, dist, labels, k) -> int:
    """The prediction for row 0 at one k."""
    return int(knn_grid([0], dist, labels, [k], np.isin(np.arange(len(dist)), candidates))[1][0, 0])


def test_c3_knn_monotone_invariance_1000():
    rng = np.random.default_rng(109)
    nonlinear = (np.sqrt, lambda d: d**3, np.cbrt)
    cases = 0
    while cases < 1000:
        n = int(rng.integers(6, 15))
        raw = rng.uniform(0.05, 9.0, size=(n, n))
        dist = (raw + raw.T) / 2
        np.fill_diagonal(dist, 0.0)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        candidates = np.arange(1, n)
        # odd k: any strictly increasing transform; even k: affine transforms
        # (the summed-distance majority tie-break is affine-compatible)
        k_odd = int(rng.choice([1, 3, 5]))
        f = nonlinear[int(rng.integers(0, len(nonlinear)))]
        assert _vote(candidates, dist, labels, k_odd) == _vote(candidates, f(dist), labels, k_odd)
        k_any = int(rng.integers(1, min(7, n)))
        affine = 2.5 * dist + 0.75 * (dist > 0)
        assert _vote(candidates, dist, labels, k_any) == _vote(candidates, affine, labels, k_any)
        cases += 1
    _ok("3.knn", "1000 cases: predictions invariant under order-preserving distance transforms")


# -- criterion 4: experiment reproduction (statistical, real data) -----------


@pytest.fixture(scope="module")
def cleveland_distances():
    """Diagrams + 1-Wasserstein matrix for the real 297-row Cleveland table."""
    if not CLEVELAND_DATA.exists():
        pytest.skip("real Cleveland data not present; run scripts/fetch_cleveland.py")
    raw, report = parse_dataset(CLEVELAND_DATA, load_schema(CLEVELAND_SCHEMA))
    assert (report.total_rows, raw.n) == (303, 297)
    encoded = one_hot_encode(raw)
    broken = symmetry_break(
        standardize(encoded, fit_standardizer(encoded)),
        default_symmetry_vector(encoded.m),
    )
    deaths, _ = dim0_diagrams(broken.values, safety=1.1)
    distances = distance_matrix(deaths, p=1.0)
    return distances, broken.labels


@requires_cleveland
def test_c4a_kfold_accuracy_window(cleveland_distances):
    distances, labels = cleveland_distances
    in_window = 0
    accuracies = []
    for seed in range(10):
        report = select_k_kfold(distances, labels, SplitSpec(mode="kfold", folds=10, seed=seed), [16])[1]
        accuracies.append(report.accuracy)
        if 77.0 <= report.accuracy <= 88.0:
            in_window += 1
    assert in_window >= 8, f"only {in_window}/10 seeds in [77, 88]: {accuracies}"
    _ok("4a", f"10-fold CV (k=16): {in_window}/10 seeds in [77%, 88%], accuracies {['%.2f' % a for a in accuracies]}")


@pytest.fixture(scope="module")
def cleveland_holdout_sweep(cleveland_distances):
    distances, labels = cleveland_distances
    results = [
        evaluate_split(distances, labels, SplitSpec(seed=seed), k_grid=range(1, 11))
        for seed in range(20)
    ]
    return results


@requires_cleveland
def test_c4b_holdout_accuracy_window(cleveland_holdout_sweep):
    accuracies = [r.test_report.accuracy for r in cleveland_holdout_sweep]
    mean = float(np.mean(accuracies))
    best = max(accuracies)
    assert 76.0 <= mean <= 90.0, f"mean test accuracy {mean:.2f} outside [76, 90]"
    assert best >= 86.0, f"no seed reached 86% (best {best:.2f})"
    _ok("4b", f"20 hold-out seeds: mean test accuracy {mean:.2f}%, best {best:.2f}%")


@requires_cleveland
def test_c4c_selected_k_exceeds_1(cleveland_holdout_sweep):
    ks = [r.chosen_k for r in cleveland_holdout_sweep]
    at_least_2 = sum(1 for k in ks if k >= 2)
    assert at_least_2 >= 15, f"chosen k >= 2 for only {at_least_2}/20 seeds: {ks}"
    _ok("4c", f"validation-selected k >= 2 for {at_least_2}/20 seeds (k values {ks})")


# -- criterion 5: performance at desk scale ----------------------------------


def test_c5_desk_scale_performance(tmp_path):
    if CLEVELAND_DATA.exists():
        data_path, label = CLEVELAND_DATA, "real Cleveland table"
    else:
        data_path = tmp_path / "synth.csv"
        data_path.write_text(
            "\n".join(synthetic_cleveland_rows(303, 6)) + "\n", encoding="utf-8"
        )
        label = "synthetic table with the Cleveland shape (303 rows, 6 incomplete)"
    cfg = write_config(
        tmp_path / "cfg.json",
        data=str(data_path),
        schema=str(CLEVELAND_SCHEMA),
        cache_dir=str(tmp_path / "cache"),
        out_dir=str(tmp_path / "out"),
    )
    start = time.perf_counter()
    result = run_pipeline(load_experiment_config(cfg))
    cold = time.perf_counter() - start
    assert result.distances.shape == (297, 297)
    assert result.diagram_set.deaths.shape == (297, 26)
    assert cold < 300.0, f"cold run took {cold:.1f}s"

    start = time.perf_counter()
    run_pipeline(load_experiment_config(cfg))
    warm = time.perf_counter() - start
    assert warm < 5.0, f"warm rerun took {warm:.1f}s"
    _ok("5", f"{label}: cold run {cold:.1f}s (< 300s), warm rerun {warm:.2f}s (< 5s)")


# -- criterion 6: determinism ------------------------------------------------


def test_c6_cold_runs_byte_identical(tmp_path):
    data_path = tmp_path / "synth.csv"
    data_path.write_text("\n".join(synthetic_cleveland_rows(70, 2)) + "\n", encoding="utf-8")

    def run(tag):
        cfg = write_config(
            tmp_path / f"cfg_{tag}.json",
            data=str(data_path),
            schema=str(CLEVELAND_SCHEMA),
            cache_dir=str(tmp_path / f"cache_{tag}"),
            out_dir=str(tmp_path / f"out_{tag}"),
            k_grid=[1, 3, 5],
        )
        run_pipeline(load_experiment_config(cfg))
        return tag

    run("a"), run("b")
    compared = 0
    for name in ("run_manifest.json", "report.txt", "report.kv", "predictions.csv", "validation.csv"):
        a = (tmp_path / "out_a" / name).read_bytes()
        b = (tmp_path / "out_b" / name).read_bytes()
        assert a == b, f"{name} differs between cold runs"
        compared += 1
    for name in ("diagrams.npy", "distances.npy", "diagrams.manifest.json", "distances.manifest.json"):
        a = (tmp_path / "cache_a" / name).read_bytes()
        b = (tmp_path / "cache_b" / name).read_bytes()
        assert a == b, f"{name} differs between cold runs"
        compared += 1
    _ok("6", f"two cold runs: {compared} artifact files byte-identical")
