import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from topmix.errors import ContractError, FitError
from topmix.ingest import parse_dataset
from topmix.preprocess import (
    FeatureMatrix,
    StandardizationParams,
    default_symmetry_vector,
    fit_standardizer,
    one_hot_encode,
    standardize,
    symmetry_break,
)
from topmix.schema import Attribute, PositiveRule, SchemaSpec, load_schema

from conftest import CLEVELAND_SCHEMA, synthetic_cleveland_rows
from oracles import two_pass_mean_std


def _matrix(values, stage="encoded", names=None):
    values = np.asarray(values, dtype=np.float64)
    names = tuple(names or (f"c{j}" for j in range(values.shape[1])))
    return FeatureMatrix(
        values=values,
        column_names=names,
        labels=np.zeros(values.shape[0], dtype=np.int64),
        stage=stage,
    )


def _toy_raw(tmp_path, rows, attributes):
    schema = SchemaSpec(
        attributes=attributes,
        target="y",
        positive_rule=PositiveRule(kind="greater-than"),
    )
    path = tmp_path / "t.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    dataset, _ = parse_dataset(path, schema)
    return dataset


class TestOneHot:
    def test_three_level_domain(self, tmp_path):
        raw = _toy_raw(tmp_path, ["a,0", "c,1"], (Attribute("c", "categorical", ("a", "b", "c")),))
        encoded = one_hot_encode(raw)
        assert encoded.values.tolist() == [[1, 0, 0], [0, 0, 1]]
        assert encoded.column_names == ("c=a", "c=b", "c=c")
        assert encoded.stage == "encoded"

    def test_pure_numeric_is_identity(self, tmp_path):
        raw = _toy_raw(
            tmp_path,
            ["1.5,2.5,0", "3.0,4.0,1"],
            (Attribute("u", "numeric"), Attribute("v", "numeric")),
        )
        encoded = one_hot_encode(raw)
        assert encoded.values.tolist() == [[1.5, 2.5], [3.0, 4.0]]
        assert encoded.column_names == ("u", "v")

    def test_cleveland_width_and_block_sums(self, tmp_path):
        path = tmp_path / "synth.csv"
        path.write_text("\n".join(synthetic_cleveland_rows(50, 0)) + "\n", encoding="utf-8")
        raw, _ = parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
        encoded = one_hot_encode(raw)
        assert encoded.m == 25
        col = 0
        for attr in raw.schema.attributes:
            if attr.kind == "categorical":
                block = encoded.values[:, col : col + attr.width]
                assert np.array_equal(block.sum(axis=1), np.ones(encoded.n))
                assert set(np.unique(block)) <= {0.0, 1.0}
            col += attr.width

    def test_labels_carried_through(self, tmp_path):
        raw = _toy_raw(tmp_path, ["a,0", "b,3"], (Attribute("c", "categorical", ("a", "b")),))
        assert one_hot_encode(raw).labels.tolist() == [0, 1]


class TestStandardize:
    def test_two_symmetric_points(self):
        params = fit_standardizer(_matrix([[0.0], [2.0]]))
        assert params.mean.tolist() == [1.0]
        assert params.std.tolist() == [1.0]

    def test_constant_column_is_fit_error(self):
        with pytest.raises(FitError, match="c0"):
            fit_standardizer(_matrix([[1.0], [1.0], [1.0]]))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.normal(50, 12, size=(297, 4))
        params = fit_standardizer(_matrix(values))
        for j in range(4):
            mean, std = two_pass_mean_std(values[:, j])
            assert params.mean[j] == pytest.approx(mean, rel=1e-12)
            assert params.std[j] == pytest.approx(std, rel=1e-12)

    def test_direct_substitution(self):
        matrix = _matrix([[0.0], [2.0]])
        out = standardize(matrix, fit_standardizer(matrix))
        assert out.values.tolist() == [[-1.0], [1.0]]
        assert out.stage == "standardized"

    def test_fit_population_moments(self):
        rng = np.random.default_rng(11)
        matrix = _matrix(rng.uniform(-5, 9, size=(40, 6)))
        out = standardize(matrix, fit_standardizer(matrix))
        assert np.abs(out.values.mean(axis=0)).max() <= 1e-9
        assert np.abs(out.values.std(axis=0) - 1).max() <= 1e-9

    def test_train_fit_applied_to_holdout(self):
        rng = np.random.default_rng(12)
        matrix = _matrix(rng.normal(3, 2, size=(50, 3)))
        params = fit_standardizer(matrix, fit_rows=np.arange(30))
        out = standardize(matrix, params)
        held = out.values[30:]
        assert np.isfinite(held).all()
        # held-out moments are generally off-center
        assert np.abs(held.mean(axis=0)).max() > 1e-9

    def test_width_mismatch(self):
        params = fit_standardizer(_matrix([[0.0], [2.0]]))
        with pytest.raises(ContractError):
            standardize(_matrix([[0.0, 1.0], [2.0, 3.0]]), params)

    def test_empty_fit_rows_rejected(self):
        with pytest.raises(ContractError):
            fit_standardizer(_matrix([[0.0], [2.0]]), fit_rows=np.array([], dtype=int))


# Finite values over ~600 orders of magnitude (subnormals included), with repeats.
_WIDE = st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 1.0, 3.0, 1e-300])


@st.composite
def _wide_rows(draw, max_rows=30):
    """A float64 matrix of 1 to ``max_rows`` rows (one row included) and 1 to 5 columns."""
    n, m = draw(st.integers(1, max_rows)), draw(st.integers(1, 5))
    return np.array(draw(st.lists(st.lists(_WIDE, min_size=m, max_size=m), min_size=n, max_size=n)))


class TestBitIdentity:
    @settings(max_examples=300, deadline=None)
    @given(rows=_wide_rows(), data=st.data())
    def test_fit_is_numpys_mean_and_std_bit_for_bit(self, rows, data):
        # over the whole table or over fit_rows (repeats allowed)
        fit_rows = data.draw(st.none() | st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=40))
        fitted = rows if fit_rows is None else rows[fit_rows]
        mean, std = fitted.mean(axis=0), np.std(fitted, axis=0)
        matrix = _matrix(rows)
        if not (std > 0).all():  # one row, or a column constant over the fit rows
            names = [f"c{j}" for j in np.flatnonzero(~(std > 0))]
            with pytest.raises(FitError) as raised:
                fit_standardizer(matrix, fit_rows)
            assert str(raised.value) == f"constant column(s) over fit rows: {names}"
            return
        params = fit_standardizer(matrix, fit_rows)
        assert params.mean.tobytes() == mean.tobytes()
        assert params.std.tobytes() == std.tobytes()
        assert matrix.values.tobytes() == rows.tobytes()

    def test_single_row_std_is_zero_as_numpys(self):
        rows = np.array([[1e150, -3.0, 0.1]])
        assert not np.std(rows, axis=0).any()
        with pytest.raises(FitError, match=r"\['c0', 'c1', 'c2'\]"):
            fit_standardizer(_matrix(np.vstack([rows, rows + 1])), fit_rows=[1])

    @settings(max_examples=300, deadline=None)
    @given(rows=_wide_rows(), data=st.data())
    def test_standardize_is_subtract_then_divide_bit_for_bit(self, rows, data):
        m = rows.shape[1]
        mean = np.array(data.draw(st.lists(_WIDE, min_size=m, max_size=m)))
        std = np.array(data.draw(st.lists(st.floats(1e-100, 1e100) | st.just(1.0), min_size=m, max_size=m)))
        matrix = _matrix(rows)
        out = standardize(matrix, StandardizationParams(mean=mean, std=std))
        assert out.values.tobytes() == ((rows - mean) / std).tobytes()
        assert matrix.values.tobytes() == rows.tobytes()  # the input is not written


class TestSymmetryBreak:
    def test_worked_example(self):
        matrix = _matrix([[1.0, 2.0], [2.0, 1.0]], stage="standardized")
        out = symmetry_break(matrix, np.array([5.0, 6.0]))
        assert out.values.tolist() == [[6.0, 8.0], [7.0, 7.0]]
        assert out.stage == "symmetry-broken"

    def test_zero_vector_is_identity(self):
        matrix = _matrix([[1.0, 2.0]], stage="standardized")
        out = symmetry_break(matrix, np.zeros(2))
        assert np.array_equal(out.values, matrix.values)

    def test_length_mismatch(self):
        matrix = _matrix([[1.0, 2.0]], stage="standardized")
        with pytest.raises(ContractError):
            symmetry_break(matrix, np.zeros(3))

    def test_stage_guard_rejects_other_stages(self):
        for stage in ("encoded", "symmetry-broken"):
            with pytest.raises(ContractError, match=f"got stage {stage!r}"):
                symmetry_break(_matrix([[1.0, 2.0]], stage=stage), np.zeros(2))

    def test_subtraction_recovers_input_within_one_ulp(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((100, 25))
        matrix = _matrix(values, stage="standardized")
        vector = default_symmetry_vector(25)
        recovered = symmetry_break(matrix, vector).values - vector
        tolerance = np.spacing(np.maximum(np.abs(values), np.abs(values + vector)))
        assert (np.abs(recovered - values) <= tolerance).all()


class TestDefaultVector:
    def test_small_cases(self):
        assert default_symmetry_vector(2).tolist() == [5.0, 6.0]
        assert default_symmetry_vector(1).tolist() == [5.0]

    def test_arithmetic_sequence(self):
        v = default_symmetry_vector(25)
        assert v.shape == (25,)
        assert v[0] == 5.0 and v[-1] == 29.0
        assert np.array_equal(np.diff(v), np.ones(24))

    def test_zero_length_rejected(self):
        with pytest.raises(ContractError):
            default_symmetry_vector(0)


def test_pipeline_determinism_bit_identical(tmp_path):
    rows = synthetic_cleveland_rows(80, 0, seed=9)
    path = tmp_path / "d.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")

    def run():
        raw, _ = parse_dataset(path, load_schema(CLEVELAND_SCHEMA))
        encoded = one_hot_encode(raw)
        out = standardize(encoded, fit_standardizer(encoded))
        return symmetry_break(out, default_symmetry_vector(out.m)).values

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_feature_matrix_rejects_non_finite():
    with pytest.raises(ContractError):
        _matrix([[np.inf]])
