from itertools import product

import numpy as np
import pytest

from topmix.errors import ContractError, EvaluationError
from topmix.evaluate import (
    ConfusionCounts,
    EvaluationReport,
    SplitSpec,
    evaluate_split,
    format_report_kv,
    format_report_text,
    select_k_kfold,
    split_groups,
)
from topmix.classify import knn_grid
from topmix.metric import distance_matrix

import oracles
from oracles import PersistenceDiagram, wasserstein


def _folds(folds, seed=0, stratified=False):
    return SplitSpec(mode="kfold", folds=folds, seed=seed, stratified=stratified)


def _sets(labels, spec):
    """The rows of each group of ``split_groups``, in group order."""
    groups = split_groups(labels, spec)
    count = 3 if spec.mode == "holdout" else spec.folds
    return [np.flatnonzero(groups == g) for g in range(count)]


def _kfold(distances, labels, folds, k, seed=0):
    """The pooled k-fold report at one k."""
    return select_k_kfold(distances, labels, _folds(folds, seed), [k])


class TestHoldout:
    def test_sizes_179_59_59(self):
        labels = np.zeros(297, dtype=int)
        labels[150:] = 1
        for seed in range(5):
            train, val, test = _sets(labels, SplitSpec(seed=seed))
            assert (train.size, val.size, test.size) == (179, 59, 59)

    def test_partition_covers_and_disjoint(self):
        labels = np.zeros(100, dtype=int)
        train, val, test = _sets(labels, SplitSpec(seed=3))
        combined = np.concatenate([train, val, test])
        assert sorted(combined.tolist()) == list(range(100))

    def test_seed_determinism(self):
        labels = np.zeros(50, dtype=int)
        a = _sets(labels, SplitSpec(seed=9))
        b = _sets(labels, SplitSpec(seed=9))
        c = _sets(labels, SplitSpec(seed=10))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_stratified_preserves_class_fractions(self):
        labels = np.array([0] * 160 + [1] * 137)
        train, val, test = _sets(labels, SplitSpec(seed=0, stratified=True))
        assert (train.size, val.size, test.size) == (179, 59, 59)
        assert (labels[val] == 0).sum() == 32 and (labels[val] == 1).sum() == 27
        assert (labels[test] == 0).sum() == 32 and (labels[test] == 1).sum() == 27

    def test_fraction_validation(self):
        with pytest.raises(ContractError):
            SplitSpec(train_frac=0.5, val_frac=0.2, test_frac=0.2)

    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    @pytest.mark.parametrize("key", ["train_frac", "val_frac", "test_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_fraction_rejected(self, mode, key, value):
        # NaN fails every comparison, so the sum and sign checks alone let it through
        with pytest.raises(ContractError, match=f"^{key} must be finite, got {value!r}$"):
            SplitSpec(mode=mode, **{key: value})

    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    def test_negative_seed_rejected(self, mode):
        with pytest.raises(ContractError, match="^split seed must be >= 0, got -1$"):
            SplitSpec(mode=mode, seed=-1)


class TestKfold:
    def test_folds_partition_rows(self):
        labels = np.zeros(47, dtype=int)
        folds = _sets(labels, SplitSpec(mode="kfold", folds=10, seed=1))
        combined = np.concatenate(folds)
        assert sorted(combined.tolist()) == list(range(47))
        sizes = sorted(f.size for f in folds)
        assert sizes == [4] * 3 + [5] * 7

    def test_stratified_folds(self):
        labels = np.array([0] * 30 + [1] * 20)
        folds = _sets(labels, SplitSpec(mode="kfold", folds=5, seed=2, stratified=True))
        for fold in folds:
            assert (labels[fold] == 0).sum() == 6
            assert (labels[fold] == 1).sum() == 4

    @pytest.mark.parametrize("mode", ["holdout", "kfold"])
    def test_negative_label_rejected_when_stratified(self, mode):
        labels = np.array([0, 1, -1, 0, 1, 0])
        with pytest.raises(ContractError, match="^stratified labels must be non-negative$"):
            split_groups(labels, SplitSpec(mode=mode, folds=2, stratified=True))
        assert split_groups(labels, SplitSpec(mode=mode, folds=2)).shape == (6,)  # unstratified: never read

    def test_too_many_folds(self):
        with pytest.raises(EvaluationError, match="^cannot split 3 rows into 5 folds$"):
            split_groups(np.zeros(3, dtype=int), SplitSpec(mode="kfold", folds=5))

    def test_split_groups_match_index_oracles(self):
        # one draw of group ids makes the same RNG calls as the index-list
        # references, so every hold-out set and every fold is the same rows
        rng = np.random.default_rng(14)
        cases = 0
        for n in (2, 3, 4, 5, 9, 10, 11, 19, 20, 21, 47, 99, 100, 101, 297, 303, 500, 999, 1000):
            one_minority_row = np.eye(1, n, int(rng.integers(n)), dtype=int)[0]
            vectors = (rng.integers(0, 2, size=n), one_minority_row)
            for labels, seed, stratified in product(vectors, range(6), (False, True)):
                for train_frac, val_frac, test_frac in ((0.6, 0.2, 0.2), (0.5, 0.2, 0.3)):
                    fractions = dict(train_frac=train_frac, val_frac=val_frac, test_frac=test_frac)
                    spec = SplitSpec(seed=seed, stratified=stratified, **fractions)
                    groups = split_groups(labels, spec)
                    assert groups.dtype == np.intp and groups.shape == (n,)
                    for g, rows in enumerate(oracles.holdout_indices(labels, spec)):
                        assert np.array_equal(np.flatnonzero(groups == g), rows), (n, spec)
                    cases += 1
                for folds in (2, 3, 10):
                    spec = _folds(folds, seed, stratified)
                    if folds > n:
                        for draw in (split_groups, oracles.kfold_indices):
                            with pytest.raises(EvaluationError, match=f"^cannot split {n} rows into {folds} folds$"):
                                draw(labels, spec)
                        continue
                    fold_of = split_groups(labels, spec)
                    assert fold_of.dtype == np.intp and fold_of.shape == (n,)
                    for f, rows in enumerate(oracles.kfold_indices(labels, spec)):
                        assert np.array_equal(np.flatnonzero(fold_of == f), rows), (n, spec)
                    cases += 1
        assert cases == 2_136


class TestComputeMetrics:
    def test_integer_counts_consistent_with_reported_table(self):
        # 59 test rows: TP=24 FN=3 TN=29 FP=3 reproduces all seven headline figures
        report = EvaluationReport(ConfusionCounts(tp=24, tn=29, fp=3, fn=3), k=5)
        assert f"{report.accuracy:.2f}" == "89.83"
        assert f"{report.sensitivity:.2f}" == "88.89"
        assert f"{report.specificity:.2f}" == "90.62"
        assert f"{report.precision_class0:.2f}" == "90.62"
        assert f"{report.precision_class1:.2f}" == "88.89"
        assert f"{report.f1_class0:.2f}" == "90.62"
        assert f"{report.f1_class1:.2f}" == "88.89"

    def test_perfect_predictor(self):
        report = EvaluationReport(ConfusionCounts(tp=1, tn=1, fp=0, fn=0), k=1)
        for value in (
            report.accuracy,
            report.sensitivity,
            report.specificity,
            report.precision_class0,
            report.precision_class1,
            report.f1_class0,
            report.f1_class1,
        ):
            assert value == 100.0

    def test_degenerate_predictor_reports_not_applicable(self):
        # everything predicted negative while positives exist
        report = EvaluationReport(ConfusionCounts(tp=0, tn=5, fp=0, fn=5), k=1)
        assert report.sensitivity == 0.0
        assert report.precision_class1 is None
        assert report.f1_class1 is None
        assert "n/a" in format_report_text(report)
        assert "precision_class1=n/a" in format_report_kv(report)

    def test_empty_counts_rejected(self):
        with pytest.raises(ContractError, match="metrics need at least one prediction"):
            EvaluationReport(ConfusionCounts(0, 0, 0, 0), k=1)

    def test_metrics_recomputable_from_counts(self):
        # the rates as a stored-field report computed them, written out here:
        # every derived rate must equal them bit for bit, None included
        def pct(num, den):
            return None if den == 0 else 100.0 * num / den

        def f1(precision, recall):
            if precision is None or recall is None or precision + recall == 0:
                return None
            return 2.0 * precision * recall / (precision + recall)

        cases = 0
        for tp, tn, fp, fn in product(range(7), repeat=4):
            if tp + tn + fp + fn == 0:
                continue
            report = EvaluationReport(ConfusionCounts(tp, tn, fp, fn), k=1)
            sens, spec = pct(tp, tp + fn), pct(tn, tn + fp)
            prec0, prec1 = pct(tn, tn + fn), pct(tp, tp + fp)
            expected = {
                "accuracy": 100.0 * (tp + tn) / (tp + tn + fp + fn),
                "sensitivity": sens,
                "specificity": spec,
                "precision_class0": prec0,
                "precision_class1": prec1,
                "f1_class0": f1(prec0, spec),
                "f1_class1": f1(prec1, sens),
            }
            for name, value in expected.items():
                got = getattr(report, name)
                assert (got is None) == (value is None), (tp, tn, fp, fn, name)
                assert got is None or (type(got) is float and got == value), (tp, tn, fp, fn, name)
            cases += 1
        assert cases == 7**4 - 1


def _duplicated_diagram_set():
    """10 rows of deaths: two distinct diagrams, 5 exact copies each, labels matching."""
    deaths = np.array([[1.0, 50.0]] * 5 + [[7.0, 50.0]] * 5)
    labels = np.array([0] * 5 + [1] * 5)
    return deaths, labels


def _duplicated_distance_set():
    deaths, labels = _duplicated_diagram_set()
    return distance_matrix(deaths, 1.0), labels


class TestEvaluateSplit:
    def test_duplicates_classify_perfectly_with_k1(self):
        distances, labels = _duplicated_distance_set()
        for seed in range(5):
            _, report = evaluate_split(distances, labels, SplitSpec(seed=seed), k_grid=[1])
            assert report.k == 1
            assert report.accuracy == 100.0

    def test_chooses_k_with_best_validation_accuracy(self):
        distances, labels = _duplicated_distance_set()
        validation, report = evaluate_split(distances, labels, SplitSpec(seed=0), k_grid=[1, 3, 5])
        accs = {row.k: row.accuracy for row in validation}
        best = max(accs.values())
        assert accs[report.k] == best
        assert report.k == min(k for k, acc in accs.items() if acc == best)

    def test_partition_recorded(self):
        distances, labels = _duplicated_distance_set()
        _, report = evaluate_split(distances, labels, SplitSpec(seed=1), k_grid=[1])
        test = _sets(labels, SplitSpec(seed=1))[2]
        predictions = report.predictions
        assert predictions.dtype == np.int64 and predictions.shape == (test.size, 3)
        assert np.array_equal(predictions[:, 0], test)
        assert np.array_equal(predictions[:, 1], labels[test])

    def test_single_class_train_is_degenerate(self):
        deaths = np.arange(1.0, 11.0)[:, None]
        labels = np.zeros(10, dtype=int)
        with pytest.raises(EvaluationError, match="degenerate"):
            evaluate_split(distance_matrix(deaths, 1.0), labels, SplitSpec(seed=0), k_grid=[1])

    def test_k_grid_validation(self):
        distances, labels = _duplicated_distance_set()
        with pytest.raises(ContractError):
            evaluate_split(distances, labels, SplitSpec(seed=0), k_grid=[])
        with pytest.raises(ContractError):
            evaluate_split(distances, labels, SplitSpec(seed=0), k_grid=[99])
        with pytest.raises(ContractError, match="shape"):
            evaluate_split(distances[:9, :9], labels, SplitSpec(seed=0), k_grid=[1])
        for k_grid in ([], [0, 1]):
            with pytest.raises(ContractError, match="k grid"):
                select_k_kfold(distances, labels, _folds(2), k_grid)

    @pytest.mark.parametrize("k_grid", [[], [2.5], [1, 2.0], [True], [np.True_], ["3"]])
    def test_k_grid_of_non_integers_rejected(self, k_grid):
        distances, labels = _duplicated_distance_set()
        with pytest.raises(ContractError, match="k grid"):
            evaluate_split(distances, labels, SplitSpec(seed=0), k_grid)
        with pytest.raises(ContractError, match="k grid"):
            select_k_kfold(distances, labels, _folds(2), k_grid)

    def test_result_depends_only_on_the_matrix(self):
        deaths, labels = _duplicated_diagram_set()
        diagrams = [PersistenceDiagram(np.column_stack([[0.0, 0.0], row]), maxscale=50.0) for row in deaths]
        pairwise = np.array([[wasserstein(a, b, 1.0) for b in diagrams] for a in diagrams])
        a = evaluate_split(pairwise, labels, SplitSpec(seed=2), k_grid=[1, 3])
        b = evaluate_split(distance_matrix(deaths, 1.0), labels, SplitSpec(seed=2), k_grid=[1, 3])
        assert a == b  # the predictions arrays are not part of ==
        assert np.array_equal(a[1].predictions, b[1].predictions)

    def test_one_ranking_matches_per_query_oracle_on_validation_and_test(self):
        # validation and test rows are ranked in one call; the test rows are
        # read off the column of the chosen k
        rng = np.random.default_rng(33)
        chosen = set()
        for seed in range(40):
            raw = rng.integers(0, 6, size=(60, 60)).astype(np.float64)
            distances = np.triu(raw, 1) + np.triu(raw, 1).T
            labels = rng.permutation(np.resize([0, 1], 60))
            validation, report = evaluate_split(distances, labels, SplitSpec(seed=seed), k_grid=range(1, 12))
            train, val, _ = _sets(labels, SplitSpec(seed=seed))
            for row in validation:
                pairs = [(labels[r], oracles.knn_predict(r, train, distances, labels, row.k)) for r in val]
                counts = ConfusionCounts(pairs.count((1, 1)), pairs.count((0, 0)), pairs.count((0, 1)), pairs.count((1, 0)))
                assert row.counts == counts, (seed, row.k)
                assert row.accuracy == 100.0 * (counts.tp + counts.tn) / len(pairs), (seed, row.k)
            for r, _, predicted in report.predictions:
                assert predicted == oracles.knn_predict(r, train, distances, labels, report.k), (seed, r)
            chosen.add(report.k)
        assert len(chosen) >= 4

    def test_repeated_k_swept_once(self):
        distances, labels = _duplicated_distance_set()
        result = evaluate_split(distances, labels, SplitSpec(seed=0), k_grid=[3, 1, 3])
        assert [row.k for row in result[0]] == [1, 3]
        again = evaluate_split(distances, labels, SplitSpec(seed=0), k_grid=[1, 3])
        assert result == again
        assert np.array_equal(result[1].predictions, again[1].predictions)


class TestEvaluateKfold:
    def test_identical_diagrams_opposite_labels_score_zero(self):
        labels = np.array([0, 1])
        report = _kfold(distance_matrix([[3.0]] * 2, 1.0), labels, folds=2, k=1)
        assert report.accuracy == 0.0

    def test_leave_one_out_pools_all_rows(self):
        distances, labels = _duplicated_distance_set()
        report = _kfold(distances, labels, folds=10, k=1)
        assert report.counts.total == 10
        assert len(report.predictions) == 10
        assert len(report.fold_accuracies) == 10
        assert report.accuracy == 100.0

    def test_every_row_predicted_once(self):
        distances, labels = _duplicated_distance_set()
        report = _kfold(distances, labels, folds=3, k=2, seed=4)
        assert sorted(r for r, _, _ in report.predictions) == list(range(10))

    def test_k_exceeding_candidates_is_error(self):
        labels = np.array([0, 1, 0, 1])
        with pytest.raises(EvaluationError, match="candidates"):
            _kfold(distance_matrix([[1.0]] * 4, 1.0), labels, folds=2, k=3)

    def test_first_short_fold_in_fold_order_is_named(self):
        # 10 rows in 4 folds of 3, 3, 2 and 2 rows leave 7, 7, 8 and 8 candidates
        distances, labels = _duplicated_distance_set()
        for k, stratified in ((8, False), (9, False), (8, True), (9, True)):
            with pytest.raises(EvaluationError, match=rf"^fold leaves only 7 candidates for k={k}$"):
                select_k_kfold(distances, labels, _folds(4, stratified=stratified), [1, k])

    def test_seed_determinism(self):
        distances, labels = _duplicated_distance_set()
        a = _kfold(distances, labels, folds=5, k=3, seed=7)
        b = _kfold(distances, labels, folds=5, k=3, seed=7)
        assert a == b
        assert np.array_equal(a.predictions, b.predictions)


class TestSelectKKfold:
    def test_returns_best_pooled_accuracy(self):
        distances, labels = _duplicated_distance_set()
        report = select_k_kfold(distances, labels, _folds(5), [1, 3, 5])
        accs = {k: _kfold(distances, labels, 5, k).accuracy for k in (1, 3, 5)}
        best = max(accs.values())
        assert report.accuracy == accs[report.k] == best
        assert report.k == min(k for k, a in accs.items() if a == best)

    def test_chosen_report_equals_the_run_at_its_k(self):
        rng = np.random.default_rng(31)
        for case in range(12):
            n = int(rng.integers(20, 60))
            raw = rng.integers(0, 5, size=(n, n)) if case % 2 else rng.uniform(0, 3, size=(n, n))
            distances = np.triu(raw, 1) + np.triu(raw, 1).T
            labels = np.resize([0, 1], n)
            rng.shuffle(labels)
            folds, seed, stratified = int(rng.integers(2, 11)), case, case % 3 == 0
            split = _folds(folds, seed, stratified)
            report = select_k_kfold(distances, labels, split, [7, 1, 4, 2, 4])
            at_k = {k: select_k_kfold(distances, labels, split, [k]) for k in (1, 2, 4, 7)}
            best = max(r.accuracy for r in at_k.values())
            assert report.k == min(k for k, r in at_k.items() if r.accuracy == best)
            assert report == at_k[report.k]
            assert np.array_equal(report.predictions, at_k[report.k].predictions)

    def test_one_pass_matches_per_fold_oracle_2000_tables(self):
        # integer-valued distances: ties at the rank boundary, in votes and in sums;
        # half the matrices are asymmetric with a non-zero diagonal
        rng = np.random.default_rng(32)
        checked = raised = boundary_ties = 0
        for table in range(2000):
            n = int(rng.integers(5, 30))
            raw = rng.integers(0, 4, size=(n, n))
            distances = raw if table % 2 else np.triu(raw, 1) + np.triu(raw, 1).T
            if table % 4 < 2:
                distances = distances.astype(np.float64)
            labels = rng.permutation(np.resize([0, 1], n))
            folds, stratified = int(rng.integers(2, 6)), bool(rng.integers(2))
            split = _folds(folds, table, stratified)
            fold_of = split_groups(labels, split)
            top = int(rng.integers(1, n - np.bincount(fold_of).max() + 2))  # sometimes one too many
            k_grid = sorted(set(rng.integers(1, top + 1, size=3).tolist()) | {top})
            try:
                nearest, preds = oracles.kfold_predictions_per_fold(distances, labels, fold_of, k_grid)
            except EvaluationError as exc:
                with pytest.raises(EvaluationError) as got:
                    select_k_kfold(distances, labels, split, k_grid)
                assert str(got.value) == str(exc), table
                raised += 1
                continue
            every_row = np.arange(n)
            got_nearest, got_preds = knn_grid(every_row, distances, labels, k_grid, fold_of)
            assert np.array_equal(got_nearest, nearest), table
            assert np.array_equal(got_preds, preds), table
            # the chosen k and its report, from the oracle's predictions
            hits = [int((preds[:, j] == labels).sum()) for j in range(len(k_grid))]
            j = max(range(len(k_grid)), key=lambda j: (hits[j], -k_grid[j]))
            report = select_k_kfold(distances, labels, split, k_grid)
            assert report.k == k_grid[j], table
            assert report.predictions.tolist() == [[r, labels[r], preds[r, j]] for r in range(n)], table
            truth, predicted = labels.tolist(), preds[:, j].tolist()
            pairs = list(zip(truth, predicted))
            counts = ConfusionCounts(pairs.count((1, 1)), pairs.count((0, 0)), pairs.count((0, 1)), pairs.count((1, 0)))
            assert report.counts == counts, table
            assert report.accuracy == 100.0 * hits[j] / n, table
            assert list(report.fold_accuracies) == [
                100.0 * int((preds[fold_of == f, j] == labels[fold_of == f]).sum()) / int((fold_of == f).sum())
                for f in range(folds)
            ], table
            checked += 1
            outside = np.where(fold_of[:, None] != fold_of, distances, np.inf)
            ranked = np.sort(outside, axis=1)
            boundary_ties += int((ranked[:, top - 1] == ranked[:, top]).sum())
        assert checked >= 1500 and raised >= 50
        assert boundary_ties >= 10_000

    def test_holdout_spec_rejected(self):
        distances, labels = _duplicated_distance_set()
        with pytest.raises(ContractError, match="kfold SplitSpec"):
            select_k_kfold(distances, labels, SplitSpec(), [1])
        with pytest.raises(ContractError, match="holdout SplitSpec"):
            evaluate_split(distances, labels, _folds(5), [1])

    def test_folds_drawn_once_for_the_grid(self, monkeypatch):
        import topmix.evaluate as evaluate

        calls = []
        draw = evaluate.split_groups
        monkeypatch.setattr(evaluate, "split_groups", lambda *a: calls.append(a) or draw(*a))
        distances, labels = _duplicated_distance_set()
        select_k_kfold(distances, labels, _folds(5), [1, 2, 3, 4])
        assert len(calls) == 1


def test_monotone_distance_invariance_end_to_end():
    distances, labels = _duplicated_distance_set()
    warped = np.sqrt(distances)
    for seed in range(3):
        base = evaluate_split(distances, labels, SplitSpec(seed=seed), k_grid=[1, 3, 5])
        same = evaluate_split(warped, labels, SplitSpec(seed=seed), k_grid=[1, 3, 5])
        assert base[1].k == same[1].k
        assert np.array_equal(base[1].predictions, same[1].predictions)
