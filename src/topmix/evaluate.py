"""Experiment harness: splits, k selection, cross-validation, and metrics.

Splits are seeded shuffles (optionally stratified). Hold-out sizing puts
the rounding remainder in the training set: floor(val_frac*n) and
floor(test_frac*n) rows go to validation and test, the rest to training,
which reproduces the 179/59/59 partition of 297 rows at 60:20:20; a split
that leaves validation or test empty is an ``EvaluationError``.
Predictions come from ``classify.knn_grid``, one call per protocol.
Hold-out ranks the validation and test rows together against the training
rows over the whole k grid, sweeps k on the validation rows and reads the
test predictions from the column of the chosen k. Cross-validation draws
the folds once per grid and keeps one fold id per row (``kfold_groups``);
it ranks every row against every row with the fold ids as ``groups``, so
each row's candidates are exactly the rows outside its fold, and one
scatter-add over the ids counts the hits of every (fold, k). ``knn_grid``
admits exactly K = max(k) entries per query and ranks them with one
stable argsort, so the cost of a protocol is a few array passes, not work
per fold or per (row, k) cell. Both protocols sweep the distinct ks of a
grid in ascending order, so a repeated k is evaluated and reported once.
Metrics are kept at full precision internally; rounding happens only in
the text formatters. Undefined ratios (zero denominators) are reported as
None, never NaN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .classify import knn_grid
from .errors import ContractError, EvaluationError


@dataclass(frozen=True)
class SplitSpec:
    """How to partition rows: seeded hold-out fractions or k folds."""

    mode: Literal["holdout", "kfold"] = "holdout"
    seed: int = 0
    stratified: bool = False
    train_frac: float = 0.6
    val_frac: float = 0.2
    test_frac: float = 0.2
    folds: int = 10

    def __post_init__(self):
        if self.mode == "holdout":
            total = self.train_frac + self.val_frac + self.test_frac
            if abs(total - 1.0) > 1e-9:
                raise ContractError(f"hold-out fractions sum to {total}, expected 1")
            if min(self.train_frac, self.val_frac, self.test_frac) <= 0:
                raise ContractError("hold-out fractions must be positive")
        elif self.mode == "kfold":
            if self.folds < 2:
                raise ContractError("kfold needs folds >= 2")
        else:
            raise ContractError(f"unknown split mode {self.mode!r}")


def _per_class_indices(labels: np.ndarray) -> list[np.ndarray]:
    return [np.flatnonzero(labels == cls) for cls in sorted(set(labels.tolist()))]


def holdout_indices(
    labels: np.ndarray, spec: SplitSpec
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint (train, val, test) row-index arrays covering all rows."""
    if spec.mode != "holdout":
        raise ContractError("holdout_indices needs a holdout SplitSpec")
    labels = np.asarray(labels)
    rng = np.random.default_rng(spec.seed)

    def carve(indices: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        perm = rng.permutation(indices)
        n = perm.size
        n_val = int(np.floor(spec.val_frac * n))
        n_test = int(np.floor(spec.test_frac * n))
        n_train = n - n_val - n_test
        return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]

    if spec.stratified:
        parts = [carve(idx) for idx in _per_class_indices(labels)]
        train = np.concatenate([p[0] for p in parts])
        val = np.concatenate([p[1] for p in parts])
        test = np.concatenate([p[2] for p in parts])
    else:
        train, val, test = carve(np.arange(labels.size))
    return np.sort(train), np.sort(val), np.sort(test)


def kfold_indices(labels: np.ndarray, spec: SplitSpec) -> list[np.ndarray]:
    """Seeded fold assignment; every row lands in exactly one fold."""
    if spec.mode != "kfold":
        raise ContractError("kfold_indices needs a kfold SplitSpec")
    labels = np.asarray(labels)
    if spec.folds > labels.size:
        raise EvaluationError(f"cannot split {labels.size} rows into {spec.folds} folds")
    rng = np.random.default_rng(spec.seed)
    if spec.stratified:
        buckets: list[list[int]] = [[] for _ in range(spec.folds)]
        offset = 0
        for idx in _per_class_indices(labels):
            for j, row in enumerate(rng.permutation(idx)):
                buckets[(offset + j) % spec.folds].append(int(row))
            offset += idx.size
        folds = [np.asarray(b, dtype=np.intp) for b in buckets]
    else:
        folds = np.array_split(rng.permutation(labels.size), spec.folds)
    return [np.sort(f) for f in folds]


def kfold_groups(labels: np.ndarray, spec: SplitSpec) -> np.ndarray:
    """The fold id of every row, in the fold order of ``kfold_indices``."""
    fold_of = np.empty(np.size(labels), dtype=np.intp)
    for f, fold in enumerate(kfold_indices(labels, spec)):
        fold_of[fold] = f
    return fold_of


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @staticmethod
    def from_predictions(y_true: np.ndarray, y_pred: np.ndarray) -> "ConfusionCounts":
        y_true = np.asarray(y_true)
        y_pred = np.asarray(y_pred)
        return ConfusionCounts(
            tp=int(((y_true == 1) & (y_pred == 1)).sum()),
            tn=int(((y_true == 0) & (y_pred == 0)).sum()),
            fp=int(((y_true == 0) & (y_pred == 1)).sum()),
            fn=int(((y_true == 1) & (y_pred == 0)).sum()),
        )


@dataclass(frozen=True)
class EvaluationReport:
    """Confusion counts plus derived percentages (full precision, None = n/a)."""

    counts: ConfusionCounts
    accuracy: float
    sensitivity: float | None
    specificity: float | None
    precision_class0: float | None
    precision_class1: float | None
    f1_class0: float | None
    f1_class1: float | None
    k: int
    seed: int | None = None
    fold_accuracies: tuple[float, ...] = ()
    predictions: tuple[tuple[int, int, int], ...] = ()  # (row, true, predicted)


def _pct(numerator: float, denominator: float) -> float | None:
    if denominator == 0:
        return None
    return 100.0 * numerator / denominator


def _f1(precision: float | None, recall: float | None) -> float | None:
    if precision is None or recall is None or precision + recall == 0:
        return None
    return 2.0 * precision * recall / (precision + recall)


def compute_metrics(
    counts: ConfusionCounts,
    k: int,
    seed: int | None = None,
    fold_accuracies: Sequence[float] = (),
    predictions: Sequence[tuple[int, int, int]] = (),
) -> EvaluationReport:
    """Standard binary-classification metrics from confusion counts."""
    if counts.total <= 0:
        raise ContractError("metrics need at least one prediction")
    sens = _pct(counts.tp, counts.tp + counts.fn)
    spec = _pct(counts.tn, counts.tn + counts.fp)
    prec1 = _pct(counts.tp, counts.tp + counts.fp)
    prec0 = _pct(counts.tn, counts.tn + counts.fn)
    return EvaluationReport(
        counts=counts,
        accuracy=100.0 * (counts.tp + counts.tn) / counts.total,
        sensitivity=sens,
        specificity=spec,
        precision_class0=prec0,
        precision_class1=prec1,
        f1_class0=_f1(prec0, spec),
        f1_class1=_f1(prec1, sens),
        k=k,
        seed=seed,
        fold_accuracies=tuple(fold_accuracies),
        predictions=tuple(predictions),
    )


def _check_distances(distances: np.ndarray, labels: np.ndarray) -> None:
    if np.shape(distances) != (labels.size, labels.size):
        raise ContractError(
            f"distance matrix has shape {np.shape(distances)}, "
            f"expected {labels.size}x{labels.size} for {labels.size} labels"
        )


def _sorted_grid(k_grid: Sequence[int]) -> list[int]:
    """The distinct ks in ascending order, each a positive integer."""
    k_grid = sorted(set(int(k) for k in k_grid))
    if not k_grid or k_grid[0] < 1:
        raise ContractError("k grid must be non-empty positive integers")
    return k_grid


def _require_both_classes(labels: np.ndarray, where: str) -> None:
    present = set(np.asarray(labels).tolist())
    if not {0, 1} <= present:
        missing = sorted({0, 1} - present)
        raise EvaluationError(f"degenerate split: {where} lacks class(es) {missing}")


@dataclass(frozen=True)
class ValidationRow:
    """One k's metrics on the validation set."""

    k: int
    accuracy: float
    sensitivity: float | None
    specificity: float | None


@dataclass(frozen=True)
class SplitResult:
    chosen_k: int
    validation: tuple[ValidationRow, ...]
    test_report: EvaluationReport
    train_rows: tuple[int, ...]
    val_rows: tuple[int, ...]
    test_rows: tuple[int, ...]


def evaluate_split(
    distances: np.ndarray,
    labels: np.ndarray,
    split: SplitSpec,
    k_grid: Sequence[int],
) -> SplitResult:
    """Hold-out protocol: sweep k on validation, report the winner on test.

    ``distances`` is the n x n matrix over all rows. k is chosen to
    maximize validation accuracy, ties going to the smaller k.
    """
    labels = np.asarray(labels)
    _check_distances(distances, labels)
    k_grid = _sorted_grid(k_grid)

    train, val, test = holdout_indices(labels, split)
    if not val.size or not test.size:
        raise EvaluationError(
            f"hold-out split of {labels.size} rows leaves {train.size} training, "
            f"{val.size} validation and {test.size} test rows; each set needs at least one"
        )
    _require_both_classes(labels[train], "training set")
    if max(k_grid) > train.size:
        raise ContractError(f"k grid exceeds training size {train.size}")

    _, grid_preds = knn_grid(np.concatenate([val, test]), train, distances, labels, k_grid)
    val_preds, test_grid_preds = grid_preds[: val.size], grid_preds[val.size :]
    table = []
    for k, preds in zip(k_grid, val_preds.T):
        counts = ConfusionCounts.from_predictions(labels[val], preds)
        table.append(
            ValidationRow(
                k=k,
                accuracy=100.0 * (counts.tp + counts.tn) / counts.total,
                sensitivity=_pct(counts.tp, counts.tp + counts.fn),
                specificity=_pct(counts.tn, counts.tn + counts.fp),
            )
        )
    chosen = max(table, key=lambda r: (r.accuracy, -r.k)).k

    test_preds = test_grid_preds[:, k_grid.index(chosen)]
    counts = ConfusionCounts.from_predictions(labels[test], test_preds)
    report = compute_metrics(
        counts,
        k=chosen,
        seed=split.seed,
        predictions=[(int(r), int(labels[r]), int(pr)) for r, pr in zip(test, test_preds)],
    )
    return SplitResult(
        chosen_k=chosen,
        validation=tuple(table),
        test_report=report,
        train_rows=tuple(int(i) for i in train),
        val_rows=tuple(int(i) for i in val),
        test_rows=tuple(int(i) for i in test),
    )


def _kfold_reports(
    distances: np.ndarray, labels: np.ndarray, folds: int, k_grid: list[int], seed: int, stratified: bool
) -> list[EvaluationReport]:
    """One pooled cross-validation report per k; the folds are drawn once."""
    labels = np.asarray(labels)
    _check_distances(distances, labels)
    _require_both_classes(labels, "dataset")
    spec = SplitSpec(mode="kfold", folds=folds, seed=seed, stratified=stratified)
    fold_of = kfold_groups(labels, spec)
    fold_sizes = np.bincount(fold_of)
    short = np.flatnonzero(labels.size - fold_sizes < max(k_grid))
    if short.size:  # the first such fold, in fold order
        left = labels.size - fold_sizes[short[0]]
        raise EvaluationError(f"fold leaves only {left} candidates for k={max(k_grid)}")
    every_row = np.arange(labels.size)
    preds = knn_grid(every_row, every_row, distances, labels, k_grid, groups=fold_of)[1]
    fold_hits = np.zeros((fold_sizes.size, len(k_grid)), dtype=np.int64)
    np.add.at(fold_hits, fold_of, preds == labels[:, None])
    fold_accuracies = (100.0 * fold_hits / fold_sizes[:, None]).T.tolist()
    rows, truth = range(labels.size), labels.astype(np.int64).tolist()
    return [
        compute_metrics(
            ConfusionCounts.from_predictions(labels, preds[:, j]), k=k, seed=seed,
            fold_accuracies=fold_accuracies[j],
            predictions=list(zip(rows, truth, preds[:, j].tolist())),
        )
        for j, k in enumerate(k_grid)
    ]


def select_k_kfold(
    distances: np.ndarray,
    labels: np.ndarray,
    folds: int,
    k_grid: Sequence[int],
    seed: int = 0,
    stratified: bool = False,
) -> tuple[int, list[EvaluationReport]]:
    """k-fold cross-validation; k chosen by pooled accuracy, ties to the smaller k.

    Every row is classified exactly once per k, against all rows outside
    its fold. Returns the chosen k and one report per distinct k, ascending,
    with pooled confusion counts and the per-fold accuracies.
    """
    reports = _kfold_reports(distances, labels, folds, _sorted_grid(k_grid), seed, stratified)
    best = max(reports, key=lambda r: (r.accuracy, -r.k))
    return best.k, reports


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.2f}"


def format_report_text(report: EvaluationReport, title: str = "evaluation") -> str:
    """Human-readable summary table (percentages rounded to 2 decimals)."""
    c = report.counts
    lines = [
        f"== {title} (k={report.k}"
        + (f", seed={report.seed}" if report.seed is not None else "")
        + ") ==",
        f"rows: {c.total}   TP={c.tp} TN={c.tn} FP={c.fp} FN={c.fn}",
        f"accuracy:    {_fmt(report.accuracy)}%",
        f"sensitivity: {_fmt(report.sensitivity)}%",
        f"specificity: {_fmt(report.specificity)}%",
        f"precision:   class0 {_fmt(report.precision_class0)}%  class1 {_fmt(report.precision_class1)}%",
        f"F1:          class0 {_fmt(report.f1_class0)}%  class1 {_fmt(report.f1_class1)}%",
    ]
    if report.fold_accuracies:
        folds = " ".join(f"{a:.2f}" for a in report.fold_accuracies)
        lines.append(f"fold accuracies: {folds}")
    return "\n".join(lines) + "\n"


def format_report_kv(report: EvaluationReport) -> str:
    """Machine-readable ``name=value`` lines, one metric per line."""
    c = report.counts
    kv = [
        ("k", report.k),
        ("seed", report.seed if report.seed is not None else ""),
        ("rows", c.total),
        ("tp", c.tp),
        ("tn", c.tn),
        ("fp", c.fp),
        ("fn", c.fn),
        ("accuracy", _fmt_raw(report.accuracy)),
        ("sensitivity", _fmt_raw(report.sensitivity)),
        ("specificity", _fmt_raw(report.specificity)),
        ("precision_class0", _fmt_raw(report.precision_class0)),
        ("precision_class1", _fmt_raw(report.precision_class1)),
        ("f1_class0", _fmt_raw(report.f1_class0)),
        ("f1_class1", _fmt_raw(report.f1_class1)),
    ]
    lines = [f"{name}={value}" for name, value in kv]
    for i, acc in enumerate(report.fold_accuracies):
        lines.append(f"fold{i}_accuracy={_fmt_raw(acc)}")
    return "\n".join(lines) + "\n"


def _fmt_raw(value: float | None) -> str:
    return "n/a" if value is None else repr(float(value))


def format_validation_table(result: SplitResult) -> str:
    """Per-k validation metrics table for the hold-out protocol."""
    lines = ["k,accuracy,sensitivity,specificity"]
    for row in result.validation:
        lines.append(
            f"{row.k},{_fmt_raw(row.accuracy)},{_fmt_raw(row.sensitivity)},{_fmt_raw(row.specificity)}"
        )
    return "\n".join(lines) + "\n"
