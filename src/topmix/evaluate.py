"""Experiment harness: splits, k selection, cross-validation, and metrics.

A split is one group id per row (``split_groups``): 0/1/2 for the
training, validation and test rows of a hold-out, or the row's fold. It
is one seeded shuffle, per class when stratified. Hold-out sizing puts
the rounding remainder in the training set: floor(val_frac*n) and
floor(test_frac*n) rows go to validation and test, the rest to training,
which reproduces the 179/59/59 partition of 297 rows at 60:20:20; a split
that leaves validation or test empty is an ``EvaluationError``.
Predictions come from ``classify.knn_grid``, one call per protocol, as a
(rows, ks) grid; each protocol states its candidates as one group id per
row, a query's candidates being the rows of another group. Both
protocols take the run's ``SplitSpec``. Hold-out ranks the validation
and test rows together against the training rows (``groups == 0``) over
the whole k grid, sweeps k on the validation rows and reads the test
predictions from the column of the chosen k. Cross-validation draws the
folds once per grid and ranks with the fold ids themselves, so each
row's candidates are exactly the rows outside its fold. k is the first
argmax of the hits per column, so ties go to the smaller k, and only the
chosen k gets a report: one bincount over the fold ids gives its
per-fold hits. Confusion counts of a whole grid are one bincount over
2 * true + predicted + 4 * column.
A protocol returns reports, not row sets (``split_groups`` gives those),
and the k it chose is its report's ``k``.
Predictions travel as an int64 (rows, 3) array of [row, true, predicted].
Both protocols sweep the distinct ks of a grid in ascending order, so a
repeated k is evaluated and reported once.
Metrics are kept at full precision internally; rounding happens only in
the text formatters. Undefined ratios (zero denominators) are reported as
None, never NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

from .classify import check_k_grid, knn_grid
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
        if self.seed < 0:
            raise ContractError(f"split seed must be >= 0, got {self.seed}")
        for key in ("train_frac", "val_frac", "test_frac"):
            if not math.isfinite(getattr(self, key)):
                raise ContractError(f"{key} must be finite, got {getattr(self, key)!r}")
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


def split_groups(labels: np.ndarray, spec: SplitSpec) -> np.ndarray:
    """The intp group id of every row: 0/1/2 for hold-out train/validation/test, or the fold.

    Each class (or, unstratified, the whole table) is shuffled once, classes
    in ascending label order, and the ids are scattered over the shuffle:
    hold-out ids in train/validation/test blocks sized per stratum;
    stratified folds dealt round-robin, continuing across classes; plain
    folds in ``np.array_split``'s blocks, the first n % folds one row longer.
    Stratified labels must be non-negative integers (else a ContractError).
    """
    labels = np.asarray(labels)
    n = labels.size
    if spec.mode == "kfold" and spec.folds > n:
        raise EvaluationError(f"cannot split {n} rows into {spec.folds} folds")
    if spec.stratified and (labels < 0).any():
        raise ContractError("stratified labels must be non-negative")
    rng = np.random.default_rng(spec.seed)
    classes = np.flatnonzero(np.bincount(labels)) if spec.stratified else ()  # np.unique imports numpy.ma
    strata = [np.flatnonzero(labels == cls) for cls in classes] if spec.stratified else [np.arange(n)]
    groups = np.empty(n, dtype=np.intp)
    offset = 0
    for rows in strata:
        perm = rng.permutation(rows)
        size = perm.size
        if spec.mode == "holdout":
            n_val = int(np.floor(spec.val_frac * size))
            n_test = int(np.floor(spec.test_frac * size))
            groups[perm] = np.repeat([0, 1, 2], [size - n_val - n_test, n_val, n_test])
        elif spec.stratified:
            groups[perm] = (offset + np.arange(size)) % spec.folds
        else:
            q, r = divmod(size, spec.folds)
            groups[perm] = np.repeat(np.arange(spec.folds), q + (np.arange(spec.folds) < r))
        offset += size
    return groups


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def _confusion(truth: np.ndarray, grid: np.ndarray) -> list[ConfusionCounts]:
    """The counts of every column of a (rows, ks) grid of 0/1 predictions.

    One bincount over 2 * true + predicted + 4 * column: cell 0 of a
    column is TN, 1 FP, 2 FN and 3 TP.
    """
    truth = np.asarray(truth)
    if not ((truth == 0) | (truth == 1)).all():
        raise ContractError("labels must be 0 or 1")
    ks = grid.shape[1]
    cells = np.bincount((2 * truth[:, None] + grid + 4 * np.arange(ks)).ravel(), minlength=4 * ks)
    return [ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn) for tn, fp, fn, tp in cells.reshape(ks, 4).tolist()]


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
    # int64 (rows, 3) of [row, true, predicted]; None in a validation report
    predictions: np.ndarray | None = field(default=None, compare=False)


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
    predictions: np.ndarray | None = None,
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
        predictions=predictions,
    )


def _check_distances(distances: np.ndarray, labels: np.ndarray) -> None:
    if np.shape(distances) != (labels.size, labels.size):
        raise ContractError(
            f"distance matrix has shape {np.shape(distances)}, "
            f"expected {labels.size}x{labels.size} for {labels.size} labels"
        )


def _sorted_grid(k_grid: Sequence[int]) -> list[int]:
    """The distinct ks in ascending order, each a positive integer (``check_k_grid``)."""
    return sorted(set(check_k_grid(k_grid).tolist()))


def _require_both_classes(labels: np.ndarray, where: str) -> None:
    present = set(np.asarray(labels).tolist())
    if not {0, 1} <= present:
        missing = sorted({0, 1} - present)
        raise EvaluationError(f"degenerate split: {where} lacks class(es) {missing}")


def _with_rows(rows: np.ndarray, labels: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """The int64 (rows, 3) predictions array: row index, true label, predicted label."""
    return np.column_stack([rows, labels[rows], predicted]).astype(np.int64, copy=False)


def evaluate_split(
    distances: np.ndarray,
    labels: np.ndarray,
    split: SplitSpec,
    k_grid: Sequence[int],
) -> tuple[tuple[EvaluationReport, ...], EvaluationReport]:
    """Hold-out protocol: sweep k on validation, report the winner on test.

    ``distances`` is the n x n matrix over all rows. k is chosen to
    maximize validation accuracy, ties going to the smaller k. Returns the
    validation reports, one per distinct k ascending, and the test report.
    """
    labels = np.asarray(labels)
    _check_distances(distances, labels)
    k_grid = _sorted_grid(k_grid)

    if split.mode != "holdout":
        raise ContractError("evaluate_split needs a holdout SplitSpec")
    groups = split_groups(labels, split)
    train, val, test = (np.flatnonzero(groups == g) for g in range(3))
    if not val.size or not test.size:
        raise EvaluationError(
            f"hold-out split of {labels.size} rows leaves {train.size} training, "
            f"{val.size} validation and {test.size} test rows; each set needs at least one"
        )
    _require_both_classes(labels[train], "training set")

    _, grid_preds = knn_grid(np.concatenate([val, test]), distances, labels, k_grid, groups == 0)
    val_counts = _confusion(labels[val], grid_preds[: val.size])
    validation = tuple(compute_metrics(counts, k=k) for counts, k in zip(val_counts, k_grid))
    j = int(np.argmax([counts.tp + counts.tn for counts in val_counts]))  # the first: ties to the smaller k

    test_preds = grid_preds[val.size :, j]
    report = compute_metrics(
        _confusion(labels[test], test_preds[:, None])[0],
        k=k_grid[j],
        seed=split.seed,
        predictions=_with_rows(test, labels, test_preds),
    )
    return validation, report


def select_k_kfold(
    distances: np.ndarray,
    labels: np.ndarray,
    split: SplitSpec,
    k_grid: Sequence[int],
) -> EvaluationReport:
    """k-fold cross-validation; k chosen by pooled accuracy, ties to the smaller k.

    ``split`` must be a k-fold spec. Every row is classified exactly once
    per k, against all rows outside its fold; the folds are drawn once for
    the grid. Returns the chosen k's report: pooled confusion counts, the
    per-fold accuracies and every row's prediction.
    """
    k_grid = _sorted_grid(k_grid)
    labels = np.asarray(labels)
    _check_distances(distances, labels)
    _require_both_classes(labels, "dataset")
    if split.mode != "kfold":
        raise ContractError("select_k_kfold needs a kfold SplitSpec")
    fold_of = split_groups(labels, split)
    fold_sizes = np.bincount(fold_of)
    short = np.flatnonzero(labels.size - fold_sizes < max(k_grid))
    if short.size:  # the first such fold, in fold order
        left = labels.size - fold_sizes[short[0]]
        raise EvaluationError(f"fold leaves only {left} candidates for k={max(k_grid)}")
    every_row = np.arange(labels.size)
    preds = knn_grid(every_row, distances, labels, k_grid, fold_of)[1]
    hits = preds == labels[:, None]
    j = int(np.argmax(hits.sum(axis=0)))  # the first: ties to the smaller k
    fold_hits = np.bincount(fold_of, weights=hits[:, j], minlength=fold_sizes.size)
    return compute_metrics(
        _confusion(labels, preds[:, j : j + 1])[0],
        k=k_grid[j],
        seed=split.seed,
        fold_accuracies=(100.0 * fold_hits / fold_sizes).tolist(),
        predictions=_with_rows(every_row, labels, preds[:, j]),
    )


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


def format_validation_table(validation: Sequence[EvaluationReport]) -> str:
    """Per-k validation metrics table for the hold-out protocol, one line per report."""
    lines = ["k,accuracy,sensitivity,specificity"]
    for row in validation:
        lines.append(
            f"{row.k},{_fmt_raw(row.accuracy)},{_fmt_raw(row.sensitivity)},{_fmt_raw(row.specificity)}"
        )
    return "\n".join(lines) + "\n"
