"""Feature-matrix transforms: one-hot encoding, standardization, symmetry breaking.

The three stages are pure functions from matrix to matrix and are tagged so
the pipeline can enforce its ordering: ``encoded`` -> ``standardized`` ->
``symmetry-broken``. Standardization uses the population convention
(divide by n), which makes the zero-mean/unit-variance invariant exact on
the fit rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ContractError, FitError
from .ingest import RawDataset

Stage = Literal["encoded", "standardized", "symmetry-broken"]

FitScope = Literal["full", "train"]


@dataclass(frozen=True)
class FeatureMatrix:
    """An n x m real matrix with named columns, row labels, and a stage tag."""

    values: np.ndarray
    column_names: tuple[str, ...]
    labels: np.ndarray
    stage: Stage

    def __post_init__(self):
        if self.values.ndim != 2:
            raise ContractError("feature matrix must be 2-dimensional")
        if not np.isfinite(self.values).all():
            raise ContractError("feature matrix contains non-finite entries")
        if len(self.column_names) != self.values.shape[1]:
            raise ContractError("column name count does not match matrix width")
        if len(self.labels) != self.values.shape[0]:
            raise ContractError("label count does not match row count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def m(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class StandardizationParams:
    """Per-column mean and (strictly positive) population std, plus fit scope."""

    mean: np.ndarray
    std: np.ndarray
    fit_scope: FitScope = "full"

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise ContractError("mean/std must be 1-d arrays of equal length")
        if not (self.std > 0).all():
            raise ContractError("standardization std must be strictly positive")


def one_hot_encode(raw: RawDataset) -> FeatureMatrix:
    """Expand categorical attributes into indicator columns.

    Numeric attributes pass through unchanged. Column order follows the
    schema's attribute order, with each categorical attribute's columns in
    its declared domain order; every row carries exactly one 1 per
    categorical block.
    """
    schema = raw.schema
    n, width = raw.n, schema.encoded_width
    values = np.zeros((n, width), dtype=np.float64)
    for i, row in enumerate(raw.rows):
        col = 0
        for attr, value in zip(schema.attributes, row):
            if attr.kind == "numeric":
                values[i, col] = value
                col += 1
            else:
                values[i, col + attr.domain.index(value)] = 1.0
                col += len(attr.domain)
    return FeatureMatrix(
        values=values,
        column_names=schema.encoded_column_names(),
        labels=raw.labels.copy(),
        stage="encoded",
    )


def fit_standardizer(
    matrix: FeatureMatrix,
    scope: FitScope = "full",
    fit_rows: Sequence[int] | np.ndarray | None = None,
) -> StandardizationParams:
    """Fit per-column mean and population std over the given rows.

    ``fit_rows`` defaults to all rows. A column constant over the fit rows
    is a hard error: silently dropping it would change the matrix width and
    desynchronize the symmetry vector.
    """
    if fit_rows is None:
        rows = matrix.values
    else:
        fit_rows = np.asarray(fit_rows, dtype=np.intp)
        if fit_rows.size == 0:
            raise ContractError("fit_rows must be non-empty")
        rows = matrix.values[fit_rows]
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)  # population convention, ddof=0
    bad = np.flatnonzero(~(std > 0))
    if bad.size:
        names = [matrix.column_names[j] for j in bad]
        raise FitError(f"constant column(s) over fit rows: {names}")
    return StandardizationParams(mean=mean, std=std, fit_scope=scope)


def standardize(matrix: FeatureMatrix, params: StandardizationParams) -> FeatureMatrix:
    """Apply (x - mean) / std column-wise; output is tagged ``standardized``."""
    if params.mean.shape[0] != matrix.m:
        raise ContractError(
            f"params width {params.mean.shape[0]} != matrix width {matrix.m}"
        )
    return FeatureMatrix(
        values=(matrix.values - params.mean) / params.std,
        column_names=matrix.column_names,
        labels=matrix.labels,
        stage="standardized",
    )


def default_symmetry_vector(m: int) -> np.ndarray:
    """The fixed offset (5, 6, ..., m+4) added to every standardized row.

    Components start at five standard deviations so post-shift coordinates
    are almost surely positive, which keeps the coordinate-magnitude
    distances of distinct records distinct.
    """
    if m < 1:
        raise ContractError("symmetry vector length must be >= 1")
    return np.arange(5.0, m + 5.0)


def symmetry_break(
    matrix: FeatureMatrix,
    vector: np.ndarray,
    allow_unstandardized: bool = False,
) -> FeatureMatrix:
    """Add the fixed vector to every row; output is tagged ``symmetry-broken``.

    The pipeline applies this only to standardized matrices; pass
    ``allow_unstandardized=True`` to override that guard.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (matrix.m,):
        raise ContractError(
            f"symmetry vector length {vector.shape} != matrix width {matrix.m}"
        )
    if matrix.stage != "standardized" and not allow_unstandardized:
        raise ContractError(
            f"symmetry_break expects a standardized matrix, got stage {matrix.stage!r}"
        )
    return FeatureMatrix(
        values=matrix.values + vector,
        column_names=matrix.column_names,
        labels=matrix.labels,
        stage="symmetry-broken",
    )

