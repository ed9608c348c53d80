"""Feature-matrix transforms: one-hot encoding, standardization, symmetry breaking.

The three stages are pure functions from matrix to matrix and are tagged so
the pipeline can enforce its ordering: ``encoded`` -> ``standardized`` ->
``symmetry-broken``. Encoding works on the typed columns ``ingest`` has
already validated (reporting the first fault in row-major order): each
numeric float64 column is copied with one slice assignment, and each
categorical block is filled with one scatter of its column's domain
codes, ``values[rows, col + codes] = 1``; no token is looked up again.
Standardization uses the population convention (divide by n), exact on
the fit rows; the std reuses the fit's mean in ``np.std``'s operations,
and ``standardize`` divides its one temporary in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import ContractError, FitError
from .ingest import RawDataset

Stage = Literal["encoded", "standardized", "symmetry-broken"]


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
    """Per-column mean and (strictly positive) population std."""

    mean: np.ndarray
    std: np.ndarray

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
    categorical block. A numeric column is assigned as one slice, and a
    categorical block is one scatter of the domain codes ``ingest`` found.
    """
    schema = raw.schema
    values = np.zeros((raw.n, schema.encoded_width), dtype=np.float64)
    every_row = np.arange(raw.n)
    col = 0
    for attr, column in zip(schema.attributes, raw.columns):
        if attr.kind == "numeric":
            values[:, col] = column
        else:
            values[every_row, col + column] = 1.0
        col += attr.width
    return FeatureMatrix(
        values=values,
        column_names=schema.encoded_column_names(),
        labels=raw.labels.copy(),
        stage="encoded",
    )


def fit_standardizer(
    matrix: FeatureMatrix, fit_rows: Sequence[int] | np.ndarray | None = None
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
    dev = rows - mean
    dev *= dev
    std = np.sqrt(dev.sum(axis=0) / rows.shape[0])  # population std (ddof=0), np.std's operations
    bad = np.flatnonzero(~(std > 0))
    if bad.size:
        names = [matrix.column_names[j] for j in bad]
        raise FitError(f"constant column(s) over fit rows: {names}")
    return StandardizationParams(mean=mean, std=std)


def standardize(matrix: FeatureMatrix, params: StandardizationParams) -> FeatureMatrix:
    """Apply (x - mean) / std column-wise; output is tagged ``standardized``."""
    if params.mean.shape[0] != matrix.m:
        raise ContractError(
            f"params width {params.mean.shape[0]} != matrix width {matrix.m}"
        )
    values = matrix.values - params.mean
    values /= params.std
    return FeatureMatrix(
        values=values,
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


def symmetry_break(matrix: FeatureMatrix, vector: np.ndarray) -> FeatureMatrix:
    """Add the fixed vector to every row of a standardized matrix.

    The output is tagged ``symmetry-broken``; any other input stage is a
    ``ContractError``.
    """
    vector = np.asarray(vector, dtype=np.float64)
    if vector.shape != (matrix.m,):
        raise ContractError(
            f"symmetry vector length {vector.size if vector.ndim == 1 else vector.shape} != matrix width {matrix.m}"
        )
    if matrix.stage != "standardized":
        raise ContractError(
            f"symmetry_break expects a standardized matrix, got stage {matrix.stage!r}"
        )
    return FeatureMatrix(
        values=matrix.values + vector,
        column_names=matrix.column_names,
        labels=matrix.labels,
        stage="symmetry-broken",
    )

