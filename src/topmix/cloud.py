"""Per-record point clouds built from coordinate-zeroing projections.

A single feature row x in R^m becomes the m+1 point multiset
{x, p_1(x), ..., p_m(x)} where p_i zeroes the i-th coordinate. Its
pairwise distances have closed forms, d(x, p_i(x)) = |x_i| and
d(p_i(x), p_j(x)) = sqrt(x_i^2 + x_j^2), so the persistence stage works
from those magnitudes directly (see persistence.py). The explicit cloud is
built only for display.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError


def build_point_cloud(x: np.ndarray) -> np.ndarray:
    """The (m+1, m) array of points [x, p_1(x), ..., p_m(x)] of a feature row."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ContractError("point cloud input must be a non-empty 1-d vector")
    if not np.isfinite(x).all():
        raise ContractError("point cloud input must be finite")
    m = x.shape[0]
    points = np.tile(x, (m + 1, 1))
    points[np.arange(1, m + 1), np.arange(m)] = 0.0
    return points
