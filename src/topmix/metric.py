"""p-Wasserstein distances between dimension-0 diagrams, as sorted deaths.

A diagram point (b, d) may match a point of the other diagram, at
L-infinity ground cost, or the diagonal, at cost (d - b) / 2. W_p is the
p-th root of the least total cost^p over such partial matchings.

The pipeline's diagrams have every birth at 0 and share one cap, so each
is a row of ascending deaths (see persistence.py): points (0, d) on one
line. Matching (0, a) with (0, b) costs |a - b|^p and sending either to
the diagonal costs (a/2)^p or (b/2)^p. With a convex cost, two crossing
matched pairs a_i < a_k, b_j > b_l never cost less than the uncrossed
pairs, so an optimal matching pairs the ascending deaths a_1..a_n and
b_1..b_n in order (Carriere, Cuturi & Oudot, arXiv:1706.03358). The exact
distance is therefore D[n][n]^(1/p) of the O(n^2) dynamic programme

    D[i][j] = min(D[i-1][j-1] + |a_i - b_j|^p,
                  D[i-1][j] + (a_i/2)^p,
                  D[i][j-1] + (b_j/2)^p),

run on blocks of pairs at once. A diagram with fewer points can be padded
at the front with 0 deaths, points that cost nothing on the diagonal.

The terms are those a general assignment solver sums, but the programme
adds them one by one along its path where the solver's total is summed
exactly (math.fsum). To first order a sum of k <= 2n positive terms is
then off by at most (k - 1) unit roundoffs relative to W^p. On the
297-row Cleveland-shaped table of the tests, the largest relative
difference is ~2.2e-16 at p = 1 (94% of entries bit-equal) and ~2.7e-16
at p = 2; the tests hold every entry within 1e-15 * max(1, W) of the
assignment-solver oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import hashlib
import io
import math
from pathlib import Path

import numpy as np

from .errors import ContractError


# Tags distance caches with the computation that filled them: its entries
# can differ from another algorithm's by an ulp.
ALGORITHM = "zero-birth-dp"

# Pairs per vectorised DP step: larger blocks cost memory (~3 KB per pair
# for 26-point diagrams) without running faster.
_BLOCK_PAIRS = 1024


def _dp_distances(a: np.ndarray, b_rev: np.ndarray, p: float) -> np.ndarray:
    """W_p for a block of pairs: column k compares a[:, k] with b[:, k].

    ``a`` holds ascending deaths, ``b_rev`` the other side's deaths in
    descending order, both (n, block). D[i][j], the cost of the first i
    deaths of a against the first j of b, is filled one anti-diagonal
    s = i + j at a time, stored by i, keeping only the last two. Along an
    anti-diagonal b_j = b_rev[n - s + i], so every operand is a slice.
    """
    n, block = a.shape
    half_a = (a / 2.0) ** p
    half_b = (b_rev / 2.0) ** p
    before, last, cur = (np.empty((n + 1, block)) for _ in range(3))
    last[0] = 0.0
    for s in range(1, 2 * n + 1):
        lo, hi = max(0, s - n), min(s, n)
        if lo == 0:  # D[0][s]: every b_j so far goes to the diagonal
            np.add(last[0], half_b[n - s], out=cur[0])
        if hi == s:  # D[s][0]: every a_i so far goes to the diagonal
            np.add(last[s - 1], half_a[s - 1], out=cur[s])
        r0, r1 = max(1, lo), min(hi, s - 1)  # cells with i >= 1 and j >= 1
        if r0 <= r1:
            b0, b1 = n - s + r0, n - s + r1 + 1
            step = np.abs(a[r0 - 1 : r1] - b_rev[b0:b1])
            if p != 1.0:
                step **= p
            step += before[r0 - 1 : r1]  # match a_i with b_j
            np.minimum(step, last[r0 - 1 : r1] + half_a[r0 - 1 : r1], out=step)
            np.minimum(step, last[r0 : r1 + 1] + half_b[b0:b1], out=cur[r0 : r1 + 1])
        before, last, cur = last, cur, before
    return last[n] ** (1.0 / p)


def distance_matrix(deaths: np.ndarray, p: float = 1.0) -> np.ndarray:
    """All pairwise p-Wasserstein distances between rows of ascending deaths.

    Returns a symmetric matrix with a zero diagonal.

    Raises:
        ContractError: an order p that is not finite and >= 1, or deaths
            that are not a 2-d matrix of at least one row of finite,
            non-negative, ascending values.
    """
    if not (math.isfinite(p) and p >= 1):
        raise ContractError(f"wasserstein order p must be finite and >= 1, got {p!r}")
    deaths = np.asarray(deaths, dtype=np.float64)
    if deaths.ndim != 2 or deaths.shape[0] == 0:
        raise ContractError("distance_matrix needs a 2-d matrix with one row per diagram")
    if not np.isfinite(deaths).all() or (deaths < 0).any() or (np.diff(deaths, axis=1) < 0).any():
        raise ContractError("diagram deaths must be finite, non-negative and ascending in each row")
    n = deaths.shape[0]
    out = np.zeros((n, n), dtype=np.float64)
    rows, cols = np.triu_indices(n, k=1)
    for start in range(0, rows.size, _BLOCK_PAIRS):
        i = rows[start : start + _BLOCK_PAIRS]
        j = cols[start : start + _BLOCK_PAIRS]
        a = np.ascontiguousarray(deaths[i].T)
        b_rev = np.ascontiguousarray(deaths[j, ::-1].T)
        out[i, j] = _dp_distances(a, b_rev, p)
    out += out.T
    return out


def save_distance_matrix(matrix: np.ndarray, path: str | Path) -> tuple[int, str]:
    """Write ``matrix`` in ``.npy`` format: bit-exact and byte-deterministic.

    The cache writes both of its arrays with it: the distance matrix and the
    diagram deaths.

    Returns the byte size and sha256 hex digest of what was written.
    """
    buffer = io.BytesIO()
    np.save(buffer, matrix, allow_pickle=False)
    data = buffer.getvalue()
    Path(path).write_bytes(data)
    return len(data), hashlib.sha256(data).hexdigest()


def load_distance_matrix(path: str | Path) -> np.ndarray:
    return np.load(path, allow_pickle=False)
