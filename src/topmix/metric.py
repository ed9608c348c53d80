"""p-Wasserstein distances between persistence diagrams.

A diagram point (b, d) may match a point of the other diagram, at
L-infinity ground cost, or the diagonal, at cost (d - b) / 2. W_p is the
p-th root of the least total cost^p over such partial matchings.

``distance_matrix`` serves the pipeline, whose diagrams are dimension-0
diagrams with every birth at 0: points (0, d) on one line. Matching
(0, a) with (0, b) costs |a - b|^p and sending either to the diagonal
costs (a/2)^p or (b/2)^p. With a convex cost, two crossing matched pairs
a_i < a_k, b_j > b_l never cost less than the uncrossed pairs, so an
optimal matching pairs the ascending deaths a_1..a_n and b_1..b_n in
order (Carriere, Cuturi & Oudot, arXiv:1706.03358). The exact distance is
therefore D[n][n]^(1/p) of the O(n^2) dynamic programme

    D[i][j] = min(D[i-1][j-1] + |a_i - b_j|^p,
                  D[i-1][j] + (a_i/2)^p,
                  D[i][j-1] + (b_j/2)^p),

run on blocks of pairs at once. Diagrams of unequal size are padded at the
front with (0, 0) points, which cost nothing on the diagonal and so leave
the distance unchanged. A diagram with a nonzero birth is rejected.

The terms are the same floats ``wasserstein`` sums, but the programme adds
them one by one along its path where ``wasserstein`` sums them exactly
(math.fsum). To first order a sum of k <= 2n positive terms is then off by
at most (k - 1) unit roundoffs relative to W^p. On the 297-row
Cleveland-shaped table of the tests, the largest relative difference is
~2.2e-16 at p = 1 (94% of entries bit-equal) and ~2.7e-16 at p = 2; the
tests hold every entry within 1e-15 * max(1, W).

``wasserstein`` handles general diagrams and is the oracle for the
programme: it solves the (n1 + n2)-square augmented assignment problem
with scipy, one diagonal slot per point of the other diagram, canonically
ordering its arguments so that w(a, b) == w(b, a) bit for bit. Appending
the same capped essential pair to both diagrams leaves either distance
unchanged (the new points match at zero cost).
"""

from __future__ import annotations

import hashlib
import io
import math
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ContractError
from .persistence import PersistenceDiagram


def _check_comparable(d1: PersistenceDiagram, d2: PersistenceDiagram) -> None:
    if d1.dimension != d2.dimension:
        raise ContractError(
            f"diagram dimensions differ: {d1.dimension} vs {d2.dimension}"
        )
    if d1.maxscale != d2.maxscale:
        raise ContractError(
            f"diagram caps differ: {d1.maxscale!r} vs {d2.maxscale!r}; "
            "diagrams are only comparable under a shared cap"
        )


def _canonical_order(
    d1: PersistenceDiagram, d2: PersistenceDiagram
) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    # Fixed argument order makes the whole computation, and hence the
    # floating-point result, symmetric in the inputs.
    k1 = (len(d1), d1.pairs.tobytes())
    k2 = (len(d2), d2.pairs.tobytes())
    return (d1, d2) if k1 <= k2 else (d2, d1)


def _augmented_costs(d1: PersistenceDiagram, d2: PersistenceDiagram) -> np.ndarray:
    """(n1+n2) x (n1+n2) matrix of L-infinity ground costs (no exponent).

    Layout: rows = d1 points then d2-sized diagonal slots; columns = d2
    points then d1-sized diagonal slots. Diagonal-to-diagonal entries are 0.
    """
    p1, p2 = d1.pairs, d2.pairs
    n1, n2 = len(d1), len(d2)
    cost = np.zeros((n1 + n2, n1 + n2), dtype=np.float64)
    if n1 and n2:
        db = np.abs(p1[:, 0, None] - p2[None, :, 0])
        dd = np.abs(p1[:, 1, None] - p2[None, :, 1])
        cost[:n1, :n2] = np.maximum(db, dd)
    if n1:
        cost[:n1, n2:] = ((p1[:, 1] - p1[:, 0]) / 2.0)[:, None]
    if n2:
        cost[n1:, :n2] = ((p2[:, 1] - p2[:, 0]) / 2.0)[None, :]
    return cost


def wasserstein(d1: PersistenceDiagram, d2: PersistenceDiagram, p: float = 1.0) -> float:
    """Exact p-Wasserstein distance between two diagrams under a shared cap."""
    _check_comparable(d1, d2)
    if not (math.isfinite(p) and p >= 1):
        raise ContractError(f"wasserstein order p must be finite and >= 1, got {p!r}")
    a, b = _canonical_order(d1, d2)
    if len(a) + len(b) == 0:
        return 0.0
    cost = _augmented_costs(a, b) ** p
    rows, cols = linear_sum_assignment(cost)
    total = math.fsum(cost[rows, cols].tolist())
    return total ** (1.0 / p)


def _check_family(diagrams: Sequence[PersistenceDiagram]) -> None:
    if not diagrams:
        raise ContractError("distance_matrix needs at least one diagram")
    first = diagrams[0]
    for d in diagrams[1:]:
        _check_comparable(first, d)


# Tags distance caches with the computation that filled them: its entries
# can differ from another algorithm's by an ulp.
ALGORITHM = "zero-birth-dp"

# Pairs per vectorised DP step: larger blocks cost memory (~3 KB per pair
# for 26-point diagrams) without running faster.
_BLOCK_PAIRS = 1024


def _sorted_deaths(diagrams: Sequence[PersistenceDiagram]) -> np.ndarray:
    """(rows, points) ascending deaths, shorter diagrams front-padded with 0."""
    width = max(len(d) for d in diagrams)
    deaths = np.zeros((len(diagrams), width), dtype=np.float64)
    for row, d in enumerate(diagrams):
        if d.pairs[:, 0].any():
            raise ContractError(
                "distance_matrix needs diagrams whose births are all 0; "
                "compare general diagrams pairwise with wasserstein()"
            )
        deaths[row, width - len(d) :] = d.deaths
    return deaths


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


def distance_matrix(diagrams: Sequence[PersistenceDiagram], p: float = 1.0) -> np.ndarray:
    """All pairwise p-Wasserstein distances: symmetric with zero diagonal.

    Raises:
        ContractError: an empty family, mixed caps or dimensions, an order
            p that is not finite and >= 1, or a diagram with a nonzero
            birth (use ``wasserstein`` for those).
    """
    _check_family(diagrams)
    if not (math.isfinite(p) and p >= 1):
        raise ContractError(f"wasserstein order p must be finite and >= 1, got {p!r}")
    deaths = _sorted_deaths(diagrams)
    n = len(diagrams)
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

    Returns the byte size and sha256 hex digest of what was written.
    """
    buffer = io.BytesIO()
    np.save(buffer, matrix, allow_pickle=False)
    data = buffer.getvalue()
    Path(path).write_bytes(data)
    return len(data), hashlib.sha256(data).hexdigest()


def load_distance_matrix(path: str | Path) -> np.ndarray:
    return np.load(path, allow_pickle=False)
