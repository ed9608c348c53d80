"""Distances between persistence diagrams via optimal matching.

Diagram distances must compare multisets of unequal size, so each diagram
is augmented with one diagonal slot per point of the other diagram: a
point may match a real point (L-infinity ground cost) or its nearest
diagonal projection (cost = half its persistence), and diagonal slots
match each other for free. The p-Wasserstein distance is then the p-th
root of the minimal total cost^p over perfect matchings of the augmented
problem, solved exactly with scipy's assignment solver.

Two determinism guarantees beyond exactness:
  * arguments are canonically ordered before solving, and the selected
    costs are totalled with math.fsum (exactly-rounded, order-invariant),
    so w(a, b) == w(b, a) bit-for-bit;
  * appending the same capped essential pair to both diagrams provably
    leaves the distance unchanged (the new points match at zero cost).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
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


# Worker state for process-parallel distance computation. Each worker
# receives the full diagram list once (at pool start), then row indices.
_WORKER_DIAGRAMS: list[PersistenceDiagram] = []
_WORKER_P: float = 1.0


def _init_worker(diagrams: list[PersistenceDiagram], p: float) -> None:
    global _WORKER_DIAGRAMS, _WORKER_P
    _WORKER_DIAGRAMS = diagrams
    _WORKER_P = p


def _row_distances(i: int) -> tuple[int, list[float]]:
    row = [
        wasserstein(_WORKER_DIAGRAMS[i], _WORKER_DIAGRAMS[j], _WORKER_P)
        for j in range(i + 1, len(_WORKER_DIAGRAMS))
    ]
    return i, row


def distance_matrix(
    diagrams: Sequence[PersistenceDiagram],
    p: float = 1.0,
    threads: int = 1,
) -> np.ndarray:
    """All pairwise p-Wasserstein distances: symmetric with zero diagonal.

    Entries are independent, so the result is identical for any worker
    count; ``threads`` > 1 distributes rows over a process pool.
    """
    _check_family(diagrams)
    n = len(diagrams)
    out = np.zeros((n, n), dtype=np.float64)
    diagrams = list(diagrams)
    if threads > 1 and n > 2:
        with ProcessPoolExecutor(
            max_workers=threads, initializer=_init_worker, initargs=(diagrams, p)
        ) as pool:
            for i, row in pool.map(_row_distances, range(n - 1), chunksize=8):
                out[i, i + 1 :] = row
    else:
        for i in range(n - 1):
            out[i, i + 1 :] = [
                wasserstein(diagrams[i], diagrams[j], p) for j in range(i + 1, n)
            ]
    out += out.T
    return out


def save_distance_matrix(matrix: np.ndarray, path: str | Path, delimiter: str = ",") -> None:
    """Row-major delimited text; floats written in shortest round-trip form."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in matrix:
            fh.write(delimiter.join(repr(float(v)) for v in row) + "\n")


def load_distance_matrix(path: str | Path, delimiter: str = ",") -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(delimiter)])
    matrix = np.asarray(rows, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ContractError(f"distance cache {path} is not a square matrix")
    return matrix
