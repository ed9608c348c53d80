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

At p = 1 most pairs are settled without the programme. The sorted full
matching, a_k with b_k for every k, is the programme's diagonal path, and
LP duality proves it optimal when some 1-Lipschitz f has
f(a_k) - f(b_k) = |a_k - b_k| for every k and a positive gap

    G = min_k (f(b_k) + b_k/2) - max_k (f(a_k) - a_k/2).

Any other path sends the same number r >= 1 of a's and of b's to the
diagonal, and its cost minus the sorted cost is

    sum over matched (i, j) of |a_i - b_j| - (f(a_i) - f(b_j))     (>= 0)
    + sum over a_i sent to the diagonal of a_i/2 - f(a_i)
    + sum over b_j sent to the diagonal of b_j/2 + f(b_j)          (>= r G).

``_sorted_certificate`` takes the canonical f(x) = integral over [0, x]
of sign(F_B - F_A), where F_A and F_B count the deaths <= t: between a_k
and b_k at least k deaths of one side and fewer of the other lie below t,
so f has slope -1 or +1 there and meets the equalities. Built from its
increments, it needs no merge of a and b, only O(n) work per pair:

    f(a_1)     = (a_1 - b_1)+
    f(a_{k+1}) = f(a_k) + (a_{k+1} - max(a_k, b_{k+1}))+
                        - (min(b_k, a_{k+1}) - a_k)+
    f(b_k)     = f(a_k) - |a_k - b_k|.

A settled pair's distance is the diagonal path summed in the programme's
order, ((|a_1 - b_1| + |a_2 - b_2|) + ...), and it is bit-identical to
the programme's result. Rounding is monotone (x <= y implies
fl(x + c) <= fl(y + c)), so by induction each D[i][j] is the least, over
the paths to (i, j), of that path's terms summed in floats in path
order. A path of at most 2n terms is summed within a relative
gamma = 2n u (u = 2^-53) of its exact cost, the sorted cost is at most
n * cap, and the computed gap is within (8n + 8) u * cap of G. So a
computed gap of at least the margin 32 n^2 ulp(cap), with cap the largest
death, leaves every other path's float sum at or above the diagonal's.
``ALGORITHM`` is therefore unchanged, and caches tagged with it stay valid.
On the 297-row Cleveland-shaped tables this settles every pair under the
default symmetry vector and about a quarter under the zero vector; the
programme runs, in full blocks, on the pairs left. Other orders p always
run the programme.
"""

from __future__ import annotations

import logging
import math
from typing import Sequence

import numpy as np

from .errors import ContractError

logger = logging.getLogger("topmix")

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
    step_buf, via_buf = np.empty((n, block)), np.empty((n, block))  # fresh ones fault per step
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
            step, via = step_buf[: r1 - r0 + 1], via_buf[: r1 - r0 + 1]
            np.subtract(a[r0 - 1 : r1], b_rev[b0:b1], out=step)
            np.abs(step, out=step)
            if p != 1.0:
                step **= p
            step += before[r0 - 1 : r1]  # match a_i with b_j
            np.add(last[r0 - 1 : r1], half_a[r0 - 1 : r1], out=via)
            np.minimum(step, via, out=step)
            np.add(last[r0 : r1 + 1], half_b[b0:b1], out=via)
            np.minimum(step, via, out=cur[r0 : r1 + 1])
        before, last, cur = last, cur, before
    return last[n] ** (1.0 / p)


def _sorted_certificate(
    a: np.ndarray, b: np.ndarray, margin: float, scratch: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """At p = 1: which pairs the sorted full matching settles, and its cost.

    ``a`` and ``b`` hold ascending deaths, both (n, block); column k
    compares a[:, k] with b[:, k]. ``scratch`` is four arrays of that
    shape, overwritten. A pair is settled when the canonical potential f
    proves every other path of the programme at least ``margin`` dearer
    (see the module docstring). The cost is the diagonal path of
    ``_dp_distances``, summed in its order.
    """
    s, d, f, rise = scratch
    rise = rise[1:]
    np.subtract(a, b, out=s)
    np.abs(s, out=d)
    np.subtract(a[1:], a[:-1], out=rise)
    np.maximum(s[:1], 0.0, out=f[:1])  # f(a_1) = (a_1 - b_1)+
    np.minimum(s[1:], rise, out=f[1:])
    np.maximum(f[1:], 0.0, out=f[1:])  # (a_{k+1} - max(a_k, b_{k+1}))+
    np.negative(rise, out=rise)
    np.maximum(s[:-1], rise, out=rise)
    np.minimum(rise, 0.0, out=rise)  # -(min(b_k, a_{k+1}) - a_k)+
    f[1:] += rise
    for k in range(1, len(f)):
        f[k] += f[k - 1]
    np.multiply(b, 0.5, out=s)
    s -= d
    s += f  # f(b_k) + b_k/2, as f(b_k) = f(a_k) - |a_k - b_k|
    hi = np.min(s, axis=0, initial=np.inf)
    np.multiply(a, 0.5, out=s)
    np.subtract(f, s, out=s)  # f(a_k) - a_k/2
    lo = np.max(s, axis=0, initial=-np.inf)
    cost = np.zeros(a.shape[1])
    for row in d:
        cost += row
    return hi - lo >= margin, cost


def _settle_sorted(deaths: np.ndarray, rows: np.ndarray, cols: np.ndarray, out: np.ndarray) -> np.ndarray:
    """At p = 1: fill in ``out`` every pair (rows[t], cols[t]) the certificate settles.

    Returns the positions t of the pairs left for the programme, ascending.
    The gathered rows and the scratch live in one buffer, reused by every
    block: fresh arrays of that size cost more in page faults than in
    arithmetic.
    """
    width = deaths.shape[1]
    columns = np.ascontiguousarray(deaths.T)
    margin = 32 * width * width * float(np.spacing(deaths.max(initial=0.0)))
    work = np.empty((6, width * _BLOCK_PAIRS))
    left = []
    for start in range(0, rows.size, _BLOCK_PAIRS):
        i = rows[start : start + _BLOCK_PAIRS]
        j = cols[start : start + _BLOCK_PAIRS]
        a, b, *scratch = (buffer[: width * i.size].reshape(width, i.size) for buffer in work)
        # the indices are in range; "clip" lets take write into ``out`` unbuffered
        columns.take(i, axis=1, out=a, mode="clip")
        columns.take(j, axis=1, out=b, mode="clip")
        settled, cost = _sorted_certificate(a, b, margin, scratch)
        out[i[settled], j[settled]] = cost[settled]
        left.append(start + np.flatnonzero(~settled))
    return np.concatenate(left) if left else np.zeros(0, dtype=np.intp)


def distance_matrix(deaths: np.ndarray, p: float = 1.0) -> np.ndarray:
    """All pairwise p-Wasserstein distances between rows of ascending deaths.

    Returns a symmetric matrix with a zero diagonal. At p = 1 the sorted
    certificate settles what it can and the programme runs on the rest;
    one INFO line reports how many pairs each settled.

    Raises:
        ContractError: an order p that is not finite and >= 1; deaths
            that are not a 2-d matrix of at least one row of finite,
            non-negative, ascending values; or a distance that is not
            finite (at a large p the p-th powers overflow).
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
    pairs = rows.size
    with np.errstate(over="ignore"):  # an overflow is raised below, as an error
        if p == 1.0:
            left = _settle_sorted(deaths, rows, cols, out)
            rows, cols = rows[left], cols[left]
        for start in range(0, rows.size, _BLOCK_PAIRS):
            i = rows[start : start + _BLOCK_PAIRS]
            j = cols[start : start + _BLOCK_PAIRS]
            a = np.ascontiguousarray(deaths[i].T)
            b_rev = np.ascontiguousarray(deaths[j, ::-1].T)
            out[i, j] = _dp_distances(a, b_rev, p)
    logger.info(
        "distances: %d pairs, %d settled by the sorted certificate, %d by the dynamic programme",
        pairs, pairs - rows.size, rows.size,
    )
    if not math.isfinite(out.max()):  # every entry is >= 0 or NaN, and max propagates NaN
        raise ContractError(
            f"distances at p = {p!r} are not finite: the p-th powers of the deaths overflow float64"
        )
    out += out.T
    return out

