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
adds them one by one along its path where the solver's total is exact
(math.fsum): to first order a sum of k <= 2n positive terms is off by at
most (k - 1) unit roundoffs relative to W^p. The tests hold every entry
within 1e-15 * max(1, W) of the solver in ``tests/oracles.py``.

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
so f has slope -1 or +1 there and meets the equalities. With
s_k = a_k - b_k and r_k = a_{k+1} - a_k, f gains over [a_k, a_{k+1}],
where F_A = k, P_{k+1} = clamp(s_{k+1}, 0, r_k) past b_{k+1} and
N_k = clamp(s_k, -r_k, 0) before b_k (P_1 = (s_1)+, N_n = 0). One of P_k
and N_k is 0, so one clamp per rank gives both, without merging a and b:

    C_k = clamp(s_k, -r_k, r_{k-1}) = P_k + N_k,   N_k = min(C_k, 0),
    f(a_k) = C_1 + ... + C_k - N_k,   f(b_k) = f(a_k) - |s_k|.

A settled pair's distance is the diagonal path summed in float64 in the
programme's order, ((|a_1 - b_1| + |a_2 - b_2|) + ...), and it is
bit-identical to the programme's result. Rounding is monotone (x <= y
implies fl(x + c) <= fl(y + c)), so by induction each D[i][j] is the
least, over the paths to (i, j), of that path's terms summed in floats in
path order. A path of at most 2n terms is summed within a relative
gamma = 2n 2^-53: one that costs at least 2 gamma S / (1 - gamma)
~ 4 n^2 2^-53 cap more than the sorted cost S <= n cap, cap the largest
death, sums in floats to no less.

The gap is computed exactly in integers. With 2^(e-1) <= cap < 2^e and
Q = 14 for int16 or 30 for int32, each death is scaled by 2^(Q - e) and
truncated to an integer in [0, 2^Q), less than one unit (LSB) off and
still ascending in its row. That moves s_k, r_k and C_k (a clamp moves
no further than its arguments) by less than 2, f(a_k), k such terms, by
less than 2n, and G by less than 4n + 3. The halves are x >> 1, which
lowers the gap by at most 1; every other step is exact. So the margin
M = 4n + 4 + ceil(14 n^2 2^(Q - 53)) settles a pair only if
G > 14 n^2 2^(e - 53): 14 n^2 ulp(cap) for a normal cap, more than the
4 n^2 2^-53 cap / (1 - gamma) above. Nothing wraps: as |f(x)| <= x,
f(a_k) lies in [-2^Q, 2^Q], each prefix sum f(a_k) + min(C_k, 0) above
-2^(Q+1), and each hi term f(b_k) + b_k/2 and lo term f(a_k) - a_k/2
within +-1.5 2^Q; hi - lo is taken in int64. A run int16 leaves
unsettled is decided again at int32, where runs start once int16 has
left more than it settled. Up to width 8,177 (8n + 7 + ceil(14 n^2
2^-23) <= 2^16) a pair int16 settles has G > 1 int16 LSB = 2^16 int32
LSBs, beyond int32's error and margin, so the counts are int32's
whichever type ran, and ``ALGORITHM`` needs no tag. This settles all
43,956 pairs of the tests' 297-row Cleveland-shaped table under the
default symmetry vector and 12,725 under the zero vector. Other orders p
always run the programme.

When every row's last death is the same cap c, a_{m+1} = b_{m+1} = c,
the certificate reads only the first m deaths of each row. The pair
(c, c) adds |c - c| = +0 to the cost, which leaves its bits unchanged,
and it never decides the gap. Beyond max(a_m, b_m) both sides count m
deaths until c, so f is constant there: f(c) = f(max(a_m, b_m)). If
a_m <= b_m, then f(c) + c/2 = f(b_m) + c/2 >= f(b_m) + b_m/2; if
a_m > b_m, f rises with slope +1 from b_m to a_m, so f(c) >= f(b_m) and
the same holds. Likewise f(c) - c/2 <= f(a_m) - a_m/2. The cap's two gap
terms are thus dominated by the m-th ones, and G is the same with or
without them. (At m = 0 the gap is the type's range: each cost is +0,
which no path undercuts.) The margin is still computed from the full
width and the largest death, so it covers the gap over m columns too.

Pairs are enumerated by cyclic offset, so the certificate reads views of
the deaths, not gathered copies. Offset delta pairs row i with row
(i + delta) % n, and offsets 1..n//2 meet every unordered pair once;
at even n the offset n/2 meets each of its pairs twice, so only i < n/2
counts there. With the deaths stored twice side by side, row
(i + delta) % n is column i + delta, so a block of offsets over a run of
rows is a sliding-window view, and the row-only terms (halves and rises)
are computed once per row. A settled cost goes straight into the upper
triangle, which is then mirrored. A wrapped pair (i + delta >= n) reaches
the certificate with a = the larger row index. Its cost has the same bits
in either orientation: |a_k - b_k| is exact in both, and the sum runs in
the same order. So has its computed gap: the integers are exact, and
swapping the sides negates f and swaps the two extremes. A block
programmes the pairs it leaves, smaller row index as a, in near-equal
calls of at most _BLOCK_PAIRS.

Every array the certificate reads or writes is row-major, indexed
[k, offset, row], so its last axis, the rows, is contiguous and every
operation streams through memory at unit stride. The deaths stored twice
are therefore one C-order array of m rows by 2n columns, filled half by
half. A block's cost is one reduction over its outer axis k, which numpy
adds row by row, the programme's path order, when the block holds two or
more pairs; every block does at _BLOCK_PAIRS = 1024 for any n up to
300,000. Over a contiguous k axis, or for a lone pair, numpy would add
pairwise and round differently.
"""

from __future__ import annotations

import functools
import logging
import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ContractError

logger = logging.getLogger("topmix")

# Tags distance caches with the computation that filled them: its entries
# can differ from another algorithm's by an ulp.
ALGORITHM = "zero-birth-dp"

# Pairs per vectorised DP call, at most: larger calls cost memory (~3 KB
# per pair for 26-point diagrams) without running faster. A block of the
# sorted certificate spans at most _BLOCK_PAIRS / 2 rows (n split evenly)
# and as many whole offsets as 4 * _BLOCK_PAIRS pairs hold, at least one.
# So its float64 steps, then its three int16 and three int32 work arrays,
# take turns in one buffer of 12 bytes per death of 4 * _BLOCK_PAIRS
# diagrams, and the row terms a block reads stay cache-sized at any n.
_BLOCK_PAIRS = 1024

# Rows per step when the upper triangle is mirrored into the lower: each
# step copies between small blocks, never a full-size temporary.
_MIRROR_ROWS = 64


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
    a: Sequence[np.ndarray], b: Sequence[np.ndarray], margin: int, scratch: Sequence[np.ndarray]
) -> np.ndarray:
    """At p = 1: which pairs the sorted full matching settles, decided exactly on integer deaths.

    ``a`` is one side as (deaths, deaths >> 1, rise[k] = deaths[k + 1] -
    deaths[k], floor -r_k or 0 at the last rank), ``b`` the other as (deaths,
    deaths >> 1), quantized as in ``_fill_upper``, indexed [k, ...] by death
    and broadcasting against each other; ``scratch`` is three arrays of their
    type and shape, overwritten. Settled: f proves ``margin`` LSBs or more.
    """
    a, half_a, rise, floor = a
    b, half_b = b
    s, d, f = scratch
    np.subtract(a, b, out=s)
    np.abs(s, out=d)
    np.maximum(s, floor, out=f)
    np.minimum(f[1:], rise, out=f[1:])  # C_k = clamp(a_k - b_k, -r_k, r_{k-1})
    np.minimum(f, np.zeros(f.shape[-1], f.dtype), out=s)  # min(C_k, 0): the scalar 0 ran ~6x slower
    for k in range(1, len(f)):
        f[k] += f[k - 1]
    f -= s  # f(a_k) = C_1 + ... + C_k - min(C_k, 0)
    np.subtract(half_b, d, out=d)
    d += f  # f(b_k) + b_k/2, as f(b_k) = f(a_k) - |a_k - b_k|
    hi = np.minimum.reduce(d, axis=0, initial=np.iinfo(d.dtype).max)
    f -= half_a  # f(a_k) - a_k/2
    lo = np.maximum.reduce(f, axis=0, initial=np.iinfo(f.dtype).min)
    return np.subtract(hi, lo, dtype=np.int64) >= margin


@functools.cache
def _path_order() -> bool:
    """Whether np.add.reduce sums an outer axis row by row, as costs need (run lazily: a first reduce adds RSS)."""
    # 2^53 then fifteen 1.0s: in path order each 1.0 rounds away, a pairwise sum keeps some
    return bool(np.add.reduce(np.vstack([[2.0**53] * 2, np.ones((15, 2))]), axis=0).max() == 2.0**53)


def _fill_upper(deaths: np.ndarray, p: float, out: np.ndarray) -> int:
    """Every pair of rows once, by cyclic offset, into the upper triangle of ``out``; returns the pairs programmed.

    Offset delta pairs row i with row (i + delta) % n. Offsets 1..n//2
    meet each unordered pair once, except delta = n/2 at even n, which
    meets each of its pairs twice and keeps i < n/2. At p = 1 the
    certificate settles what it can of each block of offsets; the
    programme runs on the rest of the block, at most _BLOCK_PAIRS pairs
    per call, and on every pair when p != 1. The certificate's scratch
    lives in buffers reused by every block: fresh arrays of that size
    cost more in page faults than in arithmetic.
    """
    if p == 1.0 and not _path_order():
        raise ContractError(f"numpy {np.__version__} does not add a block's outer axis row by row, in path order")
    n, width = deaths.shape
    offsets = n // 2
    runs = -(-n // max(1, _BLOCK_PAIRS // 2))
    span = -(-n // runs)  # rows per block: n split evenly into runs of at most _BLOCK_PAIRS / 2
    per_block = max(1, min(offsets, 4 * _BLOCK_PAIRS // span))
    # a cap every row shares adds +0 to each cost and never decides a gap
    cols = width - 1 if width and (deaths[:, -1] == deaths[0, -1]).all() else width
    twice = np.empty((cols, 2 * n))  # row-major: every window steps through memory at unit stride
    twice[:, :n] = deaths[:, :cols].T
    twice[:, n:] = twice[:, :n]
    # Sized to the bound and the full width, not to this n or the columns
    # read (a shared cap is skipped): glibc raises its mmap threshold to
    # the largest block freed, and a smaller buffer here left later warm runs
    # in the same process ~20% slower (k-fold on 297 rows, measured).
    work = np.empty((3, width * 4 * _BLOCK_PAIRS), np.int32)
    steps = work[:2].reshape(-1).view(np.float64)  # read before any integer work array is written
    windows = sliding_window_view(twice, n, axis=1)  # window delta, column i is row (i + delta) % n: a view, no gather
    e = math.frexp(deaths.max(initial=0.0))[1]
    gaps = {}  # each integer type's terms, margin and scratch, by q, built when first tried
    misses = 0  # runs int16 left unsettled, less those it settled: above 0, int32 decides first
    flat = out.reshape(-1)
    programmed = 0
    for first in range(1, offsets + 1, per_block):
        stop = min(first + per_block, offsets + 1)
        settled = np.zeros((stop - first, n), dtype=bool)
        if p == 1.0:
            cost = np.empty((stop - first, n))
            for i0 in range(0, n, span):
                i1 = min(i0 + span, n)
                shape = (cols, stop - first, i1 - i0)
                run = steps[: math.prod(shape)].reshape(shape)
                np.subtract(twice[:, None, i0:i1], windows[:, first:stop, i0:i1], out=run)
                np.abs(run, out=run)
                cost[:, i0:i1] = np.add.reduce(run, axis=0, initial=0.0)  # row by row over k, the path order
                for dtype, q in ((np.int16, 14), (np.int32, 30))[misses > 0 :]:  # q: 2 bits below the type's
                    if q not in gaps:
                        ints = np.ldexp(twice, q - e).astype(dtype)  # truncated into [0, 2^q): see the module docstring
                        halves = ints >> 1
                        rise = np.diff(ints[:, :n], axis=0, append=ints[-1:, :n])[:, None, :]  # r_k, 0 at the last rank
                        a = (ints[:, None, :n], halves[:, None, :n], rise[:-1], np.negative(rise))
                        b = [sliding_window_view(side, n, axis=1) for side in (ints, halves)]
                        gaps[q] = (a, b, 4 * width + 4 - (-14 * width**2 // 2 ** (53 - q)), [*work.view(dtype)])
                    a, b, margin, buffers = gaps[q]
                    run_a, run_b = [term[..., i0:i1] for term in a], [w[:, first:stop, i0:i1] for w in b]
                    scratch = [buffer[: run.size].reshape(shape) for buffer in buffers]
                    settled[:, i0:i1] = _sorted_certificate(run_a, run_b, margin, scratch)
                    if settled[:, i0:i1].all():
                        break
                    if misses == 0 and q == 14:  # int16 never runs again: free its terms before int32's are built
                        del gaps[q], a, b, run_a, run_b, ints, halves, rise
                misses += 1 if q == 30 else -1
            for delta, costs in zip(range(first, stop), cost):
                keep = n - delta  # i < keep pairs (i, i + delta); the rest wrap to (i + delta - n, i)
                flat[delta : keep * (n + 1) : n + 1] = costs[:keep]
                flat[keep : keep + delta * (n + 1) : n + 1] = costs[keep:]
        if settled.all():
            continue
        offset, i = np.nonzero(~settled)
        delta = offset + first
        j = (i + delta) % n
        kept = (2 * delta < n) | (i < j)
        pairs = np.stack([np.minimum(i, j)[kept], np.maximum(i, j)[kept]])
        # near-equal calls, not full ones and a short tail: faster in most runs at 297 rows, zero vector
        for r, c in np.array_split(pairs, -(-pairs.shape[1] // _BLOCK_PAIRS), axis=1):
            a_side = np.ascontiguousarray(deaths[r].T)
            b_rev = np.ascontiguousarray(deaths[c, ::-1].T)
            out[r, c] = _dp_distances(a_side, b_rev, p)
        programmed += pairs.shape[1]
    return programmed


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
    pairs = n * (n - 1) // 2
    with np.errstate(over="ignore"):  # an overflow is raised below, as an error
        programmed = _fill_upper(deaths, p, out)
    logger.info(
        "distances: %d pairs, %d settled by the sorted certificate, %d by the dynamic programme",
        pairs, pairs - programmed, programmed,
    )
    if not math.isfinite(out.max()):  # every entry is >= 0 or NaN, and max propagates NaN
        raise ContractError(
            f"distances at p = {p!r} are not finite: the p-th powers of the deaths overflow float64"
        )
    for r0 in range(0, n, _MIRROR_ROWS):  # the lower triangle is still +0, so x + 0 = x bit for bit
        r1 = min(r0 + _MIRROR_ROWS, n)
        out[r0:r1, :r0] = out[:r0, r0:r1].T
        corner = out[r0:r1, r0:r1]
        corner += corner.T
    return out
