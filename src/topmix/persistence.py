"""Dimension-0 persistence of the projection clouds, in closed form.

The cloud of a row x is {x, p_1(x), ..., p_m(x)}, where p_i(x) is x with
coordinate i zeroed, so d(x, p_i) = |x_i| <= sqrt(x_i^2 + x_j^2) =
d(p_i, p_j). By the cycle property the star centred at x is therefore a
minimum spanning tree; no stage builds the cloud itself. The
dimension-0 Rips diagram records exactly the minimum-spanning-tree edge
weights as deaths of components born at scale 0 (Edelsbrunner & Harer,
*Computational Topology*), so the diagram of x is the sorted |x_i| plus one
component that never dies. That essential component is recorded with
death equal to a filtration cap shared by all rows, so diagrams stay
mutually comparable.

A family of diagrams is therefore one (n, m+1) matrix of ascending
deaths, allocated once (|x| sorted in place, the cap in the last column);
every birth is 0. ``PersistenceDiagram`` is the general (birth, death)
form, built only as a view of one such row and as the oracles' input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass(frozen=True)
class PersistenceDiagram:
    """Multiset of (birth, death) pairs at one homology dimension, with a cap.

    Pairs are kept sorted by (death, birth) so equal diagrams are
    representation-identical.
    """

    pairs: np.ndarray
    maxscale: float
    dimension: int = 0

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.float64).reshape(-1, 2)
        order = np.lexsort((pairs[:, 0], pairs[:, 1]))
        object.__setattr__(self, "pairs", pairs[order])
        if self.maxscale <= 0:
            raise ContractError("maxscale must be positive")
        if pairs.size:
            births, deaths = pairs[:, 0], pairs[:, 1]
            if (births < 0).any() or (births > deaths).any() or (deaths > self.maxscale).any():
                raise ContractError("diagram pairs must satisfy 0 <= birth <= death <= maxscale")

    def __len__(self) -> int:
        return self.pairs.shape[0]

    @property
    def deaths(self) -> np.ndarray:
        return self.pairs[:, 1]


def dim0_diagrams(
    values: np.ndarray, maxscale: float | None = None, safety: float = 1.1
) -> tuple[np.ndarray, float]:
    """Deaths of every row's diagram, and the shared cap.

    Row i of the (n, m+1) result is the ascending |x_i| of row i followed by
    the cap, the death of the one component that never dies.

    Without an explicit ``maxscale`` the cap is ``safety`` times the largest
    distance in any cloud. That distance is sqrt(a1^2 + a2^2) for the two
    largest magnitudes a1 >= a2 of a row, or a1 when rows have a single
    coordinate. If every row is zero the cap is ``safety`` itself.

    Raises:
        ContractError: an empty or non-finite matrix, a safety below 1 or
            not finite, a maxscale not positive and finite (a computed one
            included: safety times the largest distance can overflow), or an explicit
            maxscale below some |x_i|
            (a cap that would truncate finite features is an error, never a
            silent clamp).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ContractError("diagram input must be a non-empty 2-d matrix")
    if not np.isfinite(x).all():
        raise ContractError("diagram input must be finite")
    deaths = np.empty((x.shape[0], x.shape[1] + 1))
    mags = np.abs(x, out=deaths[:, :-1])
    mags.sort(axis=1)
    if maxscale is None:
        if not 1 <= safety < np.inf:  # NaN fails every comparison
            raise ContractError(f"safety factor must be finite and >= 1, got {safety!r}")
        if x.shape[1] == 1:
            top = float(mags[:, -1].max())
        else:
            top = float(np.sqrt(mags[:, -1] ** 2 + mags[:, -2] ** 2).max())
        # all-zero rows still need a positive cap
        maxscale = float(safety * top) if top > 0 else float(safety)
        if maxscale == np.inf:
            raise ContractError(
                f"maxscale overflows: safety factor {safety!r} times the largest "
                f"cloud distance {top!r} is not finite"
            )
    elif not 0 < maxscale < np.inf:
        raise ContractError(f"maxscale must be positive and finite, got {maxscale!r}")
    else:
        maxscale = float(maxscale)
        largest = float(mags[:, -1].max())
        if largest > maxscale:
            raise ContractError(
                f"maxscale too small: components merge at distance {largest!r} "
                f"> maxscale {maxscale!r}"
            )
    deaths[:, -1] = maxscale
    return deaths, maxscale
