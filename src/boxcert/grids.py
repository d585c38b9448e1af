"""Integer-indexed grids over the unit box and the hyperrectangles on them.

Axis k of the unit box [0, 1]^m holds ``cells[k]`` equal cells, so its grid
points are index/cells[k]. Corner rectangles are stored as integer index pairs
so gadget weights can be formed from exact integer products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def ramp_steepness(dim: int) -> int:
    """Power-of-two factor 2^(ceil(log2(2m))+1) that makes bumps collapse off-support."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return 2 ** (math.ceil(math.log2(2 * dim)) + 1)


@dataclass(frozen=True)
class GridSpec:
    """A grid on the unit box with ``cells[k]`` cells along axis k; indices run 0..cells[k]."""

    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.cells:
            raise ValueError("a grid needs at least one axis")
        if min(self.cells) < 1:
            raise ValueError(f"every axis needs at least one cell, got {self.cells}")

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def ell(self) -> int:
        return ramp_steepness(self.dim)

    def pair_count(self, k: int) -> int:
        points = self.cells[k] + 1
        return points * (points + 1) // 2

    def rect_count(self) -> int:
        total = 1
        for k in range(self.dim):
            total *= self.pair_count(k)
        return total


@dataclass(frozen=True, order=True)
class HyperRect:
    """Corner set of a grid hyperrectangle, stored as integer index bounds."""

    lower: tuple[int, ...]
    upper: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lower) != len(self.upper):
            raise ValueError("corner index vectors disagree on dimension")
        for lo, hi in zip(self.lower, self.upper):
            if lo > hi:
                raise ValueError(f"lower index {lo} exceeds upper index {hi}")

    @property
    def dim(self) -> int:
        return len(self.lower)


def prune_maximal(members: np.ndarray, grid: GridSpec) -> list[HyperRect]:
    """Maximal rectangles of a member mask closed under sub-rectangles, in sorted order.

    ``members`` is indexed ``(lo_0..lo_{m-1}, hi_0..hi_{m-1})`` by grid point
    index. Every sub-rectangle of a member must be a member; then a member is
    maximal exactly when none of its one-step extensions (``lo_k - 1`` or
    ``hi_k + 1``) is one. Flat indices run in row-major order, which is
    ``HyperRect`` order.
    """
    m = grid.dim
    keep = members.copy()
    for axis in range(2 * m):
        lead = (slice(None),) * axis
        later, earlier = lead + (slice(1, None),), lead + (slice(None, -1),)
        if axis < m:  # lower corner: the member at lo - 1 extends the one at lo
            keep[later] &= ~members[earlier]
        else:  # upper corner: the member at hi + 1 extends the one at hi
            keep[earlier] &= ~members[later]
    # one flat scan: a multi-axis np.nonzero is many times slower on large masks
    corners = np.stack(np.unravel_index(np.flatnonzero(keep), keep.shape), axis=1)
    return [HyperRect(tuple(c[:m]), tuple(c[m:])) for c in corners.tolist()]
