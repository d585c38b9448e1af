"""Integer-indexed grids over the unit box and the hyperrectangles on them.

Axis k of the unit box [0, 1]^m holds ``cells[k]`` equal cells, so its grid
points are index/cells[k]. A grid rectangle is stored as the grid point
indices of its two corners, in arrays with one row per rectangle, so gadget
weights can be formed from exact integer products.
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


@dataclass(frozen=True)
class RectCorners:
    """Grid rectangles and the slices ``first..stop-1`` each is maximal in, one row per rectangle."""

    lo: np.ndarray  # (rects, m) lower corners, by grid point index
    hi: np.ndarray  # (rects, m) upper corners
    first: np.ndarray  # (rects,)
    stop: np.ndarray  # (rects,)

    def __len__(self) -> int:
        return len(self.first)


def prune_maximal(table: np.ndarray, grid: GridSpec) -> RectCorners:
    """Every rectangle maximal in some slice, with the slices it is maximal in.

    ``table`` is indexed ``(lo_0..lo_{m-1}, hi_0..hi_{m-1})`` by grid point
    index, and slice k holds the rectangle there exactly when
    ``k < table[lo, hi]``. A sub-rectangle's entry must be at least its
    parent's, so every slice is closed under sub-rectangles; then a member
    is maximal in slice k exactly when none of its one-step extensions
    (``lo_k - 1`` or ``hi_k + 1``) is one, that is when ``k`` is at least
    the largest extension entry (0 off the table). The rectangle is thus
    maximal in slices ``first..stop-1``. Rectangles come in row-major table
    order: sorted by lower corner, then by upper corner.
    """
    m = grid.dim
    reach = np.zeros_like(table)
    for axis in range(2 * m):
        lead = (slice(None),) * axis
        later, earlier = lead + (slice(1, None),), lead + (slice(None, -1),)
        if axis < m:  # lower corner: the rectangle at lo - 1 extends the one at lo
            np.maximum(reach[later], table[earlier], out=reach[later])
        else:  # upper corner: the rectangle at hi + 1 extends the one at hi
            np.maximum(reach[earlier], table[later], out=reach[earlier])
    # one flat scan: a multi-axis np.nonzero is many times slower on large tables
    flat = np.flatnonzero(table > reach)
    corners = np.stack(np.unravel_index(flat, table.shape), axis=1)
    first = reach.ravel()[flat].astype(np.intp)
    return RectCorners(corners[:, :m], corners[:, m:], first, table.ravel()[flat].astype(np.intp))
