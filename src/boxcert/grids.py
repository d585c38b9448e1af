"""Integer-indexed grids over a box domain and the hyperrectangles on them.

Grid points live at index/M per coordinate. Corner rectangles are stored as
integer index pairs so gadget weights can be formed from exact integer
products; converting an index to a coordinate divides once by M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .intervals import BoxRegion

_SNAP_SLACK = 1e-9


def ramp_steepness(dim: int) -> int:
    """Power-of-two factor 2^(ceil(log2(2m))+1) that makes bumps collapse off-support."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return 2 ** (math.ceil(math.log2(2 * dim)) + 1)


def _snap_index(value: float, cells_per_unit: int, outward: int) -> int:
    product = value * cells_per_unit
    nearest = round(product)
    if abs(product - nearest) <= _SNAP_SLACK * max(1.0, abs(product)):
        return int(nearest)
    return int(math.floor(product)) if outward < 0 else int(math.ceil(product))


@dataclass(frozen=True)
class GridSpec:
    """A grid of spacing 1/M covering a box, described by per-dim index ranges."""

    cells_per_unit: int
    index_lo: tuple[int, ...]
    index_hi: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.cells_per_unit < 1:
            raise ValueError("cells_per_unit must be at least 1")
        if len(self.index_lo) != len(self.index_hi):
            raise ValueError("index bounds disagree on dimension")
        for lo, hi in zip(self.index_lo, self.index_hi):
            if lo > hi:
                raise ValueError(f"empty index range [{lo}, {hi}]")

    @classmethod
    def for_box(cls, box: BoxRegion, cells_per_unit: int) -> "GridSpec":
        lo = tuple(_snap_index(b.lo, cells_per_unit, -1) for b in box.bounds)
        hi = tuple(_snap_index(b.hi, cells_per_unit, +1) for b in box.bounds)
        return cls(cells_per_unit, lo, hi)

    @property
    def dim(self) -> int:
        return len(self.index_lo)

    @property
    def ell(self) -> int:
        return ramp_steepness(self.dim)

    @property
    def domain(self) -> BoxRegion:
        m = self.cells_per_unit
        return BoxRegion.from_pairs([(lo / m, hi / m) for lo, hi in zip(self.index_lo, self.index_hi)])

    def cells(self, k: int) -> int:
        return self.index_hi[k] - self.index_lo[k]

    def pair_count(self, k: int) -> int:
        points = self.cells(k) + 1
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

    def hull(self, grid: GridSpec) -> BoxRegion:
        m = grid.cells_per_unit
        return BoxRegion.from_pairs([(lo / m, hi / m) for lo, hi in zip(self.lower, self.upper)])


def prune_maximal(members: np.ndarray, grid: GridSpec) -> list[HyperRect]:
    """Maximal rectangles of a member mask closed under sub-rectangles, in sorted order.

    ``members`` is indexed ``(lo_0..lo_{m-1}, hi_0..hi_{m-1})``, grid points
    counted from ``grid.index_lo``. Every sub-rectangle of a member must be a
    member; then a member is maximal exactly when none of its one-step
    extensions (``lo_k - 1`` or ``hi_k + 1``) is one. Flat indices run in
    row-major order, which is ``HyperRect`` order.
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
    corners += np.array(grid.index_lo * 2)
    return [HyperRect(tuple(c[:m]), tuple(c[m:])) for c in corners.tolist()]
