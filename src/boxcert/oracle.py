"""Margin-certified box extrema by dense sampling.

A function with sup-norm Lipschitz bound L sampled on an inclusive lattice of
spacing h cannot hide an extremum farther than L*h/2 from the best sample, so
``[sampled - margin, sampled]`` is guaranteed to contain the true minimum
(mirrored for maxima). Box corners are always lattice points, which makes the
certificate exact whenever an extremum sits on the boundary.

``certified_box_ranges`` samples many boxes in one batched pass: every box's
lattice goes into one point array, box by box, which is evaluated with one
``FuncExpr.eval_many`` call and reduced per box. A pass holds at most
``SAMPLE_CAP`` samples, the most one box may use, so a long campaign is split
into several passes and its peak memory is set by the cap, not by the box
count; a box that alone needs more gets no certificate. The boxes come in as
``lo``/``hi`` arrays and the extrema go out as columns (``BoxRanges``).
``certified_box_range`` is the one-box case, as a ``CertifiedBound`` pair.
Each axis of a box's lattice holds the values ``np.linspace`` gives, so the
points and the extrema, each the value at its first occurrence, do not depend
on which boxes share a pass.

``SAMPLE_CAP`` is the one sample limit of the package: the build's range pass
and its lattice (``construct.CellMinTable``) and every verify campaign read it
when they run. No option sets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .expr import FuncExpr
from .intervals import BoxRegion

SAMPLE_CAP = 4_000_000  # the most samples one box, one lattice or one pass may take


def count_text(n: int | float) -> str:
    """A count as written in an error: in full up to 10**15, as ``%.3e`` above, however many digits it has."""
    return str(n) if n <= 10**15 or n == math.inf else f"{Decimal(n):.3e}"


class OracleBudgetError(RuntimeError):
    """The requested margin would need more samples than ``SAMPLE_CAP``; ``needed`` is exact.

    Only the build's range pass raises it, and its margin is a fixed share of
    delta, so raising delta is the remedy.
    """

    def __init__(self, needed: int | float, budget: int):
        super().__init__(
            f"certifying this margin needs {count_text(needed)} samples but the fixed budget is {budget}; raise delta"
        )
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class CertifiedBound:
    """A sampled extremum plus the Lipschitz margin that encloses the true one."""

    kind: str  # "min" or "max"
    value: float
    margin: float

    @property
    def lo(self) -> float:
        return self.value - self.margin if self.kind == "min" else self.value

    @property
    def hi(self) -> float:
        return self.value if self.kind == "min" else self.value + self.margin


Bounds = tuple[CertifiedBound, CertifiedBound]


def _cell_counts(widths: np.ndarray, target_margin: float, lipschitz: float) -> np.ndarray:
    """Lattice cells per box and axis, as float64: 0 on a zero-width axis, else at least 1.

    A box huge relative to the spacing gets a huge or infinite count, never a
    wrapped one.
    """
    if lipschitz == 0.0:
        return np.zeros_like(widths)
    h = 2.0 * target_margin / lipschitz
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cells = np.maximum(1.0, np.ceil(widths / h))
    cells[widths == 0] = 0.0
    return cells


def _chunks(samples: np.ndarray, cap: int):
    """Box indices in order, as arrays grouped into runs of at most ``cap`` samples; boxes over it are left out."""
    chunk: list[int] = []
    used = 0.0
    for i, n in enumerate(samples.tolist()):
        if n > cap:
            continue
        if used + n > cap:
            yield np.array(chunk)
            chunk, used = [], 0.0
        chunk.append(i)
        used += n
    if chunk:
        yield np.array(chunk)


def _positions(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of these sizes laid end to end: each position's index in its segment, and the starts."""
    starts = np.cumsum(sizes) - sizes
    i = np.arange(sizes.sum())
    i -= np.repeat(starts, sizes)
    return i, starts


def _linspaces(lo: np.ndarray, hi: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``np.linspace(lo, hi, cells + 1)`` (``[lo]`` for no cells) laid end to end, and their starts."""
    sizes = cells.astype(np.int64) + 1
    i, starts = _positions(sizes)
    x = i.astype(float)
    width = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):  # no cells: the one value is set below
        step = width / cells
        x *= np.repeat(step, sizes)
        x += np.repeat(lo, sizes)
    for s in np.flatnonzero((step == 0) & (cells > 0)):  # np.linspace's branch for a step that underflows
        x[starts[s] : starts[s] + sizes[s]] = (np.arange(sizes[s]) / cells[s]) * width[s] + lo[s]
    x[starts + sizes - 1] = np.where(cells > 0, hi, lo)
    return x, starts


def _sample(f: FuncExpr, lo: np.ndarray, hi: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sampled minima and maxima of the boxes ``lo``/``hi``.

    One ``eval_many`` call evaluates all their lattices.
    """
    m = lo.shape[1]
    axis_sizes = cells.astype(np.int64) + 1
    table, table_starts = _linspaces(lo.ravel(), hi.ravel(), cells.ravel())
    table_starts = table_starts.reshape(-1, m)
    sizes = np.prod(axis_sizes, axis=1)
    rest, starts = _positions(sizes)
    # Each box's points in C order, the order of meshgrid(..., indexing="ij"):
    # the last axis runs fastest, so a point's place in its box holds its
    # per-axis indices as digits, the last axis least significant.
    pts = np.empty((rest.size, m))
    for a in range(m - 1, 0, -1):
        rest, i = np.divmod(rest, np.repeat(axis_sizes[:, a], sizes))
        i += np.repeat(table_starts[:, a], sizes)
        pts[:, a] = table[i]
    rest += np.repeat(table_starts[:, 0], sizes)
    pts[:, 0] = table[rest]
    vals = f.eval_many(pts)
    nan = np.isnan(vals)

    def first(extremes: np.ndarray) -> np.ndarray:
        # per box, the value at the first point at the extreme or, if any, at
        # the first NaN; for a zero extremum this sets its sign
        hits = vals == np.repeat(extremes, sizes)
        hits |= nan
        hits = np.flatnonzero(hits)
        return vals[hits[np.searchsorted(hits, starts)]]

    return first(np.minimum.reduceat(vals, starts)), first(np.maximum.reduceat(vals, starts))


class BoxRanges(NamedTuple):
    """Certified extrema of many boxes, one entry per box; a box over ``SAMPLE_CAP`` has ``ok`` false.

    The minimum is ``vmin`` less at most ``margin``, the maximum ``vmax`` plus
    at most ``margin``. The entries of a box that is not ``ok`` are zeros.
    """

    ok: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    margin: np.ndarray

    def bounds(self, i: int) -> Bounds | None:
        """Box ``i``'s extrema as a ``CertifiedBound`` pair, or None over the cap."""
        if not self.ok[i]:
            return None
        margin = float(self.margin[i])
        return CertifiedBound("min", float(self.vmin[i]), margin), CertifiedBound("max", float(self.vmax[i]), margin)


def certified_box_ranges(f: FuncExpr, lo: np.ndarray, hi: np.ndarray, target_margin: float) -> BoxRanges:
    """Certified minimum and maximum of f over each box ``[lo[b], hi[b]]`` (both ``(boxes, dim)``)."""
    count, dim = lo.shape
    if dim != f.dim:
        raise ValueError(f"box is {dim}-d but function expects {f.dim}-d")
    if not target_margin > 0:
        raise ValueError("target margin must be positive")
    lipschitz = f.lipschitz
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        widths = hi - lo
        cells = _cell_counts(widths, target_margin, lipschitz)
        spacings = np.where(cells > 0, widths / cells, 0.0)
        # Integer factors: the sample count is exact up to 2**53 and, rounded
        # monotonically beyond, still compares exactly with any smaller cap.
        samples = np.prod(cells + 1.0, axis=1)
    margin = lipschitz * spacings.max(axis=1) / 2.0
    out = BoxRanges(np.zeros(count, dtype=bool), np.zeros(count), np.zeros(count), margin)
    for chunk in _chunks(samples, SAMPLE_CAP):
        out.ok[chunk] = True
        out.vmin[chunk], out.vmax[chunk] = _sample(f, lo[chunk], hi[chunk], cells[chunk])
    out.margin[~out.ok] = 0.0
    return out


def certified_box_range(f: FuncExpr, box: BoxRegion, target_margin: float) -> Bounds:
    """Certified minimum and maximum of f over a box in one sampling pass."""
    lo = np.array([[b.lo for b in box.bounds]])
    hi = np.array([[b.hi for b in box.bounds]])
    bounds = certified_box_ranges(f, lo, hi, target_margin).bounds(0)
    if bounds is None:
        with np.errstate(over="ignore"):
            cells = _cell_counts(hi - lo, target_margin, f.lipschitz)[0]
        needed = math.prod(int(n) + 1 for n in cells) if np.isfinite(cells).all() else math.inf
        raise OracleBudgetError(needed, SAMPLE_CAP)
    return bounds
