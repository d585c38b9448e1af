"""Margin-certified box extrema by dense sampling.

A function with sup-norm Lipschitz bound L sampled on an inclusive lattice of
spacing h cannot hide an extremum farther than L*h/2 from the best sample, so
``[sampled - margin, sampled]`` is guaranteed to contain the true minimum
(mirrored for maxima). Box corners are always lattice points, which makes the
certificate exact whenever an extremum sits on the boundary.

``certified_box_ranges`` samples many boxes in one batched pass: every box's
lattice goes into one point array, box by box, which is evaluated with one
``FuncExpr.eval_many`` call and reduced per box. A pass holds at most
``budget`` samples, the most one box may use, so a long campaign is split into
several passes and its peak memory is set by the budget, not by the box
count; a box that alone needs more gets no certificate. The boxes come in as
``lo``/``hi`` arrays and the extrema go out as columns (``BoxRanges``).
``certified_box_range`` is the one-box case, as a ``CertifiedBound`` pair.
Each axis of a box's lattice holds the values ``np.linspace`` gives, so the
points, the extrema and their first-occurrence positions do not depend on
which boxes share a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .expr import FuncExpr
from .intervals import BoxRegion

DEFAULT_SAMPLE_BUDGET = 4_000_000


class OracleBudgetError(RuntimeError):
    """The requested margin would need more samples than the budget allows."""

    def __init__(self, needed: int | float, budget: int):
        super().__init__(
            f"certifying this margin needs {needed} samples but the budget is {budget}; "
            "raise the target margin or the sample budget"
        )
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class CertifiedBound:
    """A sampled extremum plus the Lipschitz margin that encloses the true one."""

    kind: str  # "min" or "max"
    value: float
    margin: float
    at: tuple[float, ...]

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


def _chunks(samples: np.ndarray, budget: int):
    """Box indices in order, as arrays grouped into runs of at most ``budget`` samples; boxes over it are left out."""
    chunk: list[int] = []
    used = 0.0
    for i, n in enumerate(samples.tolist()):
        if n > budget:
            continue
        if used + n > budget:
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


def _sample(f: FuncExpr, lo: np.ndarray, hi: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sampled extrema of the boxes ``lo``/``hi`` and where they sit.

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
        # np.argmin/np.argmax per box: the first point at the extreme, or the first NaN
        hits = vals == np.repeat(extremes, sizes)
        hits |= nan
        hits = np.flatnonzero(hits)
        return hits[np.searchsorted(hits, starts)]

    imin = first(np.minimum.reduceat(vals, starts))
    imax = first(np.maximum.reduceat(vals, starts))
    return vals[imin], vals[imax], pts[imin], pts[imax]


class BoxRanges(NamedTuple):
    """Certified extrema of many boxes, one entry per box; a box over the sample budget has ``ok`` false.

    The minimum is ``vmin`` less at most ``margin``, the maximum ``vmax`` plus
    at most ``margin``; ``argmin`` and ``argmax`` are the sampled points, one
    row per box. The entries of a box that is not ``ok`` are zeros.
    """

    ok: np.ndarray
    vmin: np.ndarray
    vmax: np.ndarray
    margin: np.ndarray
    argmin: np.ndarray
    argmax: np.ndarray

    def bounds(self, i: int) -> Bounds | None:
        """Box ``i``'s extrema as a ``CertifiedBound`` pair, or None over the budget."""
        if not self.ok[i]:
            return None
        margin = float(self.margin[i])
        return (
            CertifiedBound("min", float(self.vmin[i]), margin, tuple(self.argmin[i].tolist())),
            CertifiedBound("max", float(self.vmax[i]), margin, tuple(self.argmax[i].tolist())),
        )


def certified_box_ranges(
    f: FuncExpr,
    lo: np.ndarray,
    hi: np.ndarray,
    target_margin: float,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> BoxRanges:
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
        # monotonically beyond, still compares exactly with any smaller budget.
        samples = np.prod(cells + 1.0, axis=1)
    out = BoxRanges(
        np.zeros(count, dtype=bool), np.zeros(count), np.zeros(count),
        lipschitz * spacings.max(axis=1) / 2.0, np.zeros((count, dim)), np.zeros((count, dim)),
    )
    for chunk in _chunks(samples, budget):
        out.ok[chunk] = True
        out.vmin[chunk], out.vmax[chunk], out.argmin[chunk], out.argmax[chunk] = _sample(
            f, lo[chunk], hi[chunk], cells[chunk]
        )
    out.margin[~out.ok] = 0.0
    return out


def certified_box_range(
    f: FuncExpr,
    box: BoxRegion,
    target_margin: float,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> Bounds:
    """Certified minimum and maximum of f over a box in one sampling pass."""
    lo = np.array([[b.lo for b in box.bounds]])
    hi = np.array([[b.hi for b in box.bounds]])
    bounds = certified_box_ranges(f, lo, hi, target_margin, budget).bounds(0)
    if bounds is None:
        with np.errstate(over="ignore"):
            cells = _cell_counts(hi - lo, target_margin, f.lipschitz)[0]
        needed = math.prod(int(n) + 1 for n in cells) if np.isfinite(cells).all() else math.inf
        raise OracleBudgetError(needed, budget)
    return bounds
