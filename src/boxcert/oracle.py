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
several passes; a box that alone needs more gets no certificate.
``certified_box_range`` is the one-box case. Each axis of a box's lattice
holds the values ``np.linspace`` gives, so the points, the extrema and their
first-occurrence positions do not depend on which boxes share a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import FuncExpr
from .intervals import BoxRegion, Interval

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
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

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
    """Box indices in order, grouped into runs of at most ``budget`` samples; boxes over it are left out."""
    chunk: list[int] = []
    used = 0.0
    for i, n in enumerate(samples.tolist()):
        if n > budget:
            continue
        if used + n > budget:
            yield chunk
            chunk, used = [], 0.0
        chunk.append(i)
        used += n
    if chunk:
        yield chunk


def _positions(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For segments of these sizes laid end to end: each position's index in its segment, and the starts."""
    starts = np.cumsum(sizes) - sizes
    return np.arange(sizes.sum()) - np.repeat(starts, sizes), starts


def _linspaces(lo: np.ndarray, hi: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ``np.linspace(lo, hi, cells + 1)`` (``[lo]`` for no cells) laid end to end, and their starts."""
    sizes = cells.astype(np.int64) + 1
    i, starts = _positions(sizes)
    i = i.astype(float)
    width = hi - lo
    with np.errstate(divide="ignore", invalid="ignore"):  # no cells: the one value is set below
        step = width / cells
        x = i * np.repeat(step, sizes) + np.repeat(lo, sizes)
    for s in np.flatnonzero((step == 0) & (cells > 0)):  # np.linspace's branch for a step that underflows
        seg = slice(starts[s], starts[s] + sizes[s])
        x[seg] = (i[seg] / cells[s]) * width[s] + lo[s]
    x[starts + sizes - 1] = np.where(cells > 0, hi, lo)
    return x, starts


def _sample(f: FuncExpr, lo: np.ndarray, hi: np.ndarray, cells: np.ndarray, margins: list[float]) -> list[Bounds]:
    """Certified extrema of the boxes ``lo``/``hi`` from one ``eval_many`` call over all their lattices."""
    k, m = lo.shape
    axis_sizes = cells.astype(np.int64) + 1
    table, table_starts = _linspaces(lo.ravel(), hi.ravel(), cells.ravel())
    table_starts = table_starts.reshape(k, m)
    # Each box's points in C order, the order of meshgrid(..., indexing="ij"):
    # every point so far is followed by each of its extensions along the next axis.
    box = np.arange(k)
    pts = np.empty((k, 0))
    for a in range(m):
        n = axis_sizes[box, a]
        i, _ = _positions(n)
        pts = np.column_stack((np.repeat(pts, n, axis=0), table[np.repeat(table_starts[box, a], n) + i]))
        box = np.repeat(box, n)
    sizes = np.prod(axis_sizes, axis=1)
    starts = np.cumsum(sizes) - sizes
    vals = f.eval_many(pts)
    nan = np.isnan(vals)

    def first(extremes: np.ndarray) -> np.ndarray:
        # np.argmin/np.argmax per box: the first point at the extreme, or the first NaN
        hits = np.flatnonzero((vals == np.repeat(extremes, sizes)) | nan)
        return hits[np.searchsorted(hits, starts)]

    imin = first(np.minimum.reduceat(vals, starts))
    imax = first(np.maximum.reduceat(vals, starts))
    return [
        (CertifiedBound("min", vmin, margin, tuple(pmin)), CertifiedBound("max", vmax, margin, tuple(pmax)))
        for vmin, vmax, margin, pmin, pmax in zip(
            vals[imin].tolist(), vals[imax].tolist(), margins, pts[imin].tolist(), pts[imax].tolist()
        )
    ]


def certified_box_ranges(
    f: FuncExpr,
    boxes: Sequence[BoxRegion],
    target_margin: float,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> list[Bounds | None]:
    """Certified minimum and maximum of f over each box, or None for a box over the sample budget."""
    for box in boxes:
        if box.dim != f.dim:
            raise ValueError(f"box is {box.dim}-d but function expects {f.dim}-d")
    if not target_margin > 0:
        raise ValueError("target margin must be positive")
    if not boxes:
        return []
    lipschitz = f.lipschitz
    lo = np.array([[b.lo for b in box.bounds] for box in boxes])
    hi = np.array([[b.hi for b in box.bounds] for box in boxes])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        widths = hi - lo
        cells = _cell_counts(widths, target_margin, lipschitz)
        spacings = np.where(cells > 0, widths / cells, 0.0)
        # Integer factors: the sample count is exact up to 2**53 and, rounded
        # monotonically beyond, still compares exactly with any smaller budget.
        samples = np.prod(cells + 1.0, axis=1)
    margins = (lipschitz * spacings.max(axis=1) / 2.0).tolist()
    out: list[Bounds | None] = [None] * len(boxes)
    for chunk in _chunks(samples, budget):
        bounds = _sample(f, lo[chunk], hi[chunk], cells[chunk], [margins[i] for i in chunk])
        for i, b in zip(chunk, bounds):
            out[i] = b
    return out


def certified_box_range(
    f: FuncExpr,
    box: BoxRegion,
    target_margin: float,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> Bounds:
    """Certified minimum and maximum of f over a box in one sampling pass."""
    (bounds,) = certified_box_ranges(f, [box], target_margin, budget)
    if bounds is None:
        cells = _cell_counts(np.array([[b.width for b in box.bounds]]), target_margin, f.lipschitz)[0]
        needed = math.prod(int(n) + 1 for n in cells) if np.isfinite(cells).all() else math.inf
        raise OracleBudgetError(needed, budget)
    return bounds
