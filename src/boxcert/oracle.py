"""Margin-certified box extrema by dense sampling.

A function with sup-norm Lipschitz bound L sampled on an inclusive lattice of
spacing h cannot hide an extremum farther than L*h/2 from the best sample, so
``[sampled - margin, sampled]`` is guaranteed to contain the true minimum
(mirrored for maxima). Box corners are always lattice points, which makes the
certificate exact whenever an extremum sits on the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import FuncExpr
from .intervals import BoxRegion, Interval

DEFAULT_SAMPLE_BUDGET = 4_000_000


class OracleBudgetError(RuntimeError):
    """The requested margin would need more samples than the budget allows."""

    def __init__(self, needed: int, budget: int):
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
        if self.kind == "min":
            return Interval(self.value - self.margin, self.value)
        return Interval(self.value, self.value + self.margin)

    @property
    def lo(self) -> float:
        return self.interval.lo

    @property
    def hi(self) -> float:
        return self.interval.hi


def _lattice(box: BoxRegion, counts: list[int]) -> tuple[np.ndarray, list[np.ndarray]]:
    axes = [np.linspace(b.lo, b.hi, n + 1) if n > 0 else np.array([b.lo]) for b, n in zip(box.bounds, counts)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=1)
    return pts, axes


def _cell_counts(box: BoxRegion, target_margin: float, lipschitz: float, budget: int) -> list[int]:
    if lipschitz == 0.0:
        return [0] * box.dim
    h = 2.0 * target_margin / lipschitz
    counts = []
    total = 1
    for b in box.bounds:
        n = 0 if b.width == 0 else max(1, math.ceil(b.width / h))
        counts.append(n)
        total *= n + 1
    if total > budget:
        raise OracleBudgetError(total, budget)
    return counts


def certified_box_range(
    f: FuncExpr,
    box: BoxRegion,
    target_margin: float,
    budget: int = DEFAULT_SAMPLE_BUDGET,
) -> tuple[CertifiedBound, CertifiedBound]:
    """Certified minimum and maximum of f over a box in one sampling pass."""
    if box.dim != f.dim:
        raise ValueError(f"box is {box.dim}-d but function expects {f.dim}-d")
    if target_margin <= 0:
        raise ValueError("target margin must be positive")
    lipschitz = f.lipschitz
    counts = _cell_counts(box, target_margin, lipschitz, budget)
    pts, _ = _lattice(box, counts)
    vals = f.eval_many(pts)
    spacings = [b.width / n for b, n in zip(box.bounds, counts) if n > 0]
    margin = lipschitz * max(spacings, default=0.0) / 2.0
    imin = int(np.argmin(vals))  # first occurrence: lexicographically smallest point
    imax = int(np.argmax(vals))
    cmin = CertifiedBound("min", float(vals[imin]), margin, tuple(pts[imin]))
    cmax = CertifiedBound("max", float(vals[imax]), margin, tuple(pts[imax]))
    return cmin, cmax


def certified_box_min(
    f: FuncExpr, box: BoxRegion, target_margin: float, budget: int = DEFAULT_SAMPLE_BUDGET
) -> CertifiedBound:
    return certified_box_range(f, box, target_margin, budget)[0]


def certified_box_max(
    f: FuncExpr, box: BoxRegion, target_margin: float, budget: int = DEFAULT_SAMPLE_BUDGET
) -> CertifiedBound:
    return certified_box_range(f, box, target_margin, budget)[1]
