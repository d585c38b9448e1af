"""Closed intervals and boxes: the abstract domain that network propagation runs in.

Every value is a plain ``Interval`` of finite doubles, and a ``BoxRegion`` is
one per dimension. There is no outward rounding (see ``network``), so point
boxes propagate bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval [lo, hi] with finite endpoints and lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"interval endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            raise ValueError(f"interval lower end exceeds upper end: [{lo}, {hi}]")

    @classmethod
    def point(cls, x: float) -> "Interval":
        return cls(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"


@dataclass(frozen=True, slots=True)
class BoxRegion:
    """An axis-aligned box: one Interval per dimension."""

    bounds: tuple[Interval, ...]

    def __post_init__(self) -> None:
        bounds = tuple(self.bounds)
        object.__setattr__(self, "bounds", bounds)
        if len(bounds) < 1:
            raise ValueError("a box needs at least one dimension")
        for b in bounds:
            if not isinstance(b, Interval):
                raise TypeError(f"box bounds must be Intervals, got {type(b).__name__}")

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[float, float]]) -> "BoxRegion":
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))

    @classmethod
    def point(cls, x: Sequence[float]) -> "BoxRegion":
        return cls(tuple(Interval(v, v) for v in x))

    @property
    def dim(self) -> int:
        return len(self.bounds)

    def __getitem__(self, k: int) -> Interval:
        return self.bounds[k]

    def __repr__(self) -> str:
        return "Box(" + "; ".join(repr(b) for b in self.bounds) + ")"
