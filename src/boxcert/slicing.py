"""Level decomposition of a scalar function into clamped slabs of equal height.

The reconstruction identity holds pointwise: the bottom level plus the sum of
all slice values telescopes back to f(x). Slice k contributes
``clamp(f(x) - level[k], 0, level[k+1] - level[k])``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# forgiveness for float dust when the slice count lands on an exact integer
_COUNT_SLACK = 1e-9


@dataclass(frozen=True)
class SliceSpec:
    """Evenly spaced levels xi_0..xi_N; each slice is delta/2 tall."""

    count: int
    levels: tuple[float, ...]
    delta: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("need at least one slice")
        if len(self.levels) != self.count + 1:
            raise ValueError("levels must have count+1 entries")

    @property
    def half_delta(self) -> float:
        return self.delta / 2.0

    @property
    def bottom(self) -> float:
        return self.levels[0]

    @property
    def top(self) -> float:
        return self.levels[-1]


def make_slice_spec(xi_min: float, xi_max: float, delta: float) -> SliceSpec:
    """Pick the slice count so each slab is exactly half the adjusted tolerance.

    The count is rounded up, shrinking delta if the requested one does not
    divide the range evenly; a hair of slack keeps float dust in the range
    estimate from bumping the count past an exact integer ratio.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if xi_max < xi_min:
        raise ValueError(f"empty level range [{xi_min}, {xi_max}]")
    span = xi_max - xi_min
    if span == 0.0:
        return SliceSpec(1, (xi_min, xi_max), 0.0)
    count = max(1, math.ceil(2.0 * span / delta - _COUNT_SLACK))
    adjusted = 2.0 * span / count
    levels = [xi_min + (k / count) * span for k in range(count + 1)]
    levels[0] = xi_min
    levels[count] = xi_max
    return SliceSpec(count, tuple(levels), adjusted)
