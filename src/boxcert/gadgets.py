"""ReLU gadgets the certified construction is assembled from.

``append_nmin2`` is the symmetric four-unit min network

    min(x, y) = 1/2 * (1, -1, -1, -1) . R([[1, 1], [-1, -1], [1, -1], [-1, 1]] (x, y))

whose interval behavior admits a closed form (``nmin2_closed_form`` in
``tests/helpers.py``). ``append_nmin_tree`` splits its arguments in
halves of ceil(n/2) and n - ceil(n/2) and recurses. Local bumps clamp 2m ramps
to 1, take the min, and rectify; the ramp steepness factor is large enough that
a box one grid step away from the corner hull propagates to exactly [0, 0].
``append_clip_above`` saturates a sum of bumps at a bound, with the sum folded
into its first affine row.

Gadgets append to a ``NetworkBuilder``, which merges bit-identical nodes: bumps
that share an axis bound share that ramp, and min subtrees over the same ramps
are built once (in 1-d and 2-d each axis's ramp pair is such a subtree, and a
1-d bump repeated in another slice is shared whole).
"""

from __future__ import annotations

import math
from typing import Sequence

from .grids import GridSpec, HyperRect
from .network import NetworkBuilder

NMIN2_HIDDEN = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
NMIN2_OUT = ((0.5, -0.5, -0.5, -0.5),)


def append_nmin2(b: NetworkBuilder, left: int, right: int) -> int:
    """Min of two scalar nodes via the four-unit gadget."""
    hidden = b.relu(b.affine((left, right), NMIN2_HIDDEN, (0.0, 0.0, 0.0, 0.0)))
    return b.affine(hidden, NMIN2_OUT, (0.0,))


def append_nmin_tree(b: NetworkBuilder, args: Sequence[int]) -> int:
    """Min of scalar nodes, recursing on the first ceil(n/2) and the rest."""
    if not args:
        raise ValueError("min tree needs at least one argument")
    if len(args) == 1:
        return args[0]
    half = math.ceil(len(args) / 2)
    return append_nmin2(b, append_nmin_tree(b, args[:half]), append_nmin_tree(b, args[half:]))


def append_clip_above(b: NetworkBuilder, preds: Sequence[int], bound: float) -> int:
    """``bound - R(bound - sum(preds))`` over scalar nodes: their sum, saturated above the bound.

    The first row has weight -1 on every term and the bound as its bias. For
    terms that are never ``-0.0`` (ReLU outputs, such as bumps) it propagates
    bit-identically to summing first and then clipping: IEEE round-to-nearest
    is symmetric in sign, so the partial sums of the ``-t_i`` are exactly the
    negated partial sums of the ``t_i``.
    """
    inner = b.relu(b.affine(preds, [[-1.0] * len(preds)], [float(bound)]))
    return b.affine(inner, [[-1.0]], [float(bound)])


def append_local_bump(b: NetworkBuilder, grid: GridSpec, rect: HyperRect, source: Sequence[int]) -> int:
    """Bump that is 1 on the rect's hull and 0 one grid step beyond it.

    ``source`` lists nodes whose outputs, laid end to end, are the m unit-box
    coordinates: the m input nodes, or one m-wide affine node. Each ramp
    is fused with the first clipping stage, so its affine row computes
    1 - ramp directly from integer-exact weights cells[k]*ell and ell*index.
    """
    m = grid.dim
    if rect.dim != m:
        raise ValueError(f"rect is {rect.dim}-d but grid is {m}-d")
    for k in range(m):
        if rect.lower[k] < 0 or rect.upper[k] > grid.cells[k]:
            raise ValueError(f"rect corner outside the grid in dimension {k}")
    ramps: list[int] = []
    for k in range(m):
        steep = float(grid.cells[k] * grid.ell)
        row_lo = [0.0] * m
        row_lo[k] = -steep
        row_hi = [0.0] * m
        row_hi[k] = steep
        for row, offset in (
            (row_lo, float(grid.ell * rect.lower[k])),
            (row_hi, float(-grid.ell * rect.upper[k])),
        ):
            inner = b.relu(b.affine(source, [row], [offset]))
            ramps.append(b.affine(inner, [[-1.0]], [1.0]))
    return b.relu(append_nmin_tree(b, ramps))
