"""ReLU gadgets the certified construction is assembled from, one wide node per stage.

A local bump is 1 on a grid rectangle's hull and 0 one grid step beyond it. A
build appends the bumps of all its rectangles together, each stage as one
sparse affine node (and its relu) over every bump:

* ramps (``append_ramps``): ``1 - R(a)`` for an affine ``a`` of one unit-box
  coordinate, with integer-exact weight ``cells[k]*ell`` and bias
  ``ell*index``. Bumps with a bound in common on an axis share that ramp.
* bumps (``append_bumps``): ``R(sum of the 2m ramps - (2m - 1))``, one row
  per rectangle.
* clip (``append_slice_clips``): a slice is ``1 - R(1 - sum of its bumps)``,
  with the sum folded into the first affine row.

The slice argument uses three properties of a bump under interval
propagation, and the sum has all three. Every ramp is ``1 - R(a)`` and a
relu's lower end is never below 0, so every ramp's upper end is at most 1.

1. On a box inside the hull every ``a`` is at most 0, so every ramp is
   exactly ``[1, 1]`` and the row sums small integers, exactly, to ``[1, 1]``.
2. On a box one grid step beyond the hull on axis k, the ramp of that side
   has ``a >= ell`` and an upper end of at most ``1 - ell``. Rounding to
   nearest is monotone, so the row's upper end is at most
   ``(2m - 1) + (1 - ell) - (2m - 1) = 1 - ell < 0`` and the relu gives
   ``[0, 0]``.
3. By the same monotonicity the row's upper end is never above
   ``2m - (2m - 1) = 1``, and the relu's lower end is never below 0, so
   the bump never leaves ``[0, 1]``.

The paper builds its bump as the min of the 2m ramps, through a tree of
four-unit min gadgets, and proves these properties from the min gadget's
interval behavior. The sum replaces that lemma, so the bump is an extension
of the paper, not a reproduction. It costs one relu per bump, where the tree
costs up to ``4(2m - 1) + 1``, and one node and its relu, where the tree
costs three nodes per level. The min-tree chain is kept in
``tests/helpers.py`` as the reference for the paper's gadget. The steepness
``ell`` is still the one the min tree needs; the sum only needs ``ell >= 1``.

Every row holds the terms of the per-bump gadget chain kept as the reference
in ``tests/helpers.py``, in the same order, so each value propagates
bit-identically to that chain's.
"""

from __future__ import annotations

import numpy as np

from .grids import GridSpec
from .network import NetworkBuilder


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of the integer array ``keys``, and each key's index among them.

    ``np.unique`` does the same, but its first call imports ``numpy.ma``,
    which adds more resident memory than a build holds.
    """
    values = np.array(sorted(set(keys.tolist())), dtype=keys.dtype)
    return values, np.searchsorted(values, keys)


def append_ramps(
    b: NetworkBuilder, source: int | list[int], grid: GridSpec, lo: np.ndarray, hi: np.ndarray
) -> tuple[int, np.ndarray]:
    """Every distinct clamped ramp of the rectangles ``[lo[i], hi[i]]``, as one node.

    ``source`` names the nodes whose outputs, laid end to end, are the m
    unit-box coordinates. Returns the node and, per rectangle, the columns of
    its 2m ramps in the order ``lo_0, hi_0, lo_1, hi_1, ...``. A ramp is
    keyed by its axis, side and grid index; the lower ramp on axis k is
    ``1 - R(ell*lo_k - cells[k]*ell*x_k)`` and the upper one
    ``1 - R(cells[k]*ell*x_k - ell*hi_k)``.
    """
    n, m = lo.shape
    span = max(grid.cells) + 1
    key = np.arange(2 * m) * span + np.stack([lo, hi], axis=2).reshape(n, 2 * m)
    keys, columns = _distinct(key.ravel())
    operand, index = np.divmod(keys, span)
    axis, side = np.divmod(operand, 2)
    sign = 1 - 2 * side  # 1 on the lower side, -1 on the upper one
    steep = (np.array(grid.cells, dtype=np.int64) * grid.ell).astype(float)
    weight = -sign * steep[axis]
    bias = (sign * grid.ell * index).astype(float)
    rows = [((k, w),) for k, w in zip(axis.tolist(), weight.tolist())]
    inner = b.relu(b.sparse_affine(source, rows, bias.tolist()))
    ramps = b.sparse_affine(inner, [((j, -1.0),) for j in range(len(rows))], [1.0] * len(rows))
    return ramps, columns.reshape(n, 2 * m)


def append_bumps(b: NetworkBuilder, ramps: int, columns: np.ndarray) -> int:
    """Every rectangle's bump ``R(sum of its 2m ramps - (2m - 1))``, as one node with a column per rectangle.

    Row i of ``columns`` holds rectangle i's ramp columns in node ``ramps``.
    """
    n, count = columns.shape
    rows = [tuple((c, 1.0) for c in row) for row in columns.tolist()]
    return b.relu(b.sparse_affine(ramps, rows, [1.0 - count] * n))


def append_slice_clips(
    b: NetworkBuilder, bumps: int, first: np.ndarray, stop: np.ndarray, count: int
) -> int:
    """Every slice as one node with a column per slice: ``1 - R(1 - sum of its bumps)``, or 0 without bumps.

    Rectangle i's bump is column i of ``bumps`` and belongs to
    slices ``first[i]..stop[i]-1``. The clip row of a slice has weight -1 on
    its bumps in rectangle order and bias 1; for bumps (ReLU outputs, never
    ``-0.0``) that propagates bit-identically to summing first and clipping
    after, because IEEE round-to-nearest is symmetric in sign. Consecutive
    slices that hold the same rectangles (the only equal ones, as the slices
    of a build are nested) share one clip row, and a slice with no bump is a
    row with no terms and bias 0.
    """
    members: list[list[int]] = [[] for _ in range(count)]  # per slice, its bumps in rectangle order
    for column, (begin, end) in enumerate(zip(first.tolist(), stop.tolist())):
        for k in range(begin, end):
            members[k].append(column)
    clip_rows, rows = [], []
    for k, bumps_of_slice in enumerate(members):
        if bumps_of_slice and (k == 0 or bumps_of_slice != members[k - 1]):
            clip_rows.append(tuple([(c, -1.0) for c in bumps_of_slice]))
        rows.append(((len(clip_rows) - 1, -1.0),) if bumps_of_slice else ())
    inner = b.relu(b.sparse_affine(bumps, clip_rows, [1.0] * len(clip_rows)))
    return b.sparse_affine(inner, rows, [1.0 if row else 0.0 for row in rows])
