"""ReLU gadgets the certified construction is assembled from, one wide node per stage.

A local bump is 1 on a grid rectangle's hull and 0 one grid step beyond it.
It clamps 2m ramps to 1, takes their min, and rectifies. A build appends the
bumps of all its rectangles together, each stage as one sparse affine node
(and its relu) over every bump:

* ramps (``append_ramps``): ``1 - R(a)`` for an affine ``a`` of one unit-box
  coordinate, with integer-exact weight ``cells[k]*ell`` and bias
  ``ell*index``. The steepness factor ``ell`` is large enough that a box one
  grid step away from the hull propagates to exactly [0, 0]. Bumps with a
  bound in common on an axis share that ramp.
* min (``append_min_tree``): the symmetric four-unit min network

      min(x, y) = 1/2 * (1, -1, -1, -1) . R([[1, 1], [-1, -1], [1, -1], [-1, 1]] (x, y))

  whose interval behavior admits a closed form (``nmin2_closed_form`` in
  ``tests/helpers.py``), as a tree that splits its arguments into the first
  ceil(n/2) and the rest. Each level of the tree is one hidden node, its
  relu and one output node over the distinct operand pairs of that level, so
  a min subtree over the same ramps is built once.
* clip (``append_slice_clips``): a slice is ``1 - R(1 - sum of its bumps)``,
  with the sum folded into the first affine row.

Every row holds the terms of the per-bump gadget chain kept as the reference
in ``tests/helpers.py``, in the same order, so each value propagates
bit-identically to that chain's.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridSpec
from .network import NetworkBuilder

NMIN2_HIDDEN = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
NMIN2_OUT = (0.5, -0.5, -0.5, -0.5)


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


def _tree(count: int) -> tuple[list[tuple[int, int]], list[int], int]:
    """The shape of a min tree over ``count`` arguments: its mins, every level, and the root.

    References ``0..count-1`` are the arguments and ``count + t`` is min t,
    whose operands are ``mins[t]``. An argument's level is 0 and a min's is
    one more than its higher operand's.
    """
    mins: list[tuple[int, int]] = []
    level = [0] * count

    def build(args: list[int]) -> int:
        if len(args) == 1:
            return args[0]
        half = math.ceil(len(args) / 2)
        pair = (build(args[:half]), build(args[half:]))
        mins.append(pair)
        level.append(1 + max(level[pair[0]], level[pair[1]]))
        return len(level) - 1

    return mins, level, build(list(range(count)))


def append_min_tree(b: NetworkBuilder, args: int, columns: np.ndarray) -> tuple[int, np.ndarray]:
    """The min of each row of ``columns`` (columns of node ``args``), as a tree of min gadgets.

    Returns the node holding every distinct min and each row's column in it.
    Level by level, the operand pairs of every row and every min of the
    level are deduplicated, so equal subtrees share their units. A level
    reads every earlier level its operands come from: with an uneven split
    that can be two.
    """
    n, count = columns.shape
    mins, level, root = _tree(count)
    nodes = [args]  # per level, the node holding its mins
    where = {j: columns[:, j] for j in range(count)}  # reference -> per row, its column in nodes[level]
    for depth in range(1, level[root] + 1):
        group = [count + t for t in range(len(mins)) if level[count + t] == depth]
        sources = sorted({level[r] for t in group for r in mins[t - count]})
        offset, width = {}, 0
        for s in sources:
            offset[s] = width
            width += b.arity(nodes[s])
        left, right = (
            np.concatenate([where[r] + offset[level[r]] for r in (mins[t - count][side] for t in group)])
            for side in (0, 1)
        )
        pairs, found = _distinct(left * width + right)
        first, second = np.divmod(pairs, width)
        hidden_rows = [((x, u), (y, v)) for x, y in zip(first.tolist(), second.tolist()) for u, v in NMIN2_HIDDEN]
        hidden = b.relu(b.sparse_affine([nodes[s] for s in sources], hidden_rows, [0.0] * len(hidden_rows)))
        out_rows = [tuple(zip(range(4 * p, 4 * p + 4), NMIN2_OUT)) for p in range(len(pairs))]
        nodes.append(b.sparse_affine(hidden, out_rows, [0.0] * len(pairs)))
        for i, t in enumerate(group):
            where[t] = found[i * n : (i + 1) * n]
    return nodes[-1], where[root]


def append_slice_clips(
    b: NetworkBuilder, bumps: int, columns: np.ndarray, first: np.ndarray, stop: np.ndarray, count: int
) -> int:
    """Every slice as one node with a column per slice: ``1 - R(1 - sum of its bumps)``, or 0 without bumps.

    Rectangle i's bump is column ``columns[i]`` of ``bumps`` and belongs to
    slices ``first[i]..stop[i]-1``. The clip row of a slice has weight -1 on
    its bumps in rectangle order and bias 1; for bumps (ReLU outputs, never
    ``-0.0``) that propagates bit-identically to summing first and clipping
    after, because IEEE round-to-nearest is symmetric in sign. Consecutive
    slices that hold the same rectangles (the only equal ones, as the slices
    of a build are nested) share one clip row, and a slice with no bump is a
    row with no terms and bias 0.
    """
    members: list[list[int]] = [[] for _ in range(count)]  # per slice, its bumps in rectangle order
    for column, begin, end in zip(columns.tolist(), first.tolist(), stop.tolist()):
        for k in range(begin, end):
            members[k].append(column)
    clip_rows, rows = [], []
    for k, bumps_of_slice in enumerate(members):
        if bumps_of_slice and (k == 0 or bumps_of_slice != members[k - 1]):
            clip_rows.append(tuple([(c, -1.0) for c in bumps_of_slice]))
        rows.append(((len(clip_rows) - 1, -1.0),) if bumps_of_slice else ())
    inner = b.relu(b.sparse_affine(bumps, clip_rows, [1.0] * len(clip_rows)))
    return b.sparse_affine(inner, rows, [1.0 if row else 0.0 for row in rows])
