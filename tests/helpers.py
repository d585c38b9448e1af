"""Shared strategies, generators and reference oracles for the test suite.

Dyadic rationals (small integer / power of two) make every sum, difference and
halving in the interval transformers exact in double precision, so tests that
demand bit-exact equality draw from them.

The scalar interval transformers (``iv_*``), the containment checks, the
closed form of the min gadget, pointwise slice values and the hat function are
test oracles: the package propagates through its compiled network program and
never calls them.

The per-bump gadget chain (``append_local_bump`` and the ramps under it) and
``reference_build`` are the reference for the layered assembly in
``boxcert.gadgets``: they append every bump of every slice one scalar node at a
time, with dense rows and nothing shared, as the builder did before networks
were assembled in layers. The paper's bump, the min of the ramps through a tree
of four-unit min gadgets (``append_min_bump``), is kept beside it as the
reference for the min gadget's closed form and for the documents built with it
(``tests/data``).

``reference_sample_boxes`` and ``reference_check`` are the per-box references
for the columnar campaign in ``boxcert.verify``: they draw one ``BoxRegion``
at a time and check one box at a time in Python floats, as campaigns did
before their boxes stayed arrays.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from hypothesis import strategies as st

from boxcert.construct import build_certified_network, delta_sets
from boxcert.expr import FuncExpr
from boxcert.grids import GridSpec, RectCorners
from boxcert.intervals import BoxRegion, Interval
from boxcert.network import Network, NetworkBuilder, Node
from boxcert.oracle import DEFAULT_SAMPLE_BUDGET, CertifiedBound, certified_box_range
from boxcert.slicing import SliceSpec
from boxcert.verify import BoxRecord


def iv_add(x: Interval, y: Interval) -> Interval:
    return Interval(x.lo + y.lo, x.hi + y.hi)


def iv_neg(x: Interval) -> Interval:
    return Interval(-x.hi, -x.lo)


def iv_scale(lam: float, x: Interval) -> Interval:
    """Scale by a nonnegative factor. Negative factors must go through iv_neg."""
    if lam < 0:
        raise ValueError("scale factor must be nonnegative; compose with iv_neg instead")
    return Interval(lam * x.lo, lam * x.hi)


def iv_relu(x: Interval) -> Interval:
    return Interval(max(0.0, x.lo), max(0.0, x.hi))


def iv_clip_above(b: float, x: Interval) -> Interval:
    """Map both endpoints through t -> b - max(0, b - t), saturating values above b."""
    return Interval(b - max(0.0, b - x.lo), b - max(0.0, b - x.hi))


def iv_affine_row(weights: Sequence[float], bias: float, inputs: Sequence[Interval]) -> Interval:
    """One affine row over interval inputs: bias + sum_i w_i * inputs_i.

    A term with w_i < 0 equals iv_neg(iv_scale(-w_i, inputs_i)); the direct
    endpoint swap below is bit-identical because IEEE negation is exact and
    rounding is sign-symmetric. Accumulation is left to right with the bias
    added last, mirroring the concrete evaluation order.
    """
    if len(weights) != len(inputs):
        raise ValueError(f"affine row has {len(weights)} weights but {len(inputs)} inputs")
    lo = 0.0
    hi = 0.0
    for w, iv in zip(weights, inputs):
        if w >= 0:
            lo += w * iv.lo
            hi += w * iv.hi
        else:
            lo += w * iv.hi
            hi += w * iv.lo
    return Interval(lo + bias, hi + bias)


def nmin2_closed_form(x: Interval, y: Interval) -> Interval:
    """Closed-form image of the two-input min gadget under interval propagation.

    Used only as a test oracle against the network-based evaluator; symmetric in
    its arguments.
    """
    a, b = x.lo, x.hi
    c, d = y.lo, y.hi
    if d <= a:
        return Interval(c + (a - b) / 2, d + (b - a) / 2)
    if b <= c:
        return Interval(a + (c - d) / 2, b + (d - c) / 2)
    return Interval(a + c - (b + d) / 2, (b + d) / 2)


def iv_subset(x: Interval, y: Interval, tol: float = 0.0) -> bool:
    return y.lo - tol <= x.lo and x.hi <= y.hi + tol


def iv_contains(x: Interval, p: float, tol: float = 0.0) -> bool:
    return x.lo - tol <= p <= x.hi + tol


def box_subset(x: BoxRegion, y: BoxRegion, tol: float = 0.0) -> bool:
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    return all(iv_subset(a, b, tol) for a, b in zip(x.bounds, y.bounds))


def box_contains(x: BoxRegion, p: Sequence[float], tol: float = 0.0) -> bool:
    if x.dim != len(p):
        raise ValueError(f"dimension mismatch: box is {x.dim}-d, point is {len(p)}-d")
    return all(iv_contains(b, v, tol) for b, v in zip(x.bounds, p))


def dyadic(max_numerator: int = 2048, denominator_bits: int = 9) -> st.SearchStrategy[float]:
    scale = 2.0 ** -denominator_bits
    return st.integers(-max_numerator, max_numerator).map(lambda k: k * scale)


def dyadic_interval(max_numerator: int = 2048, denominator_bits: int = 9) -> st.SearchStrategy[Interval]:
    return st.tuples(
        dyadic(max_numerator, denominator_bits), dyadic(max_numerator, denominator_bits)
    ).map(lambda ab: Interval(min(ab), max(ab)))


def finite_interval(lo: float = -100.0, hi: float = 100.0) -> st.SearchStrategy[Interval]:
    values = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    return st.tuples(values, values).map(lambda ab: Interval(min(ab), max(ab)))


def rand_dyadic(rng: random.Random, lo: int, hi: int, denominator_bits: int = 9) -> float:
    scale = 2.0 ** -denominator_bits
    return rng.randint(lo * 2**denominator_bits, hi * 2**denominator_bits) * scale


def rand_dyadic_interval(rng: random.Random, lo: int = -4, hi: int = 4, bits: int = 9) -> Interval:
    a = rand_dyadic(rng, lo, hi, bits)
    b = rand_dyadic(rng, lo, hi, bits)
    return Interval(min(a, b), max(a, b))


def random_network(rng: random.Random, max_extra_nodes: int = 8) -> Network:
    """A random small DAG over all node kinds with bounded weights.

    An affine node reads one to three earlier nodes, repeats allowed, at most
    six columns in all.
    """
    dim = rng.randint(1, 3)
    b = NetworkBuilder(dim)
    ids = list(b.input_ids)
    for _ in range(rng.randint(1, max_extra_nodes)):
        if rng.random() < 0.5:
            ids.append(b.relu(rng.choice(ids)))
            continue
        preds = [rng.choice(ids) for _ in range(rng.randint(1, 3))]
        cols = sum(b.arity(p) for p in preds)
        if cols > 6:
            preds, cols = preds[:1], b.arity(preds[0])
        rows = rng.randint(1, 3)
        weights = [[rng.uniform(-2, 2) for _ in range(cols)] for _ in range(rows)]
        bias = [rng.uniform(-1, 1) for _ in range(rows)]
        ids.append(dense_affine(b, preds, weights, bias))
    return b.finish(ids[-1])


def row_terms(node: Node) -> list[list[tuple[int, float]]]:
    """An affine node's rows as lists of their ``(column, weight)`` terms, in summation order."""
    rows = node.weights
    terms = list(zip(rows.columns.tolist(), rows.values.tolist()))
    ends = np.cumsum(rows.counts).tolist()
    return [terms[end - n : end] for n, end in zip(rows.counts.tolist(), ends)]


def csr(rows: Sequence[Sequence[tuple[int, float]]]) -> tuple[list[int], list[int], list[float]]:
    """Rows that list their ``(column, weight)`` terms in summation order, as CSR counts, columns and weights."""
    terms = [term for row in rows for term in row]
    return [len(row) for row in rows], [c for c, _ in terms], [w for _, w in terms]


def sparse_affine(
    b: NetworkBuilder, preds: int | Sequence[int], rows: Sequence[Sequence[tuple[int, float]]], bias: Sequence[float]
) -> int:
    """Append an affine node whose rows list their ``(column, weight)`` terms."""
    return b.csr_affine(preds, *csr(rows), bias)


def dense_affine(
    b: NetworkBuilder, preds: int | Sequence[int], rows: Sequence[Sequence[float]], bias: Sequence[float]
) -> int:
    """Append an affine node with a term for each entry of its rows, in column order."""
    columns = [c for row in rows for c in range(len(row))]
    return b.csr_affine(preds, [len(row) for row in rows], columns, [w for row in rows for w in row], bias)


def identity_network(dim: int) -> Network:
    b = NetworkBuilder(dim)
    rows = [[1.0 if j == i else 0.0 for j in range(dim)] for i in range(dim)]
    return b.finish(dense_affine(b, b.input_ids, rows, [0.0] * dim))


def append_copy(b: NetworkBuilder, net: Network) -> int:
    """Append a copy of ``net`` wired to ``b``'s inputs; return the copy's output id."""
    ids: list[int] = []
    for k, node in enumerate(net.nodes):
        preds = [ids[p] for p in node.preds]
        if node.kind == "input":
            ids.append(k)
        elif node.kind == "affine":
            ids.append(sparse_affine(b, preds, row_terms(node), node.bias))
        else:
            ids.append(b.relu(preds[0]))
    return ids[net.output]


def difference_network(net: Network) -> Network:
    """``net(x) - net(x)`` for a scalar ``net``: two copies and the affine row [1, -1] over both."""
    b = NetworkBuilder(net.input_dim)
    return b.finish(dense_affine(b, [append_copy(b, net), append_copy(b, net)], [[1.0, -1.0]], [0.0]))


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


NMIN2_HIDDEN = ((1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0))
NMIN2_OUT = (0.5, -0.5, -0.5, -0.5)


def append_nmin2(b: NetworkBuilder, left: int, right: int) -> int:
    """Min of two scalar nodes via the four-unit gadget."""
    hidden = b.relu(dense_affine(b, (left, right), NMIN2_HIDDEN, (0.0, 0.0, 0.0, 0.0)))
    return dense_affine(b, hidden, [NMIN2_OUT], (0.0,))


def append_nmin_tree(b: NetworkBuilder, args: Sequence[int]) -> int:
    """Min of scalar nodes, recursing on the first ceil(n/2) and the rest."""
    if not args:
        raise ValueError("min tree needs at least one argument")
    if len(args) == 1:
        return args[0]
    half = math.ceil(len(args) / 2)
    return append_nmin2(b, append_nmin_tree(b, args[:half]), append_nmin_tree(b, args[half:]))


def append_clip_above(b: NetworkBuilder, preds: Sequence[int], bound: float) -> int:
    """``bound - R(bound - sum(preds))`` over scalar nodes, with the sum folded into the first row."""
    inner = b.relu(dense_affine(b, preds, [[-1.0] * len(preds)], [float(bound)]))
    return dense_affine(b, inner, [[-1.0]], [float(bound)])


def append_ramp_chain(
    b: NetworkBuilder, grid: GridSpec, rect: HyperRect, source: Sequence[int], clamped: bool = True
) -> list[int]:
    """The rect's 2m ramps ``1 - R(a)``, one scalar node each, in the order ``lo_0, hi_0, lo_1, ...``.

    ``source`` lists nodes whose outputs, laid end to end, are the m
    unit-box coordinates. Each ramp's affine row ``a`` has integer-exact
    weight cells[k]*ell and bias ell*index. With ``clamped`` false the first
    ramp leaves its relu out and is ``1 - a``, which exceeds 1 inside the hull.
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
            inner = dense_affine(b, source, [row], [offset])
            if clamped or ramps:  # only the first ramp may be left unclamped
                inner = b.relu(inner)
            ramps.append(dense_affine(b, inner, [[-1.0]], [1.0]))
    return ramps


def append_local_bump(
    b: NetworkBuilder,
    grid: GridSpec,
    rect: HyperRect,
    source: Sequence[int],
    bias: float | None = None,
    clamped: bool = True,
) -> int:
    """Bump ``R(sum of the 2m ramps + bias)`` of the rect, one scalar node at a time.

    With the default bias ``-(2m - 1)`` it is 1 on the rect's hull and 0 one
    grid step beyond it; ``bias`` and ``clamped`` (see ``append_ramp_chain``)
    let tests build broken variants.
    """
    ramps = append_ramp_chain(b, grid, rect, source, clamped)
    bias = 1.0 - len(ramps) if bias is None else bias
    return b.relu(dense_affine(b, ramps, [[1.0] * len(ramps)], [bias]))


def append_min_bump(b: NetworkBuilder, grid: GridSpec, rect: HyperRect, source: Sequence[int]) -> int:
    """The paper's bump: the min of the rect's 2m ramps through a min-gadget tree, rectified."""
    return b.relu(append_nmin_tree(b, append_ramp_chain(b, grid, rect, source)))


def slice_members(corners: RectCorners, count: int) -> list[list[HyperRect]]:
    """Each of ``count`` slices' maximal rectangles in sorted order, from ``prune_maximal``'s corners."""
    slices: list[list[HyperRect]] = [[] for _ in range(count)]
    for lo, hi, first, stop in zip(corners.lo.tolist(), corners.hi.tolist(), corners.first, corners.stop):
        for k in range(first, stop):
            slices[k].append(HyperRect(tuple(lo), tuple(hi)))
    return slices


def rect_corners(rects: Sequence[HyperRect]) -> RectCorners:
    """Rectangles as corner arrays, each maximal in slice 0 only."""
    dim = rects[0].dim if rects else 1
    lo = np.array([r.lower for r in rects], dtype=np.intp).reshape(len(rects), dim)
    hi = np.array([r.upper for r in rects], dtype=np.intp).reshape(len(rects), dim)
    return RectCorners(lo, hi, np.zeros(len(rects), dtype=np.intp), np.ones(len(rects), dtype=np.intp))


def reference_build(f: FuncExpr, delta: float, bump=append_local_bump) -> Network:
    """``build_certified_network``'s network, built one bump gadget chain at a time.

    Each slice appends its own unit-box input map (off the unit box), a
    bump per rectangle in sorted order and its clip; an empty slice is a
    zero-weight row over the inputs; one row sums the slices. Nothing is
    shared, every row is dense, and the metadata is the layered build's.
    ``bump`` appends one bump: ``append_min_bump`` gives the paper's network.
    """
    net, report = build_certified_network(f, delta)
    grid = GridSpec(report.cells_per_unit)
    levels = tuple(float.fromhex(v) for v in net.metadata["levels"].split())
    spec = SliceSpec(report.slice_count, levels, report.delta)
    b = NetworkBuilder(f.dim)
    outs = []
    for rects in slice_members(delta_sets(f, grid, spec), spec.count):
        if not rects:
            outs.append(dense_affine(b, b.input_ids, [[0.0] * f.dim], [0.0]))
            continue
        source = b.input_ids
        if any(iv.lo != 0.0 or iv.hi != 1.0 for iv in f.domain.bounds):
            scales = [1.0 / iv.width if iv.width > 0 else 1.0 for iv in f.domain.bounds]
            rows = [[scales[k] if j == k else 0.0 for j in range(f.dim)] for k in range(f.dim)]
            source = [dense_affine(b, b.input_ids, rows, [-(iv.lo * r) for iv, r in zip(f.domain.bounds, scales)])]
        outs.append(append_clip_above(b, [bump(b, grid, rect, source) for rect in rects], 1.0))
    return b.finish(dense_affine(b, outs, [[spec.half_delta] * len(outs)], [spec.bottom]), net.metadata)


def build_nmin2() -> Network:
    b = NetworkBuilder(2)
    out = append_nmin2(b, 0, 1)
    return b.finish(out)


def build_nmin_n(n: int) -> Network:
    if n < 1:
        raise ValueError("min network needs at least one input")
    b = NetworkBuilder(n)
    out = append_nmin_tree(b, b.input_ids)
    return b.finish(out)


def build_clip_above(bound: float) -> Network:
    b = NetworkBuilder(1)
    out = append_clip_above(b, [0], bound)
    return b.finish(out)


def slice_eval(f: FuncExpr, spec: SliceSpec, k: int, x: Sequence[float]) -> float:
    """Value of slice k at a point: 0 below its level, clamped to the slab height."""
    if not 0 <= k < spec.count:
        raise ValueError(f"slice index {k} out of range for {spec.count} slices")
    lo = spec.levels[k]
    height = spec.levels[k + 1] - lo
    return min(max(f.eval(x) - lo, 0.0), height)


def slice_eval_many(f: FuncExpr, spec: SliceSpec, k: int, pts: np.ndarray) -> np.ndarray:
    if not 0 <= k < spec.count:
        raise ValueError(f"slice index {k} out of range for {spec.count} slices")
    lo = spec.levels[k]
    height = spec.levels[k + 1] - lo
    return np.minimum(np.maximum(f.eval_many(pts) - lo, 0.0), height)


def hat_function(x: float) -> float:
    """Reference values for both fixtures: 1, then 1 - x, then 0."""
    if x <= 0.0:
        return 1.0
    if x >= 1.0:
        return 0.0
    return 1.0 - x


def rect_hull(rect: HyperRect, grid: GridSpec) -> BoxRegion:
    """A grid rectangle's corners as a box of unit-box coordinates."""
    return BoxRegion.from_pairs([(lo / c, hi / c) for lo, hi, c in zip(rect.lower, rect.upper, grid.cells)])


def bump_relu_budget(dim: int) -> int:
    """Unit count 2m + 1 of a bump over an m-dim grid: one per ramp and one for the sum."""
    return 2 * dim + 1


def build_local_bump(grid: GridSpec, rect: HyperRect, bias: float | None = None, clamped: bool = True) -> Network:
    b = NetworkBuilder(grid.dim)
    out = append_local_bump(b, grid, rect, b.input_ids, bias, clamped)
    return b.finish(
        out,
        {
            "kind": "local-bump",
            "relu_budget_formula": str(bump_relu_budget(grid.dim)),
            "cells_per_unit": ",".join(str(c) for c in grid.cells),
        },
    )


def bump_closed_form(grid: GridSpec, rect: HyperRect, x: Sequence[float]) -> float:
    """Direct evaluation of the bump's piecewise-linear shape.

    Computes the ramps as written, c_k*ell*(x_k - i/c_k) + 1, clamps each at
    1, and rectifies their sum less 2m - 1; this follows a different float
    path than the network.
    """
    total = 1.0 - 2 * grid.dim
    for k, c in enumerate(grid.cells):
        steep = c * grid.ell
        total += min(1.0, steep * (x[k] - rect.lower[k] / c) + 1.0)
        total += min(1.0, steep * (rect.upper[k] / c - x[k]) + 1.0)
    return max(0.0, total)


def grid_boxes(domain: BoxRegion, cells: Sequence[int]) -> Iterator[tuple[tuple[float, float], ...]]:
    """Every grid-aligned box of ``domain``, degenerate sides included, then every half-cell-shifted one.

    Each box is its ``(lo, hi)`` pair per axis. Axis k has ``cells[k]``
    cells. An aligned box's corners are grid points and a shifted box's are
    cell midpoints, so the shifted boxes cut through cells.
    """
    for shift in (0.0, 0.5):
        axes = []
        for iv, c in zip(domain.bounds, cells):
            count = c if shift else c + 1
            points = [min(iv.hi, iv.lo + iv.width * (i + shift) / c) for i in range(count)]
            axes.append([(a, b) for i, a in enumerate(points) for b in points[i:]])
        yield from itertools.product(*axes)


def random_box(rng: random.Random, dim: int, lo: float = -3.0, hi: float = 3.0) -> BoxRegion:
    pairs = []
    for _ in range(dim):
        a = rng.uniform(lo, hi)
        c = rng.uniform(lo, hi)
        pairs.append((min(a, c), max(a, c)))
    return BoxRegion.from_pairs(pairs)


def point_inside(rng: random.Random, box: BoxRegion) -> list[float]:
    return [rng.uniform(b.lo, b.hi) for b in box.bounds]


def shrink_box(rng: random.Random, box: BoxRegion) -> BoxRegion:
    """A random sub-box of the given box."""
    pairs = []
    for b in box.bounds:
        a = rng.uniform(b.lo, b.hi)
        c = rng.uniform(b.lo, b.hi)
        pairs.append((min(a, c), max(a, c)))
    return BoxRegion.from_pairs(pairs)


def reference_eval_concrete(net: Network, x) -> tuple[float, ...]:
    """Per-node walk at a point: affine rows accumulate their terms in stored order from 0.0, bias last.

    An affine node reads its predecessors' values laid end to end. The
    reference the compiled evaluator must match bit for bit.
    """
    vals: list[tuple[float, ...]] = []
    for k, node in enumerate(net.nodes):
        if node.kind == "input":
            vals.append((float(x[k]),))
        elif node.kind == "affine":
            v = [t for p in node.preds for t in vals[p]]
            out = []
            for row, b in zip(row_terms(node), node.bias.tolist()):
                acc = 0.0
                for c, w in row:
                    acc += w * v[c]
                out.append(acc + b)
            vals.append(tuple(out))
        else:
            vals.append(tuple(max(0.0, t) for t in vals[node.preds[0]]))
    return vals[net.output]


def reference_eval_abstract(net: Network, box: BoxRegion) -> BoxRegion:
    """Per-node walk with the ``Interval`` transformers, in the stored node order."""
    vals: list[tuple[Interval, ...]] = []
    for k, node in enumerate(net.nodes):
        if node.kind == "input":
            vals.append((box.bounds[k],))
        elif node.kind == "affine":
            v = [t for p in node.preds for t in vals[p]]
            vals.append(tuple(
                iv_affine_row([w for _, w in row], b, [v[c] for c, _ in row])
                for row, b in zip(row_terms(node), node.bias.tolist())
            ))
        else:
            vals.append(tuple(iv_relu(t) for t in vals[node.preds[0]]))
    return BoxRegion(vals[net.output])


def enumerate_rects(grid: GridSpec) -> Iterator[HyperRect]:
    """All grid hyperrectangles (degenerate sides included), in sorted index order."""
    per_dim = [[(i, j) for i in range(c + 1) for j in range(i, c + 1)] for c in grid.cells]
    for combo in itertools.product(*per_dim):
        yield HyperRect(tuple(p[0] for p in combo), tuple(p[1] for p in combo))


def reference_prune_maximal(rects: Sequence[HyperRect]) -> list[HyperRect]:
    """Brute-force pruning: keep the rectangles no other member strictly contains, sorted.

    The O(n^2) reference for ``grids.prune_maximal``; it needs no closure
    property of its input.
    """
    if not rects:
        return []
    items = list(rects)
    lows = np.array([r.lower for r in items], dtype=np.int64)
    highs = np.array([r.upper for r in items], dtype=np.int64)
    dominated = np.zeros(len(items), dtype=bool)
    for j in range(len(items)):  # does member j strictly contain others?
        inside = (lows[j] <= lows).all(axis=1) & (highs[j] >= highs).all(axis=1)
        inside[j] = False
        proper = (lows[j] != lows).any(axis=1) | (highs[j] != highs).any(axis=1)
        dominated |= inside & proper
    return sorted(r for r, d in zip(items, dominated) if not d)


def certified_box_min(
    f: FuncExpr, box: BoxRegion, target_margin: float, budget: int = DEFAULT_SAMPLE_BUDGET
) -> CertifiedBound:
    return certified_box_range(f, box, target_margin, budget)[0]


def certified_box_max(
    f: FuncExpr, box: BoxRegion, target_margin: float, budget: int = DEFAULT_SAMPLE_BUDGET
) -> CertifiedBound:
    return certified_box_range(f, box, target_margin, budget)[1]


def box_arrays(boxes: Sequence[BoxRegion]) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper corners of the boxes as ``(boxes, dim)`` arrays."""
    lo = np.array([[b.lo for b in box.bounds] for box in boxes])
    hi = np.array([[b.hi for b in box.bounds] for box in boxes])
    return lo, hi


def reference_sample_boxes(domain: BoxRegion, count: int, seed: int) -> list[BoxRegion]:
    """The per-box reference for ``verify.sample_boxes``: one validated ``BoxRegion`` per box.

    The domain itself, then the inner unit box when the domain is the
    symmetric two-unit box, then the corner lattice, then two
    ``random.uniform`` draws per axis, axis by axis and box by box.
    """
    m = domain.dim
    specials: list[BoxRegion] = [domain]
    if all(b.lo == -2.0 and b.hi == 2.0 for b in domain.bounds):
        specials.append(BoxRegion.from_pairs([(-1.0, 1.0)] * m))
    lattice_axes = [[b.lo + t * (b.hi - b.lo) / 4.0 for t in range(5)] for b in domain.bounds]
    corners = itertools.islice(itertools.product(*lattice_axes), max(0, count - len(specials)))
    specials.extend(BoxRegion.point(x) for x in corners)
    rng = random.Random(seed)
    boxes = specials[:count]
    while len(boxes) < count:
        pairs = []
        for b in domain.bounds:
            p = rng.uniform(b.lo, b.hi)
            q = rng.uniform(b.lo, b.hi)
            pairs.append((min(p, q), max(p, q)))
        boxes.append(BoxRegion.from_pairs(pairs))
    return boxes


def reference_check(
    box: BoxRegion,
    bounds: tuple[CertifiedBound, CertifiedBound] | None,
    prop_box: BoxRegion,
    delta: float,
    tolerance: float,
) -> BoxRecord:
    """The per-box reference for ``verify._check``: both inclusions of the sandwich in Python floats."""
    if bounds is None:
        return BoxRecord(box, None, None, None, "inconclusive", "inconclusive", 0.0)
    cmin, cmax = bounds
    prop = prop_box.bounds[0]

    required_lo = cmin.hi + delta
    required_hi = cmax.lo - delta
    violation = 0.0
    if required_lo > required_hi:
        lower_status = "vacuous"
    else:
        lo_gap = prop.lo - required_lo
        hi_gap = required_hi - prop.hi
        if lo_gap <= tolerance and hi_gap <= tolerance:
            lower_status = "holds"
        else:
            lower_status = "fail"
            violation = max(violation, lo_gap, hi_gap)

    bound_lo = cmin.lo - delta
    bound_hi = cmax.hi + delta
    lo_gap = bound_lo - prop.lo
    hi_gap = prop.hi - bound_hi
    if lo_gap <= tolerance and hi_gap <= tolerance:
        upper_status = "holds"
    else:
        upper_status = "fail"
        violation = max(violation, lo_gap, hi_gap)

    return BoxRecord(box, cmin, cmax, prop, lower_status, upper_status, violation)


def reference_box_range(
    f: FuncExpr, box: BoxRegion, target_margin: float, budget: int = DEFAULT_SAMPLE_BUDGET
) -> tuple[CertifiedBound, CertifiedBound] | None:
    """One box sampled on its own ``np.linspace``/``meshgrid`` lattice; None over the budget.

    The per-box reference for ``oracle.certified_box_ranges``: Python integer
    cell counts and sample totals, ``np.argmin``/``np.argmax`` for the
    first-occurrence extrema.
    """
    lipschitz = f.lipschitz
    counts = [0] * box.dim
    if lipschitz != 0.0:
        h = 2.0 * target_margin / lipschitz
        counts = [0 if b.width == 0 else max(1, math.ceil(b.width / h)) for b in box.bounds]
    if math.prod(n + 1 for n in counts) > budget:
        return None
    axes = [np.linspace(b.lo, b.hi, n + 1) if n > 0 else np.array([b.lo]) for b, n in zip(box.bounds, counts)]
    pts = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    vals = f.eval_many(pts)
    spacings = [b.width / n for b, n in zip(box.bounds, counts) if n > 0]
    margin = lipschitz * max(spacings, default=0.0) / 2.0
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
    return (
        CertifiedBound("min", float(vals[imin]), margin, tuple(pts[imin])),
        CertifiedBound("max", float(vals[imax]), margin, tuple(pts[imax])),
    )
