"""Shared strategies and generators for the test suite.

Dyadic rationals (small integer / power of two) make every sum, difference and
halving in the interval transformers exact in double precision, so tests that
demand bit-exact equality draw from them.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator, Sequence

import numpy as np
from hypothesis import strategies as st

from boxcert.expr import FuncExpr
from boxcert.gadgets import append_clip_above, append_local_bump, append_nmin2, append_nmin_tree
from boxcert.grids import GridSpec, HyperRect
from boxcert.intervals import BoxRegion, Interval, iv_add, iv_affine_row, iv_relu
from boxcert.network import Network, NetworkBuilder, Node
from boxcert.oracle import DEFAULT_SAMPLE_BUDGET, CertifiedBound, certified_box_range


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


class PlainBuilder(NetworkBuilder):
    """A builder that appends every node, merging none: the unmerged reference."""

    def _append(self, node: Node, arity: int) -> int:
        self._nodes.append(node)
        self._arities.append(arity)
        return len(self._nodes) - 1


def random_network(rng: random.Random, max_extra_nodes: int = 8) -> Network:
    """A random small DAG over all node kinds with bounded weights."""
    dim = rng.randint(1, 3)
    b = NetworkBuilder(dim)
    ids = list(b.input_ids)
    for _ in range(rng.randint(1, max_extra_nodes)):
        kind = rng.choice(("affine", "relu", "sum", "concat"))
        if kind == "affine":
            pred = rng.choice(ids)
            cols = b.arity(pred)
            rows = rng.randint(1, 3)
            weights = [[rng.uniform(-2, 2) for _ in range(cols)] for _ in range(rows)]
            bias = [rng.uniform(-1, 1) for _ in range(rows)]
            ids.append(b.affine(pred, weights, bias))
        elif kind == "relu":
            ids.append(b.relu(rng.choice(ids)))
        elif kind == "sum":
            pred = rng.choice(ids)
            same = [p for p in ids if b.arity(p) == b.arity(pred)]
            picks = [pred] + [rng.choice(same) for _ in range(rng.randint(1, 2))]
            ids.append(b.sum(picks))
        else:
            picks = [rng.choice(ids) for _ in range(rng.randint(1, 3))]
            if sum(b.arity(p) for p in picks) <= 6:
                ids.append(b.concat(picks))
    return b.finish(ids[-1])


def identity_network(dim: int) -> Network:
    b = NetworkBuilder(dim)
    src = b.concat(b.input_ids) if dim > 1 else b.input_id(0)
    rows = [[1.0 if j == i else 0.0 for j in range(dim)] for i in range(dim)]
    return b.finish(b.affine(src, rows, [0.0] * dim))


def append_copy(b: NetworkBuilder, net: Network) -> int:
    """Append a copy of ``net`` wired to ``b``'s inputs; return the copy's output id."""
    ids: list[int] = []
    for node in net.nodes:
        preds = [ids[p] for p in node.preds]
        if node.kind == "input":
            ids.append(b.input_id(node.index))
        elif node.kind == "affine":
            ids.append(b.affine(preds[0], node.weights, node.bias))
        elif node.kind == "relu":
            ids.append(b.relu(preds[0]))
        elif node.kind == "sum":
            ids.append(b.sum(preds))
        else:
            ids.append(b.concat(preds))
    return ids[net.output]


def difference_network(net: Network) -> Network:
    """``net(x) - net(x)`` for a scalar ``net``: two copies, a concat, and the affine row [1, -1]."""
    b = PlainBuilder(net.input_dim)
    cat = b.concat([append_copy(b, net), append_copy(b, net)])
    return b.finish(b.affine(cat, [[1.0, -1.0]], [0.0]))


def build_nmin2() -> Network:
    b = NetworkBuilder(2)
    out = append_nmin2(b, b.input_id(0), b.input_id(1))
    return b.finish(out)


def build_nmin_n(n: int) -> Network:
    if n < 1:
        raise ValueError("min network needs at least one input")
    b = NetworkBuilder(n)
    out = append_nmin_tree(b, b.input_ids)
    return b.finish(out)


def build_clip_above(bound: float) -> Network:
    b = NetworkBuilder(1)
    out = append_clip_above(b, b.input_id(0), bound)
    return b.finish(out)


def bump_relu_budget(dim: int) -> int:
    """Unit-count estimate 1 + 2(2m - 1) + 2m for a bump over an m-dim grid."""
    return 1 + 2 * (2 * dim - 1) + 2 * dim


def build_local_bump(grid: GridSpec, rect: HyperRect) -> Network:
    b = NetworkBuilder(grid.dim)
    source = b.concat(b.input_ids) if grid.dim > 1 else b.input_id(0)
    out = append_local_bump(b, grid, rect, source)
    return b.finish(
        out,
        {
            "kind": "local-bump",
            "relu_budget_formula": str(bump_relu_budget(grid.dim)),
            "cells_per_unit": str(grid.cells_per_unit),
        },
    )


def bump_closed_form(grid: GridSpec, rect: HyperRect, x: Sequence[float]) -> float:
    """Direct evaluation of the bump's piecewise-linear shape.

    Computes the ramps as written, M*ell*(x_k - i/M) + 1, then clamps the min
    to [0, 1]; this follows a different float path than the network.
    """
    m = grid.cells_per_unit
    steep = m * grid.ell
    smallest = math.inf
    for k in range(grid.dim):
        lo_ramp = steep * (x[k] - rect.lower[k] / m) + 1.0
        hi_ramp = steep * (rect.upper[k] / m - x[k]) + 1.0
        smallest = min(smallest, lo_ramp, hi_ramp)
    return max(0.0, min(1.0, smallest))


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
    """Per-node walk at a point: affine rows accumulate left to right from 0.0, bias last.

    The reference the compiled evaluator must match bit for bit.
    """
    vals: list[tuple[float, ...]] = []
    for node in net.nodes:
        if node.kind == "input":
            vals.append((float(x[node.index]),))
        elif node.kind == "affine":
            v = vals[node.preds[0]]
            out = []
            for row, b in zip(node.weights, node.bias):
                acc = 0.0
                for w, xv in zip(row, v):
                    acc += w * xv
                out.append(acc + b)
            vals.append(tuple(out))
        elif node.kind == "relu":
            vals.append(tuple(max(0.0, t) for t in vals[node.preds[0]]))
        elif node.kind == "sum":
            acc_v = list(vals[node.preds[0]])
            for p in node.preds[1:]:
                nxt = vals[p]
                for j in range(len(acc_v)):
                    acc_v[j] = acc_v[j] + nxt[j]
            vals.append(tuple(acc_v))
        else:  # concat
            parts: list[float] = []
            for p in node.preds:
                parts.extend(vals[p])
            vals.append(tuple(parts))
    return vals[net.output]


def reference_eval_abstract(net: Network, box: BoxRegion) -> BoxRegion:
    """Per-node walk with the ``Interval`` transformers, in the stored node order."""
    vals: list[tuple[Interval, ...]] = []
    for node in net.nodes:
        if node.kind == "input":
            vals.append((box.bounds[node.index],))
        elif node.kind == "affine":
            v = vals[node.preds[0]]
            vals.append(tuple(iv_affine_row(row, b, v) for row, b in zip(node.weights, node.bias)))
        elif node.kind == "relu":
            vals.append(tuple(iv_relu(t) for t in vals[node.preds[0]]))
        elif node.kind == "sum":
            acc = list(vals[node.preds[0]])
            for p in node.preds[1:]:
                nxt = vals[p]
                for j in range(len(acc)):
                    acc[j] = iv_add(acc[j], nxt[j])
            vals.append(tuple(acc))
        else:  # concat
            parts: list[Interval] = []
            for p in node.preds:
                parts.extend(vals[p])
            vals.append(tuple(parts))
    return BoxRegion(vals[net.output])


def enumerate_rects(grid: GridSpec) -> Iterator[HyperRect]:
    """All grid hyperrectangles (degenerate sides included), in sorted index order."""
    per_dim = []
    for k in range(grid.dim):
        lo, hi = grid.index_lo[k], grid.index_hi[k]
        per_dim.append([(i, j) for i in range(lo, hi + 1) for j in range(i, hi + 1)])
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
