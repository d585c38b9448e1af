import functools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert.gadgets import append_bumps, append_ramps, append_slice_clips
from boxcert.grids import GridSpec, ramp_steepness
from boxcert.intervals import BoxRegion, Interval
from boxcert.network import NetworkBuilder, eval_abstract, eval_abstract_many, eval_concrete, stats

from helpers import (
    HyperRect,
    append_clip_above,
    build_clip_above,
    build_local_bump,
    build_nmin2,
    build_nmin_n,
    bump_closed_form,
    bump_relu_budget,
    rect_hull,
    iv_add,
    iv_clip_above,
    iv_subset,
    nmin2_closed_form,
    rand_dyadic,
    rand_dyadic_interval,
    row_terms,
    sparse_affine,
)


def propagate1(net, *intervals):
    return eval_abstract(net, BoxRegion(tuple(intervals))).bounds[0]


class TestMinGadget:
    def test_concrete_examples(self):
        n = build_nmin2()
        assert eval_concrete(n, [3.0, 5.0])[0] == 3.0
        assert eval_concrete(n, [-1.0, -2.0])[0] == -2.0

    def test_concrete_equals_min_exactly_on_dyadics(self):
        n = build_nmin2()
        rng = random.Random(11)
        for _ in range(10_000):
            x, y = rand_dyadic(rng, -9, 9), rand_dyadic(rng, -9, 9)
            assert eval_concrete(n, [x, y])[0] == min(x, y)

    def test_concrete_near_min_on_generic_floats(self):
        n = build_nmin2()
        rng = random.Random(12)
        for _ in range(2000):
            x, y = rng.uniform(-9, 9), rng.uniform(-9, 9)
            assert eval_concrete(n, [x, y])[0] == pytest.approx(min(x, y), abs=1e-12)

    def test_abstract_matches_closed_form_on_example(self):
        out = propagate1(build_nmin2(), Interval(2, 3), Interval(0, 1))
        assert out == Interval(-0.5, 1.5)
        assert out == nmin2_closed_form(Interval(2, 3), Interval(0, 1))

    def test_abstract_equals_closed_form_exactly_on_dyadics(self):
        n = build_nmin2()
        rng = random.Random(21)
        for _ in range(3000):
            x = rand_dyadic_interval(rng)
            y = rand_dyadic_interval(rng)
            assert propagate1(n, x, y) == nmin2_closed_form(x, y)

    def test_boundary_ties(self):
        n = build_nmin2()
        cases = [
            (Interval(0, 1), Interval(1, 2)),   # d == ... touching
            (Interval(1, 1), Interval(1, 1)),   # all equal
            (Interval(0, 2), Interval(2, 3)),   # b == c
            (Interval(2, 3), Interval(1, 2)),   # d == a
            (Interval(-1, 0), Interval(0, 0)),
        ]
        for x, y in cases:
            assert propagate1(n, x, y) == nmin2_closed_form(x, y)


class TestMinTree:
    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            build_nmin_n(0)

    def test_single_input_is_identity(self):
        n = build_nmin_n(1)
        assert eval_concrete(n, [0.7])[0] == 0.7

    @pytest.mark.parametrize("width", [2, 3, 4, 5, 7, 8])
    def test_computes_min(self, width):
        n = build_nmin_n(width)
        rng = random.Random(width)
        for _ in range(300):
            xs = [rand_dyadic(rng, -5, 5) for _ in range(width)]
            assert eval_concrete(n, xs)[0] == min(xs)
        for _ in range(300):
            xs = [rng.uniform(-5, 5) for _ in range(width)]
            assert eval_concrete(n, xs)[0] == pytest.approx(min(xs), abs=1e-12)

    def test_four_wide_example(self):
        assert eval_concrete(build_nmin_n(4), [4.0, 2.0, 7.0, 5.0])[0] == 2.0

    def test_unit_upper_chain_example(self):
        n = build_nmin_n(3)
        out = propagate1(n, Interval(0.2, 1), Interval(0.5, 1), Interval(0.9, 1))
        assert out.hi == 1.0
        assert out.lo == pytest.approx(0.2 + 0.5 + 0.9 + 1 - 3, abs=1e-12)

    def test_point_second_argument_drags_upper_below_halving_bound(self):
        # a degenerate [-3, -3] second argument forces the upper end at or
        # below (1 + (-3))/2 = -1, and propagation still matches the closed form
        out = propagate1(build_nmin2(), Interval(0.5, 1.0), Interval(-3.0, -3.0))
        assert out == nmin2_closed_form(Interval(0.5, 1.0), Interval(-3.0, -3.0))
        assert out == Interval(-3.25, -2.75)
        assert out.hi <= -1.0

    @pytest.mark.parametrize("width", list(range(1, 17)))
    def test_unit_upper_chain_exact_on_dyadics(self, width):
        n = build_nmin_n(width)
        rng = random.Random(width * 7)
        for _ in range(100):
            us = [rand_dyadic(rng, -2, 1, 9) for _ in range(width)]
            out = propagate1(n, *(Interval(u, 1.0) for u in us))
            expected = 0.0
            for u in us:
                expected += u
            expected = expected + 1.0 - width
            assert out == Interval(expected, 1.0)

    def test_minimal_element_upper_bound(self):
        # with both upper ends at most 1 the propagated upper end stays at or
        # below (b+1)/2; this is the half of the containment that the
        # off-support collapse argument leans on (the claimed lower end
        # a + (u-1)/2 is not a valid bound once u < b, see notes)
        n = build_nmin2()
        rng = random.Random(5)
        for _ in range(1000):
            a = rand_dyadic(rng, -4, 1)
            b = rand_dyadic(rng, -4, 1)
            a, b = min(a, b), max(a, b)
            u = rand_dyadic(rng, -4, 1)
            out = propagate1(n, Interval(a, b), Interval(u, 1.0))
            assert out.hi <= (b + 1) / 2

    def test_minimal_element_containment_when_first_below_second(self):
        # the full two-sided containment does hold in the b <= u case
        n = build_nmin2()
        rng = random.Random(6)
        for _ in range(1000):
            a = rand_dyadic(rng, -4, 1)
            b = rand_dyadic(rng, -4, 1)
            a, b = min(a, b), max(a, b)
            u = rand_dyadic(rng, int(math.ceil(b)), 1) if b < 1 else 1.0
            if u < b:
                continue
            out = propagate1(n, Interval(a, b), Interval(u, 1.0))
            assert iv_subset(out, Interval(a + (u - 1) / 2, (b + 1) / 2))

    @pytest.mark.parametrize("width", [2, 3, 4, 6, 8])
    def test_off_support_collapse(self, width):
        # one argument bounded above by 1 - 2^(ceil(log2 N) + 1) drags the
        # propagated upper bound to or below zero wherever it sits
        n = build_nmin_n(width)
        cap = 1.0 - 2.0 ** (math.ceil(math.log2(width)) + 1)
        rng = random.Random(width)
        for position in range(width):
            for _ in range(200):
                args = [Interval(rand_dyadic(rng, -2, 1), 1.0) for _ in range(width)]
                low_end = rand_dyadic(rng, -16, int(math.floor(cap)) - 1)
                args[position] = Interval(min(low_end, cap), cap)
                out = propagate1(n, *args)
                assert out.hi <= 0.0


class TestClip:
    def test_clips_concrete(self):
        n = build_clip_above(1.0)
        assert eval_concrete(n, [2.0])[0] == 1.0
        assert eval_concrete(n, [-0.5])[0] == -0.5

    def test_abstract_matches_interval_clip(self):
        n = build_clip_above(1.0)
        assert propagate1(n, Interval(0.5, 2)) == Interval(0.5, 1)
        rng = random.Random(2)
        for _ in range(1000):
            x = rand_dyadic_interval(rng)
            assert propagate1(n, x) == iv_clip_above(1.0, x)

    # Bump outputs: non-negative, never -0.0, with zeros, subnormals and values near 1.
    BUMP_VALUES = st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0**-1074 * 3, 2.0**-1022, 1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52]),
        st.floats(0.0, 2.0**-1000),
        st.floats(0.9, 1.1),
        st.floats(0.0, 2.0),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(BUMP_VALUES, BUMP_VALUES).map(sorted), min_size=1, max_size=8))
    def test_folded_first_row_equals_sum_then_clip(self, pairs):
        # the gadget chain's clip, and the layered clip row of one slice over a bump node
        terms = [Interval(lo, hi) for lo, hi in pairs]
        n = len(terms)
        b = NetworkBuilder(n)
        chain = b.finish(append_clip_above(b, b.input_ids, 1.0))
        bumps = b.relu(sparse_affine(b, b.input_ids, [[(k, 1.0)] for k in range(n)], [0.0] * n))
        layered = b.finish(append_slice_clips(b, bumps, np.zeros(n, int), np.ones(n, int), 1))
        want = iv_clip_above(1.0, functools.reduce(iv_add, terms))
        for net in (chain, layered):
            got = propagate1(net, *terms)
            assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())


class TestSteepness:
    def test_powers_of_two(self):
        assert ramp_steepness(1) == 4
        assert ramp_steepness(2) == 8
        assert ramp_steepness(3) == 16


def unit_grid(dim, cells):
    return GridSpec((cells,) * dim)


def check_bump_contract(bump, grid, rect, rng, column=0):
    """[1, 1] on boxes inside the corner hull, [0, 0] one grid step away, and never outside [0, 1].

    The bump is output ``column`` of the network ``bump``.
    """
    dim = grid.dim
    hull = rect_hull(rect, grid)
    for _ in range(200):
        # boxes inside the corner hull propagate to exactly [1, 1]
        pairs = []
        for k in range(dim):
            a = rng.uniform(hull[k].lo, hull[k].hi)
            b = rng.uniform(hull[k].lo, hull[k].hi)
            pairs.append((min(a, b), max(a, b)))
        assert eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[column] == Interval(1, 1)
    for _ in range(200):
        # boxes separated one grid step from the hull collapse to [0, 0]
        split = rng.randrange(dim)
        side = rng.choice((-1, 1))
        pairs = []
        for k in range(dim):
            if k == split:
                if side < 0:
                    b = hull[k].lo - 1.0 / grid.cells[k] - 1e-6 * rng.uniform(1, 9)
                    a = b - rng.uniform(0, 2)
                else:
                    a = hull[k].hi + 1.0 / grid.cells[k] + 1e-6 * rng.uniform(1, 9)
                    b = a + rng.uniform(0, 2)
            else:
                a = rng.uniform(-2, 2)
                b = a + rng.uniform(0, 3)
            pairs.append((min(a, b), max(a, b)))
        assert eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[column] == Interval(0, 0)
    for _ in range(200):
        # and the image never leaves [0, 1]
        pairs = []
        for k in range(dim):
            a = rng.uniform(-3, 3)
            b = a + rng.uniform(0, 4)
            pairs.append((a, b))
        out = eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[column]
        assert 0.0 <= out.lo <= out.hi <= 1.0


class TestLocalBump:
    def test_unit_cell_values(self):
        grid = unit_grid(1, 4)
        bump = build_local_bump(grid, HyperRect((1,), (2,)))  # 1 on [0.25, 0.5]
        assert eval_concrete(bump, [0.375])[0] == 1.0
        assert eval_concrete(bump, [0.25 - 1 / 16])[0] == 0.0  # support ends 1/(cells*ell) out
        assert eval_concrete(bump, [0.25 - 1 / 32])[0] == 0.5

    def test_corner_outside_grid_rejected(self):
        grid = unit_grid(1, 4)
        with pytest.raises(ValueError, match="outside the grid"):
            build_local_bump(grid, HyperRect((2,), (5,)))

    def test_relu_count_and_budget_formula(self):
        bump1 = build_local_bump(unit_grid(1, 4), HyperRect((1,), (2,)))
        assert stats(bump1)["relu_count"] == 3
        assert bump1.metadata["relu_budget_formula"] == str(bump_relu_budget(1)) == "3"
        bump2 = build_local_bump(unit_grid(2, 4), HyperRect((1, 1), (2, 3)))
        assert bump2.metadata["relu_budget_formula"] == str(bump_relu_budget(2)) == "5"
        assert stats(bump2)["relu_count"] == 5

    @pytest.mark.parametrize("dim,cells", [(1, 2), (1, 4), (1, 8), (2, 4)])
    def test_matches_closed_form_pointwise(self, dim, cells):
        grid = unit_grid(dim, cells)
        rng = random.Random(dim * 100 + cells)
        lower = tuple(rng.randint(0, cells - 1) for _ in range(dim))
        upper = tuple(rng.randint(l, cells) for l in lower)
        rect = HyperRect(lower, upper)
        bump = build_local_bump(grid, rect)
        for _ in range(500):
            x = [rng.uniform(-0.5, 1.5) for _ in range(dim)]
            assert eval_concrete(bump, x)[0] == pytest.approx(
                bump_closed_form(grid, rect, x), abs=1e-9
            )

    @pytest.mark.parametrize("dim", [1, 2])
    def test_abstract_contract(self, dim):
        grid = unit_grid(dim, 4)
        rect = HyperRect((1,) * dim, (2,) * dim)
        check_bump_contract(build_local_bump(grid, rect), grid, rect, random.Random(dim))

    def test_contract_holds_on_shared_ramps(self):
        # the layered bumps of two rectangles, with the lower ramp on axis 0 in common
        grid = unit_grid(2, 4)
        rects = (HyperRect((1, 1), (2, 2)), HyperRect((1, 0), (3, 1)))
        b = NetworkBuilder(2)
        lo, hi = np.array([r.lower for r in rects]), np.array([r.upper for r in rects])
        ramps, operands = append_ramps(b, b.input_ids, grid, lo, hi)
        net = b.finish(append_bumps(b, ramps, operands))
        rows = net.nodes[net.nodes[net.nodes[ramps].preds[0]].preds[0]]  # the ramp node's first affine
        assert len(rows.weights) == 7
        shared = operands[0, 0]
        assert operands[1, 0] == shared and len(set(operands.ravel().tolist())) == 7
        steep = float(grid.cells[0] * grid.ell)
        assert row_terms(rows)[shared] == [(0, -steep)]
        assert rows.bias[shared] == float(grid.ell * 1)
        for column, rect in enumerate(rects):
            check_bump_contract(net, grid, rect, random.Random(3), column)

    def test_degenerate_rect_is_a_point_bump(self):
        grid = unit_grid(1, 4)
        bump = build_local_bump(grid, HyperRect((2,), (2,)))
        assert eval_concrete(bump, [0.5])[0] == 1.0
        assert eval_concrete(bump, [0.5 + 1 / 16])[0] == 0.0
        out = eval_abstract(bump, BoxRegion.from_pairs([(0.5, 0.5)])).bounds[0]
        assert out == Interval(1, 1)


def grid_float(index, cells, up):
    """The float nearest ``index / cells`` on the side ``up`` (at or above it) or not (at or below it)."""
    x = index / cells
    if up and Fraction(x) < Fraction(index, cells):
        return math.nextafter(x, math.inf)
    if not up and Fraction(x) > Fraction(index, cells):
        return math.nextafter(x, -math.inf)
    return x


@st.composite
def bump_cases(draw):
    """A grid with 1 to 4 axes, a rectangle on it, and boxes inside its hull, one step beyond it, and anywhere.

    Rectangle sides may be degenerate. Inside boxes may touch the hull's
    edge, and beyond boxes may end exactly one grid step from it. Box
    corners snap to the float on the right side of a grid point, so every
    inside box is inside the exact hull and every beyond box is beyond it.
    """
    m = draw(st.integers(1, 4))
    grid = GridSpec(tuple(draw(st.lists(st.integers(1, 12), min_size=m, max_size=m))))
    lower, upper = [], []
    for c in grid.cells:
        i, j = sorted(draw(st.lists(st.integers(0, c), min_size=2, max_size=2)))
        if draw(st.booleans()):
            j = i
        lower.append(i)
        upper.append(j)
    rect = HyperRect(tuple(lower), tuple(upper))
    hull = [(grid_float(i, c, True), grid_float(j, c, False)) for i, j, c in zip(lower, upper, grid.cells)]
    anywhere = st.floats(-1.0, 2.0)

    def inside_end(lo, hi):
        return draw(st.one_of(st.just(lo), st.just(hi), st.floats(lo, hi)))

    inside = []
    if all(lo <= hi for lo, hi in hull):  # a degenerate side on no float has no box inside
        for _ in range(draw(st.integers(1, 4))):
            inside.append(BoxRegion.from_pairs([sorted((inside_end(lo, hi), inside_end(lo, hi))) for lo, hi in hull]))
    beyond = []
    for _ in range(draw(st.integers(1, 4))):
        axis = draw(st.integers(0, m - 1))
        pairs = [sorted((draw(anywhere), draw(anywhere))) for _ in range(m)]
        gap, width = draw(st.sampled_from([0.0, 1e-9, 0.25])), draw(st.floats(0.0, 1.0))
        c = grid.cells[axis]
        if draw(st.booleans()):
            end = grid_float(lower[axis] - 1, c, False) - gap
            pairs[axis] = (end - width, end)
        else:
            end = grid_float(upper[axis] + 1, c, True) + gap
            pairs[axis] = (end, end + width)
        beyond.append(BoxRegion.from_pairs(pairs))
    boxes = [BoxRegion.from_pairs([sorted((draw(anywhere), draw(anywhere))) for _ in range(m)])
             for _ in range(draw(st.integers(1, 4)))]
    return grid, rect, inside, beyond, boxes


def check_bump_properties(net, inside, beyond, boxes):
    """[1, 1] on every inside box, [0, 0] on every beyond box, and within [0, 1] on every box."""
    props = [out.bounds[0] for out in eval_abstract_many(net, inside + beyond + boxes)]
    assert all(out == Interval(1.0, 1.0) for out in props[: len(inside)])
    assert all(out == Interval(0.0, 0.0) for out in props[len(inside) : len(inside) + len(beyond)])
    assert all(0.0 <= out.lo <= out.hi <= 1.0 for out in props)


class TestBumpProperties:
    @settings(max_examples=300, deadline=None)
    @given(bump_cases())
    def test_sum_of_ramps_has_the_three_properties(self, case):
        grid, rect, inside, beyond, boxes = case
        check_bump_properties(build_local_bump(grid, rect), inside, beyond, boxes)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("mutation", ["bias", "unclamped-ramp"])
    def test_mutated_gadgets_break_a_property(self, m, mutation):
        # bias -(2m-2) makes the bump 2 inside the hull; a ramp left unclamped
        # exceeds 1 there, and so does the bump
        grid, rect = unit_grid(m, 4), HyperRect((1,) * m, (2,) * m)
        hull = BoxRegion.from_pairs([(0.25, 0.5)] * m)
        beyond = BoxRegion.from_pairs([(0.0, 0.0)] + [(0.25, 0.5)] * (m - 1))
        anywhere = BoxRegion.from_pairs([(-1.0, 2.0)] * m)
        check_bump_properties(build_local_bump(grid, rect), [hull], [beyond], [anywhere])
        if mutation == "bias":
            broken = build_local_bump(grid, rect, bias=2.0 - 2 * m)
        else:
            broken = build_local_bump(grid, rect, clamped=False)
        with pytest.raises(AssertionError):
            check_bump_properties(broken, [hull], [beyond], [anywhere])
