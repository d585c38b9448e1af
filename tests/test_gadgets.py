import math
import random

import pytest

from boxcert.gadgets import append_local_bump
from boxcert.grids import GridSpec, HyperRect, ramp_steepness
from boxcert.intervals import BoxRegion, Interval
from boxcert.network import NetworkBuilder, eval_abstract, eval_concrete, stats

from helpers import (
    build_clip_above,
    build_local_bump,
    build_nmin2,
    build_nmin_n,
    bump_closed_form,
    bump_relu_budget,
    rect_hull,
    iv_clip_above,
    iv_subset,
    nmin2_closed_form,
    rand_dyadic,
    rand_dyadic_interval,
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


class TestSteepness:
    def test_powers_of_two(self):
        assert ramp_steepness(1) == 4
        assert ramp_steepness(2) == 8
        assert ramp_steepness(3) == 16


def unit_grid(dim, cells):
    return GridSpec((cells,) * dim)


def ancestors(net, node_id):
    """The node and every node it reads from."""
    seen, stack = set(), [node_id]
    while stack:
        i = stack.pop()
        if i not in seen:
            seen.add(i)
            stack.extend(net.nodes[i].preds)
    return seen


def check_bump_contract(bump, grid, rect, rng):
    """[1, 1] on boxes inside the corner hull, [0, 0] one grid step away, and never outside [0, 1]."""
    dim = grid.dim
    hull = rect_hull(rect, grid)
    for _ in range(200):
        # boxes inside the corner hull propagate to exactly [1, 1]
        pairs = []
        for k in range(dim):
            a = rng.uniform(hull[k].lo, hull[k].hi)
            b = rng.uniform(hull[k].lo, hull[k].hi)
            pairs.append((min(a, b), max(a, b)))
        assert eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[0] == Interval(1, 1)
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
        assert eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[0] == Interval(0, 0)
    for _ in range(200):
        # and the image never leaves [0, 1]
        pairs = []
        for k in range(dim):
            a = rng.uniform(-3, 3)
            b = a + rng.uniform(0, 4)
            pairs.append((a, b))
        out = eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[0]
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
        assert stats(bump1)["relu_count"] == 7
        assert bump1.metadata["relu_budget_formula"] == str(bump_relu_budget(1)) == "5"
        bump2 = build_local_bump(unit_grid(2, 4), HyperRect((1, 1), (2, 3)))
        assert bump2.metadata["relu_budget_formula"] == str(bump_relu_budget(2)) == "11"
        assert stats(bump2)["relu_count"] == 17

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
        grid = unit_grid(2, 4)
        first, second = HyperRect((1, 1), (2, 2)), HyperRect((1, 0), (3, 1))  # same lower[0]
        b = NetworkBuilder(2)
        source = b.concat(b.input_ids)
        outs = [append_local_bump(b, grid, rect, source) for rect in (first, second)]
        net = b.finish(outs[1])
        ramps = [
            {i for i in ancestors(net, out) if net.nodes[i].kind == "affine" and net.nodes[i].preds == (source,)}
            for out in outs
        ]
        assert len(ramps[0]) == len(ramps[1]) == 4
        (shared,) = ramps[0] & ramps[1]
        steep = float(grid.cells[0] * grid.ell)
        assert net.nodes[shared].weights == ((-steep, 0.0),)
        assert net.nodes[shared].bias == (float(grid.ell * 1),)
        for out, rect in zip(outs, (first, second)):
            check_bump_contract(b.finish(out), grid, rect, random.Random(3))

    def test_degenerate_rect_is_a_point_bump(self):
        grid = unit_grid(1, 4)
        bump = build_local_bump(grid, HyperRect((2,), (2,)))
        assert eval_concrete(bump, [0.5])[0] == 1.0
        assert eval_concrete(bump, [0.5 + 1 / 16])[0] == 0.0
        out = eval_abstract(bump, BoxRegion.from_pairs([(0.5, 0.5)])).bounds[0]
        assert out == Interval(1, 1)
