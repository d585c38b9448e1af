import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcert.expr import FuncExpr, parse_func
from boxcert.intervals import BoxRegion
from boxcert.oracle import (
    DEFAULT_SAMPLE_BUDGET,
    OracleBudgetError,
    _linspaces,
    certified_box_range,
    certified_box_ranges,
)

from helpers import box_arrays, certified_box_max, certified_box_min, reference_box_range

CUBIC = "-x0*x0*x0 + 3*x0"
DOMAIN = BoxRegion.from_pairs([(-2.0, 2.0)])


def cubic():
    return parse_func(CUBIC, 1, DOMAIN)


class TestCertifiedExtrema:
    def test_cubic_on_inner_box(self):
        f = cubic()
        box = BoxRegion.from_pairs([(-1.0, 1.0)])
        cmin = certified_box_min(f, box, 0.01)
        cmax = certified_box_max(f, box, 0.01)
        # the extrema sit on the box corners, which are always sampled
        assert cmin.value == -2.0
        assert cmax.value == 2.0
        assert 0 < cmin.margin <= 0.01
        assert cmin.lo <= -2.0 <= cmin.hi
        assert cmax.lo <= 2.0 <= cmax.hi

    def test_constant_needs_one_sample(self):
        f = parse_func("5", 2, BoxRegion.from_pairs([(0, 1), (0, 1)]))
        cmin, cmax = certified_box_range(f, f.domain, 0.5)
        assert cmin.value == cmax.value == 5.0
        assert cmin.margin == 0.0 and cmax.margin == 0.0

    def test_monotone_linear(self):
        f = parse_func("x0", 1, BoxRegion.from_pairs([(0.0, 1.0)]))
        box = BoxRegion.from_pairs([(0.3, 0.8)])
        cmin, cmax = certified_box_range(f, box, 0.01)
        assert cmin.value == 0.3
        assert cmax.value == 0.8

    def test_tie_reports_first_lexicographic_point(self):
        f = parse_func("x0*x0 - x0*x0", 2, BoxRegion.from_pairs([(0, 1), (0, 1)]))
        # constant zero: Lipschitz bound is positive, so the lattice is dense
        cmin = certified_box_min(f, f.domain, 0.25)
        assert cmin.at == (0.0, 0.0)

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            certified_box_min(cubic(), DOMAIN, 0.0)

    def test_rejects_nan_margin(self):
        with pytest.raises(ValueError, match="target margin must be positive"):
            certified_box_min(cubic(), DOMAIN, float("nan"))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            certified_box_min(cubic(), BoxRegion.from_pairs([(0, 1), (0, 1)]), 0.1)

    def test_budget_exceeded(self):
        with pytest.raises(OracleBudgetError, match="budget"):
            certified_box_min(cubic(), DOMAIN, 1e-9, budget=1000)

    def test_degenerate_box(self):
        f = cubic()
        cmin, cmax = certified_box_range(f, BoxRegion.point([0.5]), 0.01)
        assert cmin.value == cmax.value == f.eval([0.5])
        assert cmin.margin == 0.0


class TestEnclosureProperty:
    def test_finer_run_stays_inside_coarser_certificate(self):
        # both certificates bracket the true extremum, so the finer sampled
        # value must land in the coarse interval extended by its own margin
        # (sampled minima are not monotone under refinement)
        f = parse_func("min(x0*x0, 2 - x0) - abs(x0 - 0.5)", 1, DOMAIN)
        rng = random.Random(1234)
        for _ in range(300):
            a, b = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2)))
            box = BoxRegion.from_pairs([(a, b)])
            coarse_min, coarse_max = certified_box_range(f, box, 0.1)
            fine_min, fine_max = certified_box_range(f, box, 0.002)
            assert coarse_min.lo - 1e-12 <= fine_min.value <= coarse_min.hi + fine_min.margin + 1e-12
            assert coarse_max.lo - fine_max.margin - 1e-12 <= fine_max.value <= coarse_max.hi + 1e-12
            # and the two certificates must overlap
            assert fine_min.lo <= coarse_min.hi + 1e-12 and coarse_min.lo <= fine_min.hi + 1e-12

    def test_certificate_encloses_dense_scan_2d(self):
        f = parse_func("x0*x1 - min(x0, x1)", 2, BoxRegion.from_pairs([(0, 1), (0, 1)]))
        rng = random.Random(77)
        for _ in range(50):
            pairs = []
            for _ in range(2):
                a, b = sorted((rng.uniform(0, 1), rng.uniform(0, 1)))
                pairs.append((a, b))
            box = BoxRegion.from_pairs(pairs)
            cmin, cmax = certified_box_range(f, box, 0.05)
            best = min(
                f.eval([x, y])
                for x in (box[0].lo, box[0].hi, rng.uniform(box[0].lo, box[0].hi))
                for y in (box[1].lo, box[1].hi, rng.uniform(box[1].lo, box[1].hi))
            )
            assert cmin.lo - 1e-12 <= best
            assert best >= cmin.lo  # sampled values can never beat the certificate floor


# (expression, dimension): a constant (Lipschitz bound 0), ties, kinks and a
# polynomial, on the unit box of their dimension
FUNCTIONS = (
    ("3.5", 1),
    ("-x0*x0*x0 + 3*x0", 1),
    ("abs(x0 - 0.25)", 1),
    ("2", 2),
    ("x0*x0 - x0*x0", 2),
    ("x0*x1 - min(x0, x1)", 2),
    ("relu(x0 - x1) + x1", 2),
    ("max(x0, x1*x2)", 3),
)
ENDPOINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 0.1]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def sampled_box(draw, dim):
    """A normal box, a point box, a box with one zero-width axis, or one far too large to sample."""
    kind = draw(st.sampled_from(["normal", "normal", "point", "flat_axis", "huge"]))
    if kind == "huge":
        # at least 2e10 cells per axis unless f is constant: the sample count
        # overflows int64 from two axes on
        return BoxRegion.from_pairs([(-1e10, 1e10)] * dim)
    pairs = []
    for _ in range(dim):
        a = draw(ENDPOINTS)
        b = a if kind == "point" else draw(ENDPOINTS)
        pairs.append((min(a, b), max(a, b)))
    if kind == "flat_axis":
        k = draw(st.integers(0, dim - 1))
        pairs[k] = (pairs[k][0], pairs[k][0])
    return BoxRegion.from_pairs(pairs)


def hexes(bound):
    return (bound.kind, bound.value.hex(), bound.margin.hex(), [float.hex(x) for x in bound.at])


class TestBatchedRanges:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_batch_equals_each_box_on_its_own(self, data):
        expr, dim = data.draw(st.sampled_from(FUNCTIONS))
        f = parse_func(expr, dim, BoxRegion.from_pairs([(0.0, 1.0)] * dim))
        boxes = data.draw(st.lists(sampled_box(dim), min_size=1, max_size=8))
        target = data.draw(st.sampled_from([0.5, 0.1, 0.02]))
        # small budgets put boxes over it between normal ones and split the rest into several passes
        budget = data.draw(st.sampled_from([1, 9, 60, 400, DEFAULT_SAMPLE_BUDGET]))
        ranges = certified_box_ranges(f, *box_arrays(boxes), target, budget)
        assert len(ranges.ok) == len(boxes)
        for i, box in enumerate(boxes):
            got = ranges.bounds(i)
            want = reference_box_range(f, box, target, budget)
            if want is None:
                assert got is None
                with pytest.raises(OracleBudgetError):
                    certified_box_range(f, box, target, budget)
                continue
            one = certified_box_range(f, box, target, budget)
            assert [hexes(b) for b in got] == [hexes(b) for b in want] == [hexes(b) for b in one]

    def test_sample_count_beyond_int64_is_over_budget(self):
        f = parse_func("x0*x1", 2, BoxRegion.from_pairs([(0.0, 1.0)] * 2))
        huge = BoxRegion.from_pairs([(-1e10, 1e10)] * 2)
        unit = BoxRegion.from_pairs([(0.0, 1.0)] * 2)
        assert certified_box_ranges(f, *box_arrays([huge, unit]), 0.1, 2**62).ok.tolist() == [False, True]
        with pytest.raises(OracleBudgetError) as err:
            certified_box_range(f, huge, 0.1, 2**62)
        assert err.value.needed > 2**63

    def test_one_evaluation_per_pass(self, monkeypatch):
        f = parse_func("-x0*x0*x0 + 3*x0", 1, DOMAIN)
        calls = []
        real = FuncExpr.eval_many
        monkeypatch.setattr(FuncExpr, "eval_many", lambda self, pts: calls.append(len(pts)) or real(self, pts))
        boxes = [BoxRegion.from_pairs([(-1.0 + k / 10, 1.0)]) for k in range(10)]
        certified_box_ranges(f, *box_arrays(boxes), 0.05)
        (total,) = calls
        calls.clear()
        # each box needs at most 182 samples, so a budget of 400 takes two or three per pass
        certified_box_ranges(f, *box_arrays(boxes), 0.05, budget=400)
        assert 1 < len(calls) < len(boxes) and max(calls) <= 400
        assert sum(calls) == total
        calls.clear()
        points = [BoxRegion.point([k / 10]) for k in range(7)]
        certified_box_ranges(f, *box_arrays(points), 0.05, budget=3)
        assert calls == [3, 3, 1]

    def test_nan_samples_follow_argmin(self):
        # off the unit domain x0*x0 overflows from about 1.34e154 on, and
        # inf - inf is NaN: the first NaN is the extremum, as np.argmin has it
        f = parse_func("x0*x0 - x0*x0", 1, BoxRegion.from_pairs([(0.0, 1.0)]))
        boxes = [BoxRegion.from_pairs([(1.3e154, 1.4e154)]), BoxRegion.from_pairs([(0.0, 1e154)])]
        with np.errstate(over="ignore", invalid="ignore"):
            ranges = certified_box_ranges(f, *box_arrays(boxes), 1e307)
            got = [ranges.bounds(i) for i in range(len(boxes))]
            want = [reference_box_range(f, box, 1e307) for box in boxes]
        assert math.isnan(got[0][0].value) and got[1][0].value == 0.0
        assert [[hexes(b) for b in bounds] for bounds in got] == [[hexes(b) for b in bounds] for bounds in want]

    def test_empty_campaign(self):
        ranges = certified_box_ranges(cubic(), np.empty((0, 1)), np.empty((0, 1)), 0.1)
        assert [column.shape for column in ranges] == [(0,), (0,), (0,), (0,), (0, 1), (0, 1)]

    @settings(max_examples=200, deadline=None)
    @example(lo=0.0, width=5e-324, n=3)  # a step that underflows to zero
    @given(
        lo=st.floats(-1e3, 1e3, allow_nan=False),
        width=st.one_of(st.floats(0.0, 10.0), st.sampled_from([5e-324, 1e-323, 2.5e-322])),
        n=st.integers(0, 40),
    )
    def test_axes_match_linspace(self, lo, width, n):
        hi = lo + width
        got, _ = _linspaces(np.array([lo]), np.array([hi]), np.array([float(n)]))
        want = np.linspace(lo, hi, n + 1) if n > 0 else np.array([lo])
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]
