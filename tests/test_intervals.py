import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert.intervals import BoxRegion, Interval

from helpers import (
    box_contains,
    box_subset,
    dyadic_interval,
    finite_interval,
    iv_add,
    iv_affine_row,
    iv_clip_above,
    iv_contains,
    iv_neg,
    iv_relu,
    iv_scale,
    iv_subset,
    nmin2_closed_form,
)


class TestConstruction:
    def test_orders_endpoints_strictly(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Interval(bad, 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, bad)

    def test_point(self):
        p = Interval.point(0.3)
        assert p.lo == p.hi == 0.3

    def test_box_needs_a_dimension(self):
        with pytest.raises(ValueError):
            BoxRegion(())


class TestAdd:
    def test_componentwise_sum(self):
        assert iv_add(Interval(0, 1), Interval(2, 3)) == Interval(2, 4)

    def test_x_minus_x_decomposed(self):
        # the precision-loss shape: [0,1] + (-[0,1]) widens to [-1,1]
        assert iv_add(Interval(0, 1), Interval(-1, 0)) == Interval(-1, 1)

    def test_point_case(self):
        assert iv_add(Interval.point(0.3), Interval.point(0.4)) == Interval.point(0.7)


class TestNeg:
    def test_reflection(self):
        assert iv_neg(Interval(0, 1)) == Interval(-1, 0)
        assert iv_neg(Interval(-2, 3)) == Interval(-3, 2)

    def test_involution(self):
        assert iv_neg(iv_neg(Interval(1.5, 2.5))) == Interval(1.5, 2.5)


class TestScale:
    def test_halving(self):
        assert iv_scale(0.5, Interval(-2, 4)) == Interval(-1, 2)

    def test_annihilation(self):
        assert iv_scale(0.0, Interval(-7, 3)) == Interval(0, 0)

    def test_identity(self):
        assert iv_scale(1.0, Interval(-7, 3)) == Interval(-7, 3)

    def test_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            iv_scale(-1.0, Interval(0, 1))


class TestRelu:
    def test_clamp_lower(self):
        assert iv_relu(Interval(-1, 2)) == Interval(0, 2)

    def test_fully_negative(self):
        assert iv_relu(Interval(-3, -1)) == Interval(0, 0)

    def test_fully_positive(self):
        assert iv_relu(Interval(1, 2)) == Interval(1, 2)


class TestClipAbove:
    def test_upper_endpoint_saturates(self):
        assert iv_clip_above(1.0, Interval(0.5, 2)) == Interval(0.5, 1)

    def test_identity_below_threshold(self):
        assert iv_clip_above(1.0, Interval(-1, 0.5)) == Interval(-1, 0.5)

    def test_fully_saturated(self):
        assert iv_clip_above(1.0, Interval(3, 5)) == Interval(1, 1)


class TestAffineRow:
    def test_difference_of_unit_boxes(self):
        out = iv_affine_row([1, -1], 0.0, [Interval(0, 1), Interval(0, 1)])
        assert out == Interval(-1, 1)

    def test_monotone_affine(self):
        assert iv_affine_row([2], 1.0, [Interval(0, 1)]) == Interval(1, 3)

    def test_point_exactness(self):
        out = iv_affine_row([1, 1], 0.0, [Interval.point(0.25), Interval.point(0.5)])
        assert out == Interval.point(0.75)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            iv_affine_row([1, 2], 0.0, [Interval(0, 1)])

    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=4),
        st.floats(-3, 3, allow_nan=False),
        st.data(),
    )
    def test_matches_neg_scale_composition(self, weights, bias, data):
        inputs = [data.draw(finite_interval(-10, 10)) for _ in weights]
        out = iv_affine_row(weights, bias, inputs)
        lo = hi = 0.0
        for w, iv in zip(weights, inputs):
            term = iv_scale(w, iv) if w >= 0 else iv_neg(iv_scale(-w, iv))
            lo, hi = lo + term.lo, hi + term.hi
        assert out == Interval(lo + bias, hi + bias)

    @given(
        st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=4),
        st.data(),
    )
    def test_nonnegative_weights_equal_naive_endpoint_map(self, weights, data):
        inputs = [data.draw(finite_interval(-10, 10)) for _ in weights]
        out = iv_affine_row(weights, 0.0, inputs)
        lo = hi = 0.0
        for w, iv in zip(weights, inputs):
            lo, hi = lo + w * iv.lo, hi + w * iv.hi
        assert out == Interval(lo, hi)


class TestMinClosedForm:
    def test_disjoint_case(self):
        assert nmin2_closed_form(Interval(2, 3), Interval(0, 1)) == Interval(-0.5, 1.5)

    def test_overlap_case(self):
        assert nmin2_closed_form(Interval(0, 2), Interval(1, 3)) == Interval(-1.5, 2.5)

    def test_points(self):
        assert nmin2_closed_form(Interval.point(1), Interval.point(2)) == Interval(1, 1)

    @given(dyadic_interval(), dyadic_interval())
    def test_symmetric(self, x, y):
        assert nmin2_closed_form(x, y) == nmin2_closed_form(y, x)

    @given(dyadic_interval(64, 4), dyadic_interval(64, 4))
    @settings(max_examples=300)
    def test_sound_for_min(self, x, y):
        out = nmin2_closed_form(x, y)
        rng = random.Random(7)
        for _ in range(20):
            p = rng.uniform(x.lo, x.hi)
            q = rng.uniform(y.lo, y.hi)
            assert out.lo - 1e-12 <= min(p, q) <= out.hi + 1e-12


class TestSubsetContains:
    def test_basic(self):
        assert iv_subset(Interval(0.25, 0.75), Interval(0, 1))

    def test_loose_propagation_not_contained(self):
        assert not iv_subset(Interval(0, 1.5), Interval(-0.25, 1.25))

    def test_reflexive(self):
        assert iv_subset(Interval(-3, 7), Interval(-3, 7))

    def test_tolerance(self):
        assert not iv_subset(Interval(0, 1 + 1e-12), Interval(0, 1))
        assert iv_subset(Interval(0, 1 + 1e-12), Interval(0, 1), tol=1e-9)

    def test_contains(self):
        assert iv_contains(Interval(0, 1), 0.5)
        assert not iv_contains(Interval(0, 1), 1.5)
        assert iv_contains(Interval(0, 1), 1.5, tol=0.6)

    def test_box_analogues(self):
        inner = BoxRegion.from_pairs([(0.2, 0.4), (0.5, 0.6)])
        outer = BoxRegion.from_pairs([(0, 1), (0, 1)])
        assert box_subset(inner, outer)
        assert not box_subset(outer, inner)
        assert box_contains(outer, [0.5, 0.5])
        assert not box_contains(outer, [0.5, 1.5])
        with pytest.raises(ValueError):
            box_subset(inner, BoxRegion.from_pairs([(0, 1)]))


_UNARY = [
    (iv_neg, lambda t: -t),
    (iv_relu, lambda t: max(0.0, t)),
    (lambda iv: iv_clip_above(1.0, iv), lambda t: 1.0 - max(0.0, 1.0 - t)),
    (lambda iv: iv_scale(0.7, iv), lambda t: 0.7 * t),
]


class TestSoundnessAndMonotonicity:
    @pytest.mark.parametrize("abstract,concrete", _UNARY)
    @given(x=finite_interval(), data=st.data())
    @settings(max_examples=200)
    def test_unary_soundness(self, abstract, concrete, x, data):
        p = data.draw(st.floats(x.lo, x.hi, allow_nan=False))
        out = abstract(x)
        assert out.lo - 1e-12 <= concrete(p) <= out.hi + 1e-12

    @given(x=finite_interval(), y=finite_interval(), data=st.data())
    @settings(max_examples=200)
    def test_add_soundness(self, x, y, data):
        p = data.draw(st.floats(x.lo, x.hi, allow_nan=False))
        q = data.draw(st.floats(y.lo, y.hi, allow_nan=False))
        out = iv_add(x, y)
        assert out.lo - 1e-12 <= p + q <= out.hi + 1e-12

    @given(x=finite_interval(), y=finite_interval(), wide=st.floats(0, 5), data=st.data())
    @settings(max_examples=200)
    def test_monotone_inclusion(self, x, y, wide, data):
        xw = Interval(x.lo - wide, x.hi + wide)
        yw = Interval(y.lo - wide, y.hi + wide)
        assert iv_subset(iv_add(x, y), iv_add(xw, yw))
        assert iv_subset(iv_neg(x), iv_neg(xw))
        assert iv_subset(iv_relu(x), iv_relu(xw))
        assert iv_subset(iv_scale(1.3, x), iv_scale(1.3, xw))
        assert iv_subset(iv_clip_above(0.5, x), iv_clip_above(0.5, xw))
        w = data.draw(st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=2))
        assert iv_subset(iv_affine_row(w, 0.1, [x, y]), iv_affine_row(w, 0.1, [xw, yw]))

    @pytest.mark.parametrize("abstract,concrete", _UNARY)
    @given(p=st.floats(-50, 50, allow_nan=False))
    def test_point_exactness_bitwise(self, abstract, concrete, p):
        out = abstract(Interval.point(p))
        expected = concrete(p)
        assert (out.lo, out.hi) == (expected, expected)

    def test_bulk_soundness_fuzz(self):
        # direct transformer-level fuzz at volume: concrete images of sampled
        # points stay inside every abstract image
        rng = random.Random(314159)
        checked = 0
        while checked < 100_000:
            x = Interval(*sorted((rng.uniform(-20, 20), rng.uniform(-20, 20))))
            y = Interval(*sorted((rng.uniform(-20, 20), rng.uniform(-20, 20))))
            p = rng.uniform(x.lo, x.hi)
            q = rng.uniform(y.lo, y.hi)
            lam = rng.uniform(0, 3)
            w = [rng.uniform(-2, 2), rng.uniform(-2, 2)]
            cases = [
                (iv_add(x, y), p + q),
                (iv_neg(x), -p),
                (iv_scale(lam, x), lam * p),
                (iv_relu(x), max(0.0, p)),
                (iv_clip_above(1.0, x), 1.0 - max(0.0, 1.0 - p)),
                (iv_affine_row(w, 0.3, [x, y]), w[0] * p + w[1] * q + 0.3),
            ]
            for out, value in cases:
                assert out.lo - 1e-9 <= value <= out.hi + 1e-9
                checked += 1
