import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert.expr import parse_func
from boxcert.intervals import BoxRegion
from boxcert.slicing import SliceSpec, make_slice_spec

from helpers import slice_eval, slice_eval_many

CUBIC = "-x0*x0*x0 + 3*x0"
DOMAIN = BoxRegion.from_pairs([(-2.0, 2.0)])


class TestMakeSliceSpec:
    def test_cubic_range(self):
        spec = make_slice_spec(-2.0, 2.0, 8 / 5)
        assert spec.count == 5
        assert spec.delta == 8 / 5
        expected = (-2.0, -1.2, -0.4, 0.4, 1.2, 2.0)
        assert spec.levels == pytest.approx(expected, abs=1e-12)
        assert spec.levels[0] == -2.0 and spec.levels[-1] == 2.0

    def test_degenerate_range(self):
        spec = make_slice_spec(0.0, 0.0, 0.7)
        assert spec.count == 1
        assert spec.delta == 0.0
        assert spec.levels == (0.0, 0.0)

    def test_exact_division(self):
        spec = make_slice_spec(0.0, 1.0, 0.5)
        assert spec.count == 4
        assert spec.delta == 0.5

    def test_rounds_count_up_and_delta_down(self):
        spec = make_slice_spec(0.0, 1.0, 0.45)
        assert spec.count == 5  # 2/0.45 = 4.44...
        assert spec.delta <= 0.45
        assert spec.delta == pytest.approx(0.4)

    def test_even_spacing(self):
        spec = make_slice_spec(-1.0, 3.5, 0.37)
        gaps = [b - a for a, b in zip(spec.levels, spec.levels[1:])]
        for g in gaps:
            assert g == pytest.approx(spec.half_delta, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            make_slice_spec(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            make_slice_spec(1.0, 0.0, 0.5)

    @given(
        st.floats(-50, 50, allow_nan=False),
        st.floats(0, 80, allow_nan=False),
        st.floats(1e-3, 10, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_count_and_delta_invariants(self, lo, span, delta):
        spec = make_slice_spec(lo, lo + span, delta)
        assert spec.count >= 1
        # adjusted tolerance never exceeds the request beyond float dust
        assert spec.delta <= delta * (1 + 1e-9) + 1e-15
        assert len(spec.levels) == spec.count + 1


class TestSliceEval:
    def test_cubic_bottom_slice(self):
        f = parse_func(CUBIC, 1, DOMAIN)
        spec = make_slice_spec(-2.0, 2.0, 8 / 5)
        # f(0) = 0 sits above level 1, so slice 0 is saturated at 0.8
        assert slice_eval(f, spec, 0, [0.0]) == pytest.approx(0.8, abs=1e-12)

    def test_below_level_is_zero(self):
        f = parse_func(CUBIC, 1, DOMAIN)
        spec = make_slice_spec(-2.0, 2.0, 8 / 5)
        # f(-1.5) = -1.125 is below level 2
        assert slice_eval(f, spec, 2, [-1.5]) == 0.0

    def test_reconstruction_at_half(self):
        f = parse_func(CUBIC, 1, DOMAIN)
        spec = make_slice_spec(-2.0, 2.0, 8 / 5)
        total = spec.bottom + sum(slice_eval(f, spec, k, [0.5]) for k in range(spec.count))
        assert total == pytest.approx(1.375, abs=1e-12)
        assert f.eval([0.5]) == 1.375

    def test_index_out_of_range(self):
        f = parse_func(CUBIC, 1, DOMAIN)
        spec = make_slice_spec(-2.0, 2.0, 8 / 5)
        with pytest.raises(ValueError):
            slice_eval(f, spec, 5, [0.0])

    @given(st.floats(-2, 2, allow_nan=False), st.floats(0.05, 3, allow_nan=False))
    @settings(max_examples=300)
    def test_reconstruction_identity(self, x, delta):
        f = parse_func(CUBIC, 1, DOMAIN)
        spec = make_slice_spec(-2.0, 2.0, delta)
        total = spec.bottom + sum(slice_eval(f, spec, k, [x]) for k in range(spec.count))
        assert abs(total - f.eval([x])) <= 1e-9

    def test_vectorized_matches_scalar(self):
        f = parse_func(CUBIC, 1, DOMAIN)
        spec = make_slice_spec(-2.0, 2.0, 0.5)
        rng = random.Random(3)
        pts = np.array([[rng.uniform(-2, 2)] for _ in range(100)])
        for k in range(spec.count):
            many = slice_eval_many(f, spec, k, pts)
            for row, v in zip(pts, many):
                assert v == slice_eval(f, spec, k, list(row))
