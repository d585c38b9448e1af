import random

import pytest

from boxcert.expr import parse_func
from boxcert.intervals import BoxRegion
from boxcert.oracle import (
    OracleBudgetError,
    certified_box_max,
    certified_box_min,
    certified_box_range,
)

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

