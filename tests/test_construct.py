import functools
import hashlib
import math
import random
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxcert.construct import (
    RECT_MARGIN_FRACTION,
    BuildBudget,
    BuildBudgetError,
    CellMinTable,
    build_certified_network,
    build_slice_network,
    cell_density,
    delta_sets,
    grid_resolution,
    samples_per_cell_for,
)
from boxcert.expr import parse_func
from boxcert.grids import GridSpec, prune_maximal
from boxcert.intervals import BoxRegion, Interval
from boxcert.netio import deserialize, load, serialize
from boxcert import construct, network
from boxcert.network import NetworkBuilder, eval_abstract, eval_concrete, stats
from boxcert.oracle import OracleBudgetError, certified_box_range
from boxcert.slicing import SliceSpec, make_slice_spec
from boxcert.verify import RunConfig, network_domain, verify_network
from helpers import (
    HyperRect,
    append_min_bump,
    enumerate_rects,
    iv_subset,
    rect_corners,
    rect_hull,
    reference_build,
    reference_prune_maximal,
    slice_members,
)

CUBIC = "-x0*x0*x0 + 3*x0"


def unit_grid(dim, cells):
    return GridSpec((cells,) * dim)


def unit_box(dim):
    return BoxRegion.from_pairs([(0.0, 1.0)] * dim)


def member_rects(f, grid, spec, k):
    """Every grid rectangle of slice k before pruning, from the table the build fills."""
    s = samples_per_cell_for(f.lipschitz, cell_density(grid, f.domain), spec.delta / RECT_MARGIN_FRACTION)
    counts = CellMinTable(f, grid, s, BuildBudget()).all_rect_mins(spec.levels)
    corners = np.argwhere(counts > k)
    return [HyperRect(tuple(c[: grid.dim]), tuple(c[grid.dim :])) for c in corners.tolist()]


def slice_network(delta_k, grid):
    """One slice on a fresh builder, as its own network on unit-box inputs."""
    b = NetworkBuilder(grid.dim)
    return b.finish(build_slice_network(b, rect_corners(sorted(delta_k)), 1, grid, unit_box(grid.dim)))


def slice_sets(f, grid, spec):
    """Each slice's maximal rectangles, as ``HyperRect`` lists."""
    return slice_members(delta_sets(f, grid, spec), spec.count)


def table_index(rect):
    """Where ``CellMinTable.all_rect_mins`` keeps a rectangle's slice count."""
    return rect.lower + rect.upper


def slab_min(values, s, rect):
    """A rectangle's minimum read straight off the lattice: every sample of its hull."""
    return values[tuple(slice(lo * s, hi * s + 1) for lo, hi in zip(rect.lower, rect.upper))].min()


class TestGridResolution:
    def test_formula(self):
        assert grid_resolution(9.0, 8 / 5, 1.0, 0) == 12  # ceil(11.25)
        assert grid_resolution(0.0, 0.3, 1.0, 0) == 1
        assert grid_resolution(1.0, 2.0, 1.0, 0) == 1
        assert grid_resolution(9.0, 8 / 5, 4.0, 0) == 45  # cells across a domain 4 units wide
        assert grid_resolution(9.0, 8 / 5, 0.0, 0) == 1  # a point axis still has one cell

    def test_from_function(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        assert grid_resolution(f.lipschitz, 8 / 5, 1.0, 0) == 19  # interval bound gives L = 15

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            grid_resolution(1.0, 0.0, 1.0, 0)

    def test_unbounded_cell_count_is_a_budget_error(self):
        with pytest.raises(BuildBudgetError, match="axis 1 .* grid cells"):
            grid_resolution(1.0, 5e-324, 1.0, 1)

    def test_build_on_a_subnormal_axis_fails_fast(self):
        # the range is 5e-324 wide, so the tolerance shrinks until 2L/delta overflows
        f = parse_func("x0*x1", 2, BoxRegion.from_pairs([(0.0, 5e-324), (0.0, 1.0)]))
        with pytest.raises(BuildBudgetError, match="axis 0"):
            build_certified_network(f, 0.25)


class TestEnumerateRects:
    def test_counts(self):
        grid = unit_grid(1, 4)
        rects = list(enumerate_rects(grid))
        assert len(rects) == 15 == grid.rect_count()  # 5 points -> 5*6/2 pairs
        grid2 = unit_grid(2, 2)
        assert grid2.rect_count() == 36 == len(list(enumerate_rects(grid2)))

    def test_prune_keeps_maximal_only(self):
        rects = [
            HyperRect((0,), (2,)),
            HyperRect((1,), (2,)),
            HyperRect((0,), (1,)),
            HyperRect((3,), (3,)),
        ]
        assert reference_prune_maximal(rects) == [HyperRect((0,), (2,)), HyperRect((3,), (3,))]

    def test_prune_2d(self):
        rects = [
            HyperRect((0, 0), (2, 2)),
            HyperRect((1, 0), (2, 2)),
            HyperRect((0, 1), (1, 2)),
            HyperRect((0, 0), (2, 1)),
        ]
        assert reference_prune_maximal(rects) == [HyperRect((0, 0), (2, 2))]

    def test_prune_incomparable_kept(self):
        rects = [HyperRect((0, 0), (2, 1)), HyperRect((0, 0), (1, 2))]
        assert reference_prune_maximal(rects) == sorted(rects)


class TestDeltaSets:
    def test_constant_above_threshold_prunes_to_full_domain(self):
        grid = unit_grid(1, 4)
        f = parse_func("5", 1, unit_box(1))
        spec = make_slice_spec(0.0, 8.0, 8.0)  # levels 0, 4, 8
        members = slice_sets(f, grid, spec)[0]
        assert members == [HyperRect((0,), (4,))]
        raw = member_rects(f, grid, spec, 0)
        assert len(raw) == 15  # every rect qualifies before pruning

    def test_constant_below_threshold_is_empty(self):
        grid = unit_grid(1, 4)
        f = parse_func("0", 1, unit_box(1))
        spec = make_slice_spec(0.0, 8.0, 8.0)
        assert slice_sets(f, grid, spec)[0] == []

    def test_identity_on_unit_interval(self):
        # oracle-first: brute-force certified minima over every rect hull pick
        # exactly the rects with lower corner at or above the level
        grid = unit_grid(1, 4)
        f = parse_func("x0", 1, unit_box(1))
        spec = make_slice_spec(0.0, 1.0, 0.5)  # levels 0, .25, .5, .75, 1
        expected_members = []
        for rect in enumerate_rects(grid):
            cmin, _ = certified_box_range(f, rect_hull(rect, grid), 1e-6)
            if cmin.value >= 0.5:
                expected_members.append(rect)
        members = member_rects(f, grid, spec, 1)
        assert members == sorted(expected_members)
        pruned = slice_sets(f, grid, spec)[1]
        assert pruned == [HyperRect((2,), (4,))]
        assert rect_hull(pruned[0], grid) == BoxRegion.from_pairs([(0.5, 1.0)])

    def test_budget_guard(self):
        grid = unit_grid(2, 30)
        f = parse_func("x0", 2, unit_box(2))
        spec = make_slice_spec(0.0, 1.0, 0.5)
        with pytest.raises(BuildBudgetError, match="candidate"):
            delta_sets(f, grid, spec, budget=BuildBudget(max_candidates=1000))


def brute_force_counts(tops, minima):
    """How many of the levels ``tops`` each float minimum clears; 0 for NaN."""
    counts = np.searchsorted(np.asarray(tops, dtype=float), minima, side="right")
    return np.where(np.isnan(minima), 0, counts)


class TestCellMinTable:
    def test_matches_direct_oracle(self):
        grid = unit_grid(2, 3)
        f = parse_func("x0*x1 - x0", 2, unit_box(2))
        table = CellMinTable(f, grid, 4, BuildBudget())
        rng = random.Random(9)
        for _ in range(40):
            lower = tuple(rng.randint(0, 2) for _ in range(2))
            upper = tuple(rng.randint(l, 3) for l in lower)
            rect = HyperRect(lower, upper)
            cmin, _ = certified_box_range(f, rect_hull(rect, grid), 0.01)
            # two levels bracket the sampled minimum: it clears the certified
            # lower end and stays below the certified value plus the margin
            levels = (cmin.lo - 1.0, cmin.lo - 1e-12, cmin.value + table.margin + 1e-12)
            assert table.all_rect_mins(levels)[table_index(rect)] == 1

    def test_table_equals_slab_minima(self):
        grid = GridSpec((3, 2))  # on the domain below: cells 1/2 wide, as in one grid of 2 per unit
        f = parse_func("x0*x1 - x0", 2, BoxRegion.from_pairs([(-0.5, 1.0), (0.5, 1.5)]))
        table = CellMinTable(f, grid, 3, BuildBudget())
        levels = (-3.0, -2.0, -0.5, -0.25, 0.0, 0.1, 0.25, 1.0)  # -2 is below all of f
        counts = table.all_rect_mins(levels)
        assert counts.shape == (4, 3, 4, 3)
        assert counts.dtype == np.uint8
        rects = list(enumerate_rects(grid))
        assert np.count_nonzero(counts) == len(rects)  # 0 wherever lo > hi
        for rect in rects:
            assert counts[table_index(rect)] == brute_force_counts(levels[1:], slab_min(table.values, 3, rect))

    def test_wide_slice_count_widens_the_table(self):
        grid = unit_grid(1, 2)
        f = parse_func("x0", 1, unit_box(1))
        table = CellMinTable(f, grid, 1, BuildBudget())
        for count, dtype in [(255, np.uint8), (256, np.uint16), (70_000, np.uint32)]:
            levels = tuple(np.linspace(-1.0, 1.0, count + 1))
            counts = table.all_rect_mins(levels)
            assert counts.dtype == dtype
            assert counts[2, 2] == count  # f = 1 on the right end clears every level
            assert counts[0, 2] == brute_force_counts(levels[1:], 0.0)


@st.composite
def lattices(draw):
    """A grid, a samples-per-cell count, small-integer lattice values (ties, plateaus, NaN) and levels."""
    dim = draw(st.integers(1, 3))
    cells = [draw(st.integers(1, (8, 4, 2)[dim - 1])) for _ in range(dim)]
    grid = GridSpec(tuple(cells))
    s = draw(st.integers(1, 3))
    shape = tuple(c * s + 1 for c in cells)
    top = draw(st.integers(0, 3))  # 0: a constant field
    sample = st.integers(0, top).map(float)
    if draw(st.booleans()):
        sample = sample | st.just(math.nan)
    flat = draw(st.lists(sample, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    # levels on and between lattice values, with ties
    level = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    levels = sorted(draw(st.lists(level, min_size=2, max_size=9)))
    return grid, s, np.array(flat, dtype=float).reshape(shape), tuple(levels)


class TestMaximalSelection:
    @settings(max_examples=200, deadline=None)
    @given(lattices())
    def test_matches_brute_force_pruning(self, lattice):
        grid, s, values, levels = lattice
        counts = CellMinTable.all_rect_mins(SimpleNamespace(grid=grid, samples_per_cell=s, values=values), levels)
        rects = list(enumerate_rects(grid))
        direct = {rect: slab_min(values, s, rect) for rect in rects}
        for rect, value in direct.items():
            assert counts[table_index(rect)] == brute_force_counts(levels[1:], value)
        assert np.count_nonzero(counts) == sum(1 for v in direct.values() if v >= levels[1])
        selected = slice_members(prune_maximal(counts, grid), len(levels) - 1)
        for k, level in enumerate(levels[1:]):
            members = [rect for rect in rects if direct[rect] >= level]  # NaN clears no level
            assert selected[k] == reference_prune_maximal(members)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e300, 1e300), st.floats(0.0, 1e300), st.integers(1, 2000))
    def test_slice_levels_never_decrease(self, xi_min, span, count):
        # all_rect_mins counts levels with searchsorted, which needs them sorted
        xi_max = xi_min + span
        delta = 2.0 * (xi_max - xi_min) / count if xi_max > xi_min else 1.0
        assume(delta > 0.0)
        spec = make_slice_spec(xi_min, xi_max, delta)
        assert all(a <= b for a, b in zip(spec.levels, spec.levels[1:]))


class TestSliceNetwork:
    def test_empty_set_is_constant_zero(self):
        grid = unit_grid(1, 4)
        net = slice_network([], grid)
        rng = random.Random(0)
        for _ in range(50):
            a, b = sorted((rng.uniform(-2, 3), rng.uniform(-2, 3)))
            out = eval_abstract(net, BoxRegion.from_pairs([(a, b)])).bounds[0]
            assert out == Interval(0, 0)

    def test_single_full_domain_rect_saturates(self):
        grid = unit_grid(1, 4)
        net = slice_network([HyperRect((0,), (4,))], grid)
        rng = random.Random(1)
        for _ in range(50):
            a, b = sorted((rng.uniform(0, 1), rng.uniform(0, 1)))
            out = eval_abstract(net, BoxRegion.from_pairs([(a, b)])).bounds[0]
            assert out == Interval(1, 1)

    def test_image_stays_in_unit_interval(self):
        grid = unit_grid(1, 4)
        net = slice_network(
            [HyperRect((0,), (1,)), HyperRect((2,), (3,)), HyperRect((1,), (2,))], grid
        )
        rng = random.Random(2)
        for _ in range(200):
            a, b = sorted((rng.uniform(-1, 2), rng.uniform(-1, 2)))
            out = eval_abstract(net, BoxRegion.from_pairs([(a, b)])).bounds[0]
            assert 0.0 <= out.lo <= out.hi <= 1.0


class TestSliceDichotomy:
    def test_certified_extremes_force_saturation(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        net, report = build_certified_network(f, 0.8)
        grid = GridSpec(report.cells_per_unit)
        spec = make_slice_spec(-2.0, 2.0, 0.8)
        members = slice_sets(f, grid, spec)
        rng = random.Random(31)
        checked_high = checked_low = 0
        for _ in range(400):
            a, b = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2)))
            box = BoxRegion.from_pairs([(a, b)])
            unit = BoxRegion.from_pairs([((a + 2) / 4, (b + 2) / 4)])  # A: x -> (x - lo) / w
            cmin, cmax = certified_box_range(f, box, spec.delta / 16)
            for k in range(spec.count):
                n_k = slice_network(members[k], grid)
                out = eval_abstract(n_k, unit).bounds[0]
                if cmin.lo >= spec.levels[k + 1] + spec.half_delta:
                    assert out.lo == pytest.approx(1.0, abs=1e-9)
                    assert out.hi == pytest.approx(1.0, abs=1e-9)
                    checked_high += 1
                if cmax.hi <= spec.levels[k] - spec.half_delta:
                    assert out == Interval(0, 0)
                    checked_low += 1
        assert checked_high > 50 and checked_low > 50


class TestBuildCertifiedNetwork:
    def test_rejects_nonpositive_delta(self):
        f = parse_func("x0", 1, BoxRegion.from_pairs([(0, 1)]))
        with pytest.raises(ValueError, match="delta"):
            build_certified_network(f, 0.0)

    def test_rejects_nan_delta(self):
        f = parse_func("x0", 1, BoxRegion.from_pairs([(0, 1)]))
        with pytest.raises(ValueError, match="delta must be positive"):
            build_certified_network(f, float("nan"))

    def test_constant_function(self):
        f = parse_func("3.5", 2, BoxRegion.from_pairs([(0, 1), (0, 1)]))
        net, report = build_certified_network(f, 0.25)
        assert report.slice_count == 1
        assert report.delta == 0.0
        rng = random.Random(3)
        for _ in range(20):
            x = [rng.uniform(0, 1), rng.uniform(0, 1)]
            assert eval_concrete(net, x)[0] == 3.5
            out = eval_abstract(net, BoxRegion.point(x)).bounds[0]
            assert out == Interval(3.5, 3.5)

    def test_flat_samples_with_positive_lipschitz(self):
        # identically zero, but the branch-hull derivative cannot see it
        f = parse_func("relu(x0) - relu(x0)", 1, BoxRegion.from_pairs([(-1, 1)]))
        assert f.lipschitz == 1.0
        net, report = build_certified_network(f, 0.5)
        assert report.delta == 0.5
        assert report.slice_count == 1
        assert eval_concrete(net, [0.3])[0] == 0.0

    def test_identity_on_unit_interval(self):
        f = parse_func("x0", 1, BoxRegion.from_pairs([(0.0, 1.0)]))
        net, report = build_certified_network(f, 0.5)
        assert report.slice_count == 4
        assert report.delta == 0.5
        assert report.cells_per_unit == (4,)
        box = BoxRegion.from_pairs([(0.3, 0.8)])
        out = eval_abstract(net, box).bounds[0]
        # requested lower bracket [0.8, 0.3] is empty (vacuous); the outer
        # sandwich [-0.2, 1.3] must hold
        assert iv_subset(out, Interval(-0.2, 1.3), tol=1e-9)

    def test_cubic_metadata_and_report(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        net, report = build_certified_network(f, 8 / 5)
        assert report.slice_count == 5
        assert report.cells_per_unit == (75,)  # 19 cells per unit of input, 4 units wide
        assert net.metadata["cells_per_unit"] == "75"
        assert report.delta == 8 / 5
        assert report.requested_delta == 8 / 5
        assert net.metadata["slices"] == "5"
        assert float.fromhex(net.metadata["delta"]) == report.delta
        assert len(report.bumps_per_slice) == 5
        assert report.relu_count > 0
        doc = report.to_document()
        assert doc.startswith("boxcert-report 1\n")
        assert "slices 5" in doc

    def test_report_document_leaves_out_wall_clock_time(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        _, report = build_certified_network(f, 8 / 5)
        doc = report.to_document()
        assert "seconds" not in doc
        assert replace(report, build_seconds=report.build_seconds + 123.4).to_document() == doc

    def test_round_trip_preserves_propagation(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        net, _ = build_certified_network(f, 8 / 5)
        back = deserialize(serialize(net))
        box = BoxRegion.from_pairs([(-1.0, 1.0)])
        assert eval_abstract(back, box) == eval_abstract(net, box)

    def test_budget_error_has_diagnostic(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        with pytest.raises(BuildBudgetError, match="raise delta"):
            build_certified_network(f, 8 / 5, BuildBudget(max_candidates=10))


    def test_oracle_budget_is_honoured(self):
        # the range certification alone needs more samples than this budget
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        with pytest.raises(OracleBudgetError, match="budget"):
            build_certified_network(f, 8 / 5, BuildBudget(max_oracle_samples=200))


# Domains off the unit box, with the grid cells each axis of [0, 1]^m gets: every
# build maps its input onto the unit box and certifies exactly the requested domain.
OFF_UNIT_BUILDS = (
    ("x0*x1", [(0.1, 0.93), (0.2, 0.7)], 0.1, "28,17"),  # non-dyadic bounds
    ("x0*x1", [(0.5, 0.5 + 1e-9), (0.0, 1.0)], 0.25, "1,15"),  # thin
    ("x0*x0", [(-1e6, 1e6)], 2e10, "400"),  # wide: 2,000,003,000,001 candidates at one cell per unit
    ("x0*x0 + x1", [(-1e3, 1e3), (0.0, 1.0)], 4e4, "201,1"),  # anisotropic
)


@pytest.mark.parametrize("expr, domain, delta, cells", OFF_UNIT_BUILDS,
                         ids=["non-dyadic", "thin", "wide", "anisotropic"])
def test_off_unit_domains_are_certified_as_requested(expr, domain, delta, cells):
    box = BoxRegion.from_pairs(domain)
    f = parse_func(expr, len(domain), box)
    net, report = build_certified_network(f, delta)
    assert report.domain == box
    assert network_domain(net) == box
    assert net.metadata["cells_per_unit"] == cells
    campaign = verify_network(net, f, RunConfig(boxes=300, seed=5))
    assert (campaign.failures, campaign.inconclusive) == (0, 0)


# sha256 of the .net documents of the benchmark's build cases and of the cubic
# at delta 0.1, with their exact (node_count, relu_count), so that no network
# grows unnoticed. They were last re-recorded when each bump's min tree gave
# way to one affine row over its ramps, R(sum of the 2m ramps - (2m - 1)):
# every relu count fell, every network reported no failed and no inconclusive
# box on 1,000-box campaigns at three seeds, and the reference tests at the
# end of this file check that every propagated endpoint is bit-identical to
# the per-bump chain of that gadget. They were re-recorded again for the
# version-4 document, with the same networks: each version-3 document the
# earlier writer made loads to the same nodes, bit for bit. The three served
# cases are pinned in test_compiled.
PINNED_BUILDS = (
    (CUBIC, [(-2.0, 2.0)], 0.2,
     "1751a821355292d8f95b768351013713689b0ce4409974881a09f27df62f5305", (11, 241)),
    (CUBIC, [(-2.0, 2.0)], 0.1,
     "f89413d3d1706ceaf13e6544c2bc6339b196bcab00a7df75b5bb0e6388257105", (11, 481)),
    ("min(x0, x1)", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "f797c56224fc32e0023c0245931cbfdcd15010d22c2eb10ed9c7c47a0aab7db4", (11, 18)),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.25,
     "07a75f51f2b334b870eb80e36d084ae8c0aea728e84e67c1b3ab0e4f114f81b8", (11, 91)),
    # M 40, 20 slices, 741,321 candidate rectangles
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.1,
     "7c1a9fc6cae5867d303194a842cdf47822cc5be23e54cd4ff7715e4105144c11", (11, 389)),
)


@pytest.mark.parametrize("expr, domain, delta, net_sha, counts", PINNED_BUILDS,
                         ids=["cubic-0.2", "cubic-0.1", "min", "product-0.25", "product-0.1"])
def test_build_documents_are_pinned(expr, domain, delta, net_sha, counts):
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, _ = build_certified_network(f, delta, BuildBudget())
    assert hashlib.sha256(serialize(net).encode()).hexdigest() == net_sha
    assert (stats(net)["node_count"], stats(net)["relu_count"]) == counts


@pytest.mark.parametrize("expr, domain, deltas, nodes", [
    ("x0*x0", [(0.0, 1.0)], (0.5, 0.25, 0.1), 10),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], (0.5, 0.25, 0.1), 11),
    ("x0*x1*x2", [(0.0, 1.0)] * 3, (0.75, 0.5), 12),
    (CUBIC, [(-2.0, 2.0)], (0.4, 0.2), 11),  # off the unit box: the input map adds a node
], ids=["square", "product", "product-3d", "cubic"])
def test_node_count_does_not_grow_with_the_bumps(expr, domain, deltas, nodes):
    # m inputs, the ramps' affine, relu and 1 - r nodes, the bumps and their
    # relu, the clips and their relu, the slices and the final sum
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    reports = [build_certified_network(f, delta)[1] for delta in deltas]
    assert [r.node_count for r in reports] == [nodes] * len(deltas)
    assert reports[0].relu_count < reports[-1].relu_count


# The min build with the paper's min-tree bumps, which the per-bump builder
# wrote as a version-2 document with dense rows and merged nodes (sha256
# c8999ec7da9eed532a94e0ddb01269d7600bf815c0e9ebc2d34c3832260cc8d7). It is kept
# as the version-4 document that version-2 load serializes to.
MIN_TREE = Path(__file__).parent / "data" / "min-tree.net"


@functools.cache
def min_tree_chain_and_old_document():
    expr, domain, delta, _, _ = PINNED_BUILDS[2]
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    return reference_build(f, delta, append_min_bump), load(str(MIN_TREE))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-0.25, 1.25), st.floats(-0.25, 1.25), st.floats(0.0, 0.5),
                          st.floats(0.0, 0.5), st.booleans()), min_size=1, max_size=8))
def test_old_documents_propagate_like_the_min_tree_chain(drawn):
    net, old = min_tree_chain_and_old_document()
    boxes = [BoxRegion.from_pairs([(x, x if point else x + w), (y, y if point else y + h)])
             for x, y, w, h, point in drawn]

    def endpoints(n):
        return [[(iv.lo.hex(), iv.hi.hex()) for iv in eval_abstract(n, box).bounds] for box in boxes]

    assert endpoints(old) == endpoints(net)
    assert old.metadata == net.metadata
    assert (stats(old)["node_count"], stats(old)["relu_count"]) == (85, 66)


def test_build_memory_stays_below_the_float_table():
    # 741,321 candidate rectangles: a float64 minima table alone would be 5.7 MiB
    # and its per-slice masks and copies took the peak to about 45 MiB
    f = parse_func("x0*x1", 2, unit_box(2))
    tracemalloc.start()
    try:
        build_certified_network(f, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20



@pytest.mark.parametrize("expr, domain, slices", [
    ("x0*x1", [(0, 1), (0, 1)], 8),
    ("3.5", [(0, 1), (0, 1)], 1),
    ("relu(x0) - relu(x0)", [(-1, 1)], 1),
], ids=["product", "constant", "flat"])
def test_build_constructs_one_network(monkeypatch, expr, domain, slices):
    validate = network._validate
    calls = []
    monkeypatch.setattr(network, "_validate", lambda *args: calls.append(args) or validate(*args))
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    _, report = build_certified_network(f, 0.25)
    assert report.slice_count == slices
    assert len(calls) == 1


# The three served cases and min(x0, x1), with the sha256 of their networks as
# the per-bump reference builds them (helpers.reference_build: every bump its own
# gadget chain, nothing shared, the cubic's unit-box input map A once per slice),
# as version-4 documents. They were re-recorded when the bump's min tree gave
# way to one affine row over its ramps, and again when version 2 stopped
# loading: each version-2 document, with the dense rows of the per-bump
# chain, loads to the same nodes as its version-4 document.
UNMERGED_BUILDS = (
    (CUBIC, [(-2.0, 2.0)], 0.4,
     "47b1502e99a3ea5092b8e55efe2c2e28e1018e84404b5c78997503f9f9594b37"),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "f892e396bb3d9def7d5701070c84d6ece2e30c0916921164a541ec530b17511d"),
    ("abs(x0 - 0.5)*relu(x1)", [(0.0, 1.0), (0.0, 1.0)], 0.25,
     "4b5f3429f706f9849f7c0b9c8d5d06e63bb1cc777ecd26b49898afda9014f4b8"),
    ("min(x0, x1)", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "5d41b8db46ab4cdeb4ecf2ba3a203352cd5d95e1eef41d222bb3d4427dab8e8b"),
)

# Every build the layered assembly is checked against the reference on: the
# six benchmark builds, a 2-d domain off the unit box, and a 3-d build, whose
# bump rows sum six ramps.
REFERENCE_CASES = (
    *(case[:3] for case in UNMERGED_BUILDS),
    (CUBIC, [(-2.0, 2.0)], 0.2),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.25),
    ("x0*x0*x0 - 2*x1*x0", [(-1.0, 1.0), (0.0, 1.0)], 0.5),
    ("x0*x1*x2", [(0.0, 1.0)] * 3, 0.5),
    ("relu(x0)", [(-1.0, 1.0)], 0.3),  # slices with the same bumps: see the test below
)


def test_slices_with_the_same_bumps_share_a_clip_row():
    # relu(x0) is flat on [-1, 0], so some of its slices hold the same rectangles
    expr, domain, delta = REFERENCE_CASES[-1]
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, report = build_certified_network(f, delta)
    levels = tuple(float.fromhex(v) for v in net.metadata["levels"].split())
    spec = SliceSpec(report.slice_count, levels, report.delta)
    sets = slice_members(delta_sets(f, GridSpec(report.cells_per_unit), spec), spec.count)
    slices = net.nodes[net.nodes[net.output].preds[0]]
    clip = net.nodes[net.nodes[slices.preds[0]].preds[0]]
    assert len(slices.weights) == report.slice_count
    assert len(clip.weights) == len({tuple(rects) for rects in sets if rects}) < report.slice_count


@functools.cache
def layered_and_reference(case):
    """The build of ``REFERENCE_CASES[case]``, its per-bump reference, and that reference read back from its document."""
    expr, domain, delta = REFERENCE_CASES[case]
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    reference = reference_build(f, delta)
    return build_certified_network(f, delta)[0], reference, deserialize(serialize(reference))


@pytest.mark.parametrize("case", range(len(UNMERGED_BUILDS)), ids=["cubic", "product", "abs-relu", "min"])
def test_unmerged_reference_is_the_earlier_document(case):
    layered, reference, _ = layered_and_reference(case)
    assert hashlib.sha256(serialize(reference).encode()).hexdigest() == UNMERGED_BUILDS[case][3]
    small, large = stats(layered), stats(reference)
    assert small["node_count"] <= large["node_count"]
    assert small["relu_count"] <= large["relu_count"]


@st.composite
def reference_boxes(draw):
    """A reference case and sub-boxes of its domain, a third of them point boxes."""
    case = draw(st.integers(0, len(REFERENCE_CASES) - 1))
    domain = REFERENCE_CASES[case][1]
    unit = st.floats(0.0, 1.0)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        point = draw(st.integers(0, 2)) == 0
        pairs = []
        for lo, hi in domain:
            s, t = draw(unit), draw(unit)
            a, b = lo + (hi - lo) * min(s, t), lo + (hi - lo) * max(s, t)
            pairs.append((a, a) if point else (a, b))
        boxes.append(BoxRegion.from_pairs(pairs))
    return case, boxes


@settings(max_examples=80, deadline=None)
@given(reference_boxes())
def test_merged_builds_propagate_like_unmerged_ones(drawn):
    case, boxes = drawn

    def endpoints(net):
        return [[(iv.lo.hex(), iv.hi.hex()) for iv in eval_abstract(net, box).bounds] for box in boxes]

    layered, reference, read_back = layered_and_reference(case)
    assert endpoints(layered) == endpoints(reference) == endpoints(read_back)


@pytest.mark.parametrize("expr, domain, assembled", [
    (CUBIC, [(-2, 2)], True),
    ("x0*x1", [(0, 1), (0, 1)], True),
    ("3.5", [(0, 1), (0, 1)], False),
], ids=["cubic", "product", "constant"])
def test_slices_and_assembly_run_through_module_names(monkeypatch, expr, domain, assembled):
    # The benchmark times these two module globals as the slice and assembly
    # stages: every slice is assembled in one call.
    calls = {"build_slice_network": 0, "sum_outputs": 0}
    for name in calls:
        def counted(*args, _fn=getattr(construct, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(construct, name, counted)
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    build_certified_network(f, 0.4)
    assert calls["build_slice_network"] == int(assembled)
    assert calls["sum_outputs"] == int(assembled)
