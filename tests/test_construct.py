import functools
import hashlib
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert.construct import (
    RECT_MARGIN_FRACTION,
    BuildBudget,
    BuildBudgetError,
    CellMinTable,
    build_certified_network,
    build_slice_network,
    delta_sets,
    grid_resolution,
    samples_per_cell_for,
)
from boxcert.expr import parse_func
from boxcert.grids import GridSpec, HyperRect, prune_maximal
from boxcert.intervals import BoxRegion, Interval, iv_subset
from boxcert.netio import deserialize, serialize
from boxcert import construct, network
from boxcert.network import NetworkBuilder, eval_abstract, eval_abstract_many, eval_concrete, stats
from boxcert.oracle import OracleBudgetError, certified_box_range
from boxcert.slicing import make_slice_spec
from helpers import PlainBuilder, enumerate_rects, reference_prune_maximal

CUBIC = "-x0*x0*x0 + 3*x0"


def unit_grid(dim, cells):
    return GridSpec(cells, (0,) * dim, (cells,) * dim)


def member_rects(f, grid, spec, k):
    """Every grid rectangle of slice k before pruning, from the table the build fills."""
    s = samples_per_cell_for(f.lipschitz, grid.cells_per_unit, spec.delta / RECT_MARGIN_FRACTION)
    mins = CellMinTable(f, grid, s, BuildBudget()).all_rect_mins()
    corners = np.argwhere(mins >= spec.levels[k + 1]) + np.array(grid.index_lo * 2)
    return [HyperRect(tuple(c[: grid.dim]), tuple(c[grid.dim :])) for c in corners.tolist()]


def slice_network(delta_k, grid):
    """One slice on a fresh builder, as its own network."""
    b = NetworkBuilder(grid.dim)
    return b.finish(build_slice_network(b, delta_k, grid))


def table_index(grid, rect):
    """Where ``CellMinTable.all_rect_mins`` keeps a rectangle's minimum."""
    return tuple(i - o for i, o in zip(rect.lower + rect.upper, grid.index_lo * 2))


def slab_min(values, grid, s, rect):
    """A rectangle's minimum read straight off the lattice: every sample of its hull."""
    sel = tuple(
        slice((lo - grid.index_lo[k]) * s, (hi - grid.index_lo[k]) * s + 1)
        for k, (lo, hi) in enumerate(zip(rect.lower, rect.upper))
    )
    return values[sel].min()


class TestGridResolution:
    def test_formula(self):
        assert grid_resolution(9.0, 8 / 5) == 12  # ceil(11.25)
        assert grid_resolution(0.0, 0.3) == 1
        assert grid_resolution(1.0, 2.0) == 1

    def test_from_function(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        assert grid_resolution(f.lipschitz, 8 / 5) == 19  # interval bound gives L = 15

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            grid_resolution(1.0, 0.0)


class TestGridSnap:
    def test_integer_corners_unchanged(self):
        grid = GridSpec.for_box(BoxRegion.from_pairs([(-2.0, 2.0)]), 19)
        assert grid.index_lo == (-38,)
        assert grid.index_hi == (38,)
        assert grid.domain == BoxRegion.from_pairs([(-2.0, 2.0)])

    def test_snaps_outward(self):
        grid = GridSpec.for_box(BoxRegion.from_pairs([(0.1, 0.95)]), 4)
        assert grid.index_lo == (0,)
        assert grid.index_hi == (4,)

    def test_near_integer_product_snaps_exactly(self):
        # 0.3 * 10 = 2.9999999999999996 in floats; must not gain a cell
        grid = GridSpec.for_box(BoxRegion.from_pairs([(0.3, 0.7)]), 10)
        assert grid.index_lo == (3,)
        assert grid.index_hi == (7,)


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
        f = parse_func("5", 1, grid.domain)
        spec = make_slice_spec(0.0, 8.0, 8.0)  # levels 0, 4, 8
        members = delta_sets(f, grid, spec)[0]
        assert members == [HyperRect((0,), (4,))]
        raw = member_rects(f, grid, spec, 0)
        assert len(raw) == 15  # every rect qualifies before pruning

    def test_constant_below_threshold_is_empty(self):
        grid = unit_grid(1, 4)
        f = parse_func("0", 1, grid.domain)
        spec = make_slice_spec(0.0, 8.0, 8.0)
        assert delta_sets(f, grid, spec)[0] == []

    def test_identity_on_unit_interval(self):
        # oracle-first: brute-force certified minima over every rect hull pick
        # exactly the rects with lower corner at or above the level
        grid = unit_grid(1, 4)
        f = parse_func("x0", 1, grid.domain)
        spec = make_slice_spec(0.0, 1.0, 0.5)  # levels 0, .25, .5, .75, 1
        expected_members = []
        for rect in enumerate_rects(grid):
            cmin, _ = certified_box_range(f, rect.hull(grid), 1e-6)
            if cmin.value >= 0.5:
                expected_members.append(rect)
        members = member_rects(f, grid, spec, 1)
        assert members == sorted(expected_members)
        pruned = delta_sets(f, grid, spec)[1]
        assert pruned == [HyperRect((2,), (4,))]
        assert pruned[0].hull(grid) == BoxRegion.from_pairs([(0.5, 1.0)])

    def test_budget_guard(self):
        grid = unit_grid(2, 30)
        f = parse_func("x0", 2, grid.domain)
        spec = make_slice_spec(0.0, 1.0, 0.5)
        with pytest.raises(BuildBudgetError, match="candidate"):
            delta_sets(f, grid, spec, budget=BuildBudget(max_candidates=1000))


class TestCellMinTable:
    def test_matches_direct_oracle(self):
        grid = unit_grid(2, 3)
        f = parse_func("x0*x1 - x0", 2, grid.domain)
        table = CellMinTable(f, grid, 4, BuildBudget())
        mins = table.all_rect_mins()
        rng = random.Random(9)
        for _ in range(40):
            lower = tuple(rng.randint(0, 2) for _ in range(2))
            upper = tuple(rng.randint(l, 3) for l in lower)
            rect = HyperRect(lower, upper)
            got = mins[table_index(grid, rect)]
            cmin, _ = certified_box_range(f, rect.hull(grid), 0.01)
            assert got >= cmin.lo - 1e-12
            assert got <= cmin.value + table.margin + 1e-12


    def test_table_equals_slab_minima(self):
        grid = GridSpec(2, (-1, 1), (2, 3))
        f = parse_func("x0*x1 - x0", 2, grid.domain)
        table = CellMinTable(f, grid, 3, BuildBudget())
        mins = table.all_rect_mins()
        assert mins.shape == (4, 3, 4, 3)
        rects = list(enumerate_rects(grid))
        assert np.isfinite(mins).sum() == len(rects)  # -inf wherever lo > hi
        for rect in rects:
            assert mins[table_index(grid, rect)] == slab_min(table.values, grid, 3, rect)


@st.composite
def lattices(draw):
    """A grid, a samples-per-cell count and small-integer lattice values (ties, plateaus)."""
    dim = draw(st.integers(1, 3))
    cells = [draw(st.integers(1, (8, 4, 2)[dim - 1])) for _ in range(dim)]
    lower = tuple(draw(st.integers(-3, 3)) for _ in range(dim))
    grid = GridSpec(draw(st.integers(1, 3)), lower, tuple(a + c for a, c in zip(lower, cells)))
    s = draw(st.integers(1, 3))
    shape = tuple(c * s + 1 for c in cells)
    top = draw(st.integers(0, 3))  # 0: a constant field
    flat = draw(st.lists(st.integers(0, top), min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return grid, s, np.array(flat, dtype=float).reshape(shape)


class TestMaximalSelection:
    @settings(max_examples=150, deadline=None)
    @given(lattices())
    def test_matches_brute_force_pruning(self, lattice):
        grid, s, values = lattice
        mins = CellMinTable.all_rect_mins(SimpleNamespace(grid=grid, samples_per_cell=s, values=values))
        rects = list(enumerate_rects(grid))
        direct = {rect: slab_min(values, grid, s, rect) for rect in rects}
        for rect, value in direct.items():
            assert mins[table_index(grid, rect)] == value
        for level in sorted(set(values.flat)) + [values.max() + 1.0]:
            members = [rect for rect in rects if direct[rect] >= level]
            assert prune_maximal(mins >= level, grid) == reference_prune_maximal(members)


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
        grid = GridSpec.for_box(f.domain, report.cells_per_unit)
        spec = make_slice_spec(-2.0, 2.0, 0.8)
        slice_sets = delta_sets(f, grid, spec)
        rng = random.Random(31)
        checked_high = checked_low = 0
        for _ in range(400):
            a, b = sorted((rng.uniform(-2, 2), rng.uniform(-2, 2)))
            box = BoxRegion.from_pairs([(a, b)])
            cmin, cmax = certified_box_range(f, box, spec.delta / 16)
            for k in range(spec.count):
                n_k = slice_network(slice_sets[k], grid)
                out = eval_abstract(n_k, box).bounds[0]
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
        assert report.cells_per_unit == 4
        box = BoxRegion.from_pairs([(0.3, 0.8)])
        out = eval_abstract(net, box).bounds[0]
        # requested lower bracket [0.8, 0.3] is empty (vacuous); the outer
        # sandwich [-0.2, 1.3] must hold
        assert iv_subset(out, Interval(-0.2, 1.3), tol=1e-9)

    def test_cubic_metadata_and_report(self):
        f = parse_func(CUBIC, 1, BoxRegion.from_pairs([(-2, 2)]))
        net, report = build_certified_network(f, 8 / 5)
        assert report.slice_count == 5
        assert report.cells_per_unit == 19
        assert report.delta == 8 / 5
        assert report.requested_delta == 8 / 5
        assert net.metadata["slices"] == "5"
        assert float.fromhex(net.metadata["delta"]) == report.delta
        assert len(report.bumps_per_slice) == 5
        assert report.relu_count > 0
        doc = report.to_document()
        assert doc.startswith("boxcert-report 1\n")
        assert "slices 5" in doc

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


# sha256 of the .net documents of the benchmark's build cases and of the cubic
# at delta 0.1, recorded with the builder that merges bit-identical nodes; the
# unmerged-reference tests at the end of this file check that merging leaves
# every propagated interval as it was. The three served cases are pinned in
# test_compiled.
PINNED_BUILDS = (
    (CUBIC, [(-2.0, 2.0)], 0.2,
     "ce0b34ade4573107fd93911f0268088523dddb14c726520da23e78a9159d109b"),
    (CUBIC, [(-2.0, 2.0)], 0.1,
     "1b2a0fb496739a12ab8b6b7e9f9070cec93074fa2bfe972f0d04189c547cfb91"),
    ("min(x0, x1)", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "ff7fc72d2e0a761d69fa1b26a817c80b353d88bf92cf0e05b4858e12a259a1ca"),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.25,
     "71b43463cc72557677fa8df2d048a0ed24dbf5eee3d815bd1151e46434fcfaac"),
)


@pytest.mark.parametrize("expr, domain, delta, net_sha", PINNED_BUILDS,
                         ids=["cubic-0.2", "cubic-0.1", "min", "product-0.25"])
def test_build_documents_are_pinned(expr, domain, delta, net_sha):
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, _ = build_certified_network(f, delta, BuildBudget())
    assert hashlib.sha256(serialize(net).encode()).hexdigest() == net_sha



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


# The three served cases and min(x0, x1), with the sha256 of their documents as
# built before the builder merged bit-identical nodes.
UNMERGED_BUILDS = (
    (CUBIC, [(-2.0, 2.0)], 0.4,
     "40b9aff43ded8e65bb82514e7582cc2c0f83c70fd0bbd7accd4529023eec5912"),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "29c6df0c5a3be2eeb58d6e6deee7e1548d7d4e73a9503d72d4ed7199893f1c31"),
    ("abs(x0 - 0.5)*relu(x1)", [(0.0, 1.0), (0.0, 1.0)], 0.25,
     "76a97fd52c01f21963fe3c7d8ab92b6cd29e0a9bdb82cc029086723720d2273e"),
    ("min(x0, x1)", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "06181b0e9ef933739b54732a758be8bd52fdc7a74b4ff31fb61b4c54618026f9"),
)


@functools.cache
def merged_and_unmerged(case):
    """The build of ``UNMERGED_BUILDS[case]``, and the same build with nothing merged."""
    expr, domain, delta, _ = UNMERGED_BUILDS[case]
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    merged, _ = build_certified_network(f, delta)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "NetworkBuilder", PlainBuilder)
        unmerged, _ = build_certified_network(f, delta)
    return merged, unmerged


@pytest.mark.parametrize("case", range(len(UNMERGED_BUILDS)), ids=["cubic", "product", "abs-relu", "min"])
def test_unmerged_reference_is_the_earlier_document(case):
    merged, unmerged = merged_and_unmerged(case)
    assert hashlib.sha256(serialize(unmerged).encode()).hexdigest() == UNMERGED_BUILDS[case][3]
    small, large = stats(merged), stats(unmerged)
    assert small["node_count"] <= large["node_count"]
    assert small["relu_count"] <= large["relu_count"]


@st.composite
def reference_boxes(draw):
    """A reference case and sub-boxes of its domain, some of them point boxes."""
    case = draw(st.integers(0, len(UNMERGED_BUILDS) - 1))
    domain = UNMERGED_BUILDS[case][1]
    unit = st.floats(0.0, 1.0)
    boxes = []
    for _ in range(draw(st.integers(1, 6))):
        point = draw(st.booleans())
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
    merged, unmerged = merged_and_unmerged(case)
    old_style = deserialize(serialize(unmerged))

    def endpoints(net):
        return [[(iv.lo.hex(), iv.hi.hex()) for iv in out.bounds] for out in eval_abstract_many(net, boxes)]

    assert endpoints(merged) == endpoints(unmerged) == endpoints(old_style)


@pytest.mark.parametrize("expr, domain, assembled", [
    (CUBIC, [(-2, 2)], True),
    ("x0*x1", [(0, 1), (0, 1)], True),
    ("3.5", [(0, 1), (0, 1)], False),
], ids=["cubic", "product", "constant"])
def test_slices_and_assembly_run_through_module_names(monkeypatch, expr, domain, assembled):
    # The benchmark times these two module globals as the slice and assembly stages.
    calls = {"build_slice_network": 0, "sum_outputs": 0}
    for name in calls:
        def counted(*args, _fn=getattr(construct, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(construct, name, counted)
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    _, report = build_certified_network(f, 0.4)
    assert calls["build_slice_network"] == (report.slice_count if assembled else 0)
    assert calls["sum_outputs"] == int(assembled)
