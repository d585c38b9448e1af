"""Acceptance suite: one test per contract criterion, each printing a
pass/fail line with its runtime (run with ``pytest -s`` to see them live).
Numbered tolerances and time limits are asserted as stated; shared builds are
module fixtures and their build time is charged to the criteria that use them.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from boxcert import netio
from boxcert.cli import main as cli_main
from boxcert.construct import build_certified_network
from boxcert.expr import parse_func
from boxcert.fixtures import fig2_n1, fig2_n2
from boxcert.grids import GridSpec
from boxcert.intervals import BoxRegion, Interval
from boxcert.network import (
    Network,
    eval_abstract,
    eval_concrete,
)
from boxcert.slicing import make_slice_spec
from boxcert.verify import RunConfig, verify_network

from helpers import (
    HyperRect,
    box_arrays,
    build_local_bump,
    build_nmin2,
    build_nmin_n,
    bump_closed_form,
    difference_network,
    hat_function,
    rect_hull,
    identity_network,
    iv_subset,
    nmin2_closed_form,
    point_inside,
    rand_dyadic,
    rand_dyadic_interval,
    random_box,
    random_network,
    shrink_box,
    slice_eval_many,
)

CUBIC = "-x0*x0*x0 + 3*x0"
CUBIC_DOMAIN = BoxRegion.from_pairs([(-2.0, 2.0)])
UNIT_SQUARE = BoxRegion.from_pairs([(0.0, 1.0), (0.0, 1.0)])


@contextmanager
def criterion(number: int, name: str, limit_seconds: float, extra_seconds: float = 0.0):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start + extra_seconds
        status = "PASS" if ok else "FAIL"
        print(f"\ncriterion {number:2d} [{name}] {status} ({elapsed:.2f}s, limit {limit_seconds:g}s)")
    assert elapsed < limit_seconds, f"criterion {number} overran its time limit"


@pytest.fixture(scope="module")
def cubic_func():
    return parse_func(CUBIC, 1, CUBIC_DOMAIN)


@pytest.fixture(scope="module")
def cubic_loose(cubic_func):
    return build_certified_network(cubic_func, 8 / 5)


@pytest.fixture(scope="module")
def cubic_tight(cubic_func):
    return build_certified_network(cubic_func, 0.4)


@pytest.fixture(scope="module")
def min2d():
    f = parse_func("min(x0, x1)", 2, UNIT_SQUARE)
    return (f, *build_certified_network(f, 0.5))


@pytest.fixture(scope="module")
def prod2d():
    f = parse_func("x0*x1", 2, UNIT_SQUARE)
    return (f, *build_certified_network(f, 0.5))


def test_criterion_1_reference_fixtures():
    with criterion(1, "reference fixtures", 1.0):
        n1, n2 = fig2_n1(), fig2_n2()
        unit = BoxRegion.from_pairs([(0.0, 1.0)])
        assert eval_abstract(n1, unit).bounds[0] == Interval(0.0, 1.5)
        assert eval_abstract(n2, unit).bounds[0] == Interval(0.0, 1.0)
        for i in range(101):
            x = -1.0 + i / 32.0  # dyadic samples across all three pieces
            expected = hat_function(x)
            assert eval_concrete(n1, [x])[0] == expected
            assert eval_concrete(n2, [x])[0] == expected


def test_criterion_2_difference_network_precision_loss():
    with criterion(2, "x minus x widens to [-1, 1]", 5.0):
        diff = difference_network(identity_network(1))
        out = eval_abstract(diff, BoxRegion.from_pairs([(0.0, 1.0)])).bounds[0]
        assert out == Interval(-1.0, 1.0)


def _dyadic_case_pairs(rng: random.Random, count: int):
    """Random dyadic interval pairs covering all case splits and boundary ties."""
    pairs = []
    while len(pairs) < count:
        mode = len(pairs) % 6
        if mode == 0:
            pairs.append((rand_dyadic_interval(rng), rand_dyadic_interval(rng)))
        elif mode == 1:  # second entirely at or below the first
            c, d, a, b = sorted(rand_dyadic(rng, -4, 4) for _ in range(4))
            pairs.append((Interval(a, b), Interval(c, d)))
        elif mode == 2:  # first entirely at or below the second
            a, b, c, d = sorted(rand_dyadic(rng, -4, 4) for _ in range(4))
            pairs.append((Interval(a, b), Interval(c, d)))
        elif mode == 3:  # touching tie d == a
            c, d, b = sorted(rand_dyadic(rng, -4, 4) for _ in range(3))
            pairs.append((Interval(d, b), Interval(c, d)))
        elif mode == 4:  # touching tie b == c
            a, b, d = sorted(rand_dyadic(rng, -4, 4) for _ in range(3))
            pairs.append((Interval(a, b), Interval(b, d)))
        else:  # overlap with shared interior point
            mid = rand_dyadic(rng, -2, 2)
            a = mid - abs(rand_dyadic(rng, 0, 2))
            d = mid + abs(rand_dyadic(rng, 0, 2))
            pairs.append((Interval(a, mid), Interval(mid - 0.5, d if d >= mid - 0.5 else mid)))
    return pairs


def test_criterion_3_closed_form_oracle_equality():
    with criterion(3, "closed-form min oracle equality", 10.0):
        gadget = build_nmin2()
        rng = random.Random(20240515)
        for x, y in _dyadic_case_pairs(rng, 10_000):
            got = eval_abstract(gadget, BoxRegion((x, y))).bounds[0]
            assert got == nmin2_closed_form(x, y)
        for width in range(1, 17):
            tree = build_nmin_n(width)
            for _ in range(1000):
                us = [rand_dyadic(rng, -2, 1) for _ in range(width)]
                out = eval_abstract(
                    tree, BoxRegion(tuple(Interval(u, 1.0) for u in us))
                ).bounds[0]
                total = 0.0
                for u in us:
                    total += u
                assert out == Interval(total + 1.0 - width, 1.0)


def test_criterion_4_soundness_and_monotonicity_fuzz():
    with criterion(4, "soundness and monotonicity fuzz", 60.0):
        # Each network propagates its boxes in one batched call. A point box
        # propagates to the concrete value (bit-exact, see test_compiled).
        rng = random.Random(424242)
        triples = 0
        while triples < 100_000:
            net = random_network(rng)
            boxes, points = [], []
            for _ in range(5):
                box = random_box(rng, net.input_dim)
                boxes.append(box)
                points.append(BoxRegion.point(point_inside(rng, box)))
            lo, hi = net.program.run(*box_arrays(boxes + points))
            assert ((lo[:5] - 1e-9 <= lo[5:]) & (lo[5:] <= hi[:5] + 1e-9)).all()
            triples += 5
        nested = 0
        while nested < 10_000:
            net = random_network(rng)
            inners, outers = [], []
            for _ in range(5):
                outers.append(random_box(rng, net.input_dim))
                inners.append(shrink_box(rng, outers[-1]))
            lo, hi = net.program.run(*box_arrays(inners + outers))
            assert ((lo[5:] <= lo[:5]) & (hi[:5] <= hi[5:])).all()
            nested += 5


def test_criterion_5_local_bump_contract():
    with criterion(5, "local bump contract", 30.0):
        rng = random.Random(55)
        for dim in (1, 2):
            for half in (2, 4, 8):
                grid = GridSpec((2 * half,) * dim)
                lower = tuple(rng.randint(1, half) for _ in range(dim))
                upper = tuple(
                    rng.randint(l, min(l + half, 2 * half - 1)) for l in lower
                )
                rect = HyperRect(lower, upper)
                bump = build_local_bump(grid, rect)
                hull = rect_hull(rect, grid)
                step = 1.0 / (2 * half)

                for _ in range(100):  # inside the corner hull: exactly one
                    pairs = []
                    for k in range(dim):
                        a = rng.uniform(hull[k].lo, hull[k].hi)
                        b = rng.uniform(hull[k].lo, hull[k].hi)
                        pairs.append((min(a, b), max(a, b)))
                    out = eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[0]
                    assert out == Interval(1.0, 1.0)

                for _ in range(100):  # one grid step clear: exactly zero
                    split = rng.randrange(dim)
                    side = rng.choice((-1, 1))
                    pairs = []
                    for k in range(dim):
                        if k == split:
                            if side < 0:
                                b = hull[k].lo - step - 1e-6 * rng.uniform(1, 9)
                                a = b - rng.uniform(0.0, 1.0)
                            else:
                                a = hull[k].hi + step + 1e-6 * rng.uniform(1, 9)
                                b = a + rng.uniform(0.0, 1.0)
                        else:
                            a = rng.uniform(-1.0, 3.0)
                            b = a + rng.uniform(0.0, 2.0)
                        pairs.append((min(a, b), max(a, b)))
                    out = eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[0]
                    assert out == Interval(0.0, 0.0)

                for _ in range(100):  # arbitrary boxes stay within [0, 1]
                    pairs = []
                    for k in range(dim):
                        a = rng.uniform(-1.0, 3.0)
                        pairs.append((a, a + rng.uniform(0.0, 3.0)))
                    out = eval_abstract(bump, BoxRegion.from_pairs(pairs)).bounds[0]
                    assert 0.0 <= out.lo <= out.hi <= 1.0

                for _ in range(1000):  # concrete shape matches the closed form
                    x = [rng.uniform(-0.5, 2.5) for _ in range(dim)]
                    assert eval_concrete(bump, x)[0] == pytest.approx(
                        bump_closed_form(grid, rect, x), abs=1e-9
                    )


def test_criterion_6_end_to_end_cubic(cubic_func, cubic_loose, cubic_tight, tmp_path):
    net, report = cubic_loose
    net_tight, report_tight = cubic_tight
    build_time = report.build_seconds + report_tight.build_seconds
    with criterion(6, "end-to-end 1-d cubic", 300.0, extra_seconds=build_time):
        assert report.slice_count == 5
        d = report.delta
        assert d == 8 / 5

        inner = BoxRegion.from_pairs([(-1.0, 1.0)])
        prop = eval_abstract(net, inner).bounds[0]
        # true range of the cubic on [-1, 1] is [-2, 2] (monotone there)
        assert iv_subset(Interval(-2.0 + d, 2.0 - d), prop, tol=1e-9)
        assert iv_subset(prop, Interval(-2.0 - d, 2.0 + d), tol=1e-9)
        print(f"\n  propagated inner box: {prop} (comparison interval [-2, 1.2], not asserted)")

        out = verify_network(net, cubic_func, RunConfig(boxes=1000, seed=42))
        assert out.failures == 0 and out.inconclusive == 0

        out_tight = verify_network(net_tight, cubic_func, RunConfig(boxes=1000, seed=42))
        assert out_tight.failures == 0 and out_tight.inconclusive == 0


def test_criterion_7_end_to_end_two_dimensional(min2d, prod2d):
    f_min, net_min, report_min = min2d
    f_prod, net_prod, report_prod = prod2d
    build_time = report_min.build_seconds + report_prod.build_seconds
    with criterion(7, "end-to-end 2-d builds", 600.0, extra_seconds=build_time):
        for f, net in ((f_min, net_min), (f_prod, net_prod)):
            out = verify_network(net, f, RunConfig(boxes=200, seed=7))
            assert out.failures == 0 and out.inconclusive == 0


def test_criterion_8_pointwise_approximation(cubic_func, cubic_loose, cubic_tight, min2d, prod2d):
    with criterion(8, "pointwise approximation bound", 300.0):
        cases = [
            (cubic_func, *cubic_loose),
            (cubic_func, *cubic_tight),
            (min2d[0], min2d[1], min2d[2]),
            (prod2d[0], prod2d[1], prod2d[2]),
        ]
        rng = random.Random(88)
        for f, net, report in cases:
            d = report.delta
            worst = 0.0
            for _ in range(10_000):
                x = [rng.uniform(b.lo, b.hi) for b in f.domain.bounds]
                worst = max(worst, abs(eval_concrete(net, x)[0] - f.eval(x)))
            assert worst <= d + 1e-9, f"max deviation {worst} exceeds {d}"


def test_criterion_9_slicing_identity(cubic_func):
    with criterion(9, "slice reconstruction identity", 30.0):
        spec = make_slice_spec(-2.0, 2.0, 8 / 5)
        assert spec.count == 5
        rng = random.Random(99)
        pts = np.array([[rng.uniform(-2, 2)] for _ in range(10_000)])
        total = np.full(pts.shape[0], spec.bottom)
        for k in range(spec.count):
            total = total + slice_eval_many(cubic_func, spec, k, pts)
        direct = cubic_func.eval_many(pts)
        assert float(np.max(np.abs(total - direct))) <= 1e-9


def test_criterion_10_fault_injection(cubic_loose, tmp_path):
    net, report = cubic_loose
    with criterion(10, "fault injection is detected", 120.0):
        out_node = net.nodes[net.output]
        assert out_node.kind == "affine"
        nodes = list(net.nodes)
        nodes[net.output] = type(out_node)(
            out_node.kind,
            preds=out_node.preds,
            weights=out_node.weights,
            bias=tuple(b + 2 * report.delta for b in out_node.bias),
        )
        corrupted = Network(tuple(nodes), net.output, net.input_dim, dict(net.metadata))
        bad_path = tmp_path / "corrupted.net"
        netio.save(corrupted, str(bad_path))
        report_path = tmp_path / "corrupted.verify"
        code = cli_main(
            ["verify", "--net", str(bad_path), "--expr", CUBIC, "--boxes", "200",
             "--seed", "42", "--out", str(report_path)]
        )
        assert code == 1
        assert "failures 0" not in report_path.read_text().splitlines()[-1]


def test_criterion_11_deterministic_reports(cubic_loose, tmp_path):
    net, _ = cubic_loose
    with criterion(11, "byte-identical verification reports", 120.0):
        net_path = tmp_path / "net.net"
        netio.save(net, str(net_path))
        first = tmp_path / "first.verify"
        second = tmp_path / "second.verify"
        args = ["verify", "--net", str(net_path), "--expr", CUBIC, "--boxes", "100", "--seed", "7"]
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
