"""The compiled evaluator against the per-node Interval walk in helpers.

Results are compared through ``float.hex`` so that a ``+0.0``/``-0.0``
difference shows. The pinned report hashes were recorded with the per-node
evaluator, before networks were compiled.
"""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcert import netio
from boxcert.construct import BuildBudget, build_certified_network
from boxcert.expr import parse_func
from boxcert.intervals import BoxRegion
from boxcert.network import NetworkBuilder, eval_abstract, eval_concrete, stats
from boxcert.oracle import MARGIN_FRACTION, BoxRanges, certified_box_ranges
from boxcert.verify import FAIL, INCONCLUSIVE, STATUSES, RunConfig, _check, verify_network

from helpers import (
    box_arrays,
    dense_affine,
    dyadic,
    grid_boxes,
    reference_check,
    reference_eval_abstract,
    reference_eval_concrete,
    sample_cap,
    sparse_affine,
)

WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0]),
    dyadic(64, 4),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False),
)
ENDPOINTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def networks(draw):
    """Random DAGs over every node kind; an affine node reads one to four earlier nodes, repeats allowed.

    Sparse rows hold up to five terms on any columns, in any order, repeats
    allowed, and may be empty.
    """
    dim = draw(st.integers(1, 3))
    b = NetworkBuilder(dim)
    ids = list(b.input_ids)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["affine", "zero_row_affine", "sparse_affine", "relu"]))
        if kind == "relu":
            ids.append(b.relu(draw(st.sampled_from(ids))))
            continue
        preds = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
        if sum(b.arity(p) for p in preds) > 8:
            preds = preds[:1]
        cols = sum(b.arity(p) for p in preds)
        if kind == "sparse_affine":
            term = st.tuples(st.integers(0, cols - 1), WEIGHTS)
            rows = draw(st.lists(st.lists(term, max_size=5), min_size=1, max_size=3))
            bias = draw(st.lists(WEIGHTS, min_size=len(rows), max_size=len(rows)))
            ids.append(sparse_affine(b, preds, rows, bias))
            continue
        rows = draw(st.lists(st.lists(WEIGHTS, min_size=cols, max_size=cols), min_size=1, max_size=3))
        if kind == "zero_row_affine":
            rows[draw(st.integers(0, len(rows) - 1))] = draw(
                st.lists(st.sampled_from([0.0, -0.0]), min_size=cols, max_size=cols)
            )
        bias = draw(st.lists(WEIGHTS, min_size=len(rows), max_size=len(rows)))
        ids.append(dense_affine(b, preds, rows, bias))
    return b.finish(ids[-1])


@st.composite
def boxes(draw, dim):
    pairs = []
    point = draw(st.booleans())
    for _ in range(dim):
        a = draw(ENDPOINTS)
        c = a if point else draw(ENDPOINTS)
        pairs.append((min(a, c), max(a, c)))
    return BoxRegion.from_pairs(pairs)


def hexes(box):
    return [(b.lo.hex(), b.hi.hex()) for b in box.bounds]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_batched_propagation_is_bit_identical_to_the_interval_walk(data):
    net = data.draw(networks())
    batch = data.draw(st.lists(boxes(net.input_dim), min_size=1, max_size=6))
    lo, hi = net.program.run(*box_arrays(batch))
    for box, row_lo, row_hi in zip(batch, lo.tolist(), hi.tolist(), strict=True):
        want = hexes(reference_eval_abstract(net, box))
        assert [(a.hex(), b.hex()) for a, b in zip(row_lo, row_hi)] == want
        assert hexes(eval_abstract(net, box)) == want
        if all(b.lo == b.hi for b in box.bounds):  # a point box is concrete evaluation
            x = [b.lo for b in box.bounds]
            value = [v.hex() for v in eval_concrete(net, x)]
            assert value == [v.hex() for v in reference_eval_concrete(net, x)]
            assert want == [(v, v) for v in value]


def test_signed_zero_through_padded_affine_rows_and_relu():
    # The output rows have two, three, one and two nonzero terms and share a
    # stage, so the shorter ones are padded with 1.0 * -0.0. Every row starts
    # from +0.0, so -0.0 inputs and a -0.0 bias sum to +0.0; relu(-0.0) is +0.0
    # as max(0.0, -0.0) is.
    b = NetworkBuilder(1)
    rows = [[1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 2.0, 0.0]]
    net = b.finish(dense_affine(b, [0, 0, 0, b.relu(0)], rows, [-0.0, -0.0, -0.0, 0.5]))
    want = ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p-1"]
    assert [v.hex() for v in reference_eval_concrete(net, [-0.0])] == want
    assert [v.hex() for v in eval_concrete(net, [-0.0])] == want
    assert hexes(eval_abstract(net, BoxRegion.point([-0.0]))) == [(v, v) for v in want]


def test_program_is_compiled_on_first_evaluation_and_cached():
    b = NetworkBuilder(1)
    net = b.finish(b.relu(dense_affine(b, 0, [[2.0]], [-1.0])))
    assert "program" not in vars(net)
    assert eval_concrete(net, [1.0]) == (1.0,)
    assert net.program is net.program


def test_empty_batch_and_dimension_mismatch():
    b = NetworkBuilder(2)
    net = b.finish(dense_affine(b, [0, 1], [[1.0, 1.0]], [0.0]))
    lo, hi = net.program.run(np.empty((0, 2)), np.empty((0, 2)))
    assert lo.shape == hi.shape == (0, 1)
    with pytest.raises(ValueError, match="expected a 2-d box, got 1-d"):
        eval_abstract(net, BoxRegion.from_pairs([(0, 1)]))


def test_overflow_masked_by_a_relu_is_still_rejected():
    # The per-node walk rejects the -inf interval before the relu maps it to 0.
    b = NetworkBuilder(1)
    net = b.finish(b.relu(dense_affine(b, 0, [[-1e300]], [0.0])))
    with pytest.raises(ValueError, match="finite"):
        eval_abstract(net, BoxRegion.from_pairs([(1e10, 2e10)]))
    with pytest.raises(ValueError, match="finite"):
        eval_concrete(net, [1e10])


# (expression, domain, delta, sha256 of the .net document, its (node_count,
# relu_count), sha256 of the verify report for 200 boxes at seed 1): the three
# networks the benchmark serves. The cubic's network and report were
# re-recorded when it gained the unit-box input map A, whose rounding moves
# some propagated endpoints in their last digits. Every .net hash and count,
# and the 2-d report hashes, were last re-recorded when each bump's min tree
# gave way to one affine row over its ramps, after all three networks held on
# every grid box (below). The cubic's report kept its bytes: in 1-d the sum of
# a bump's two ramps propagates like their min on its 200 boxes. The exact
# counts keep any growth of a served network in view. The .net hashes were
# re-recorded for the version-4 document (a value table and integer lists):
# the networks are the same, as each version-3 document the earlier writer
# made loads to the same nodes, bit for bit, and the report hashes stayed.
SERVED = (
    ("-x0*x0*x0 + 3*x0", [(-2.0, 2.0)], 0.4,
     "e781bdb298d621e3f721eeaa0d9eff2d5b5badd9d569966c51e04c78141511f4", (11, 121),
     "09189e23a62537bdc287ea8ed612aca277f935fdabfc1b1cf936e1c6baeba155"),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "6adfab08ad0f4ac92b3d8f47654d50c526e2a1aa3b17d204ea0c85464202a485", (11, 34),
     "a09f1b80d420a0bc8bc46cc41627a15ae7bcf93b2f05cb52cfa9e683abc4bdac"),
    ("abs(x0 - 0.5)*relu(x1)", [(0.0, 1.0), (0.0, 1.0)], 0.25,
     "ef2cde2481a2ad41d7b0fcb2aefea4d348156abf7111f948be6d1797a02d874a", (11, 50),
     "a2e3e905077d534e2371fe3098e07ceea8973c750e6dc4646cb52e231b154704"),
)


@pytest.mark.parametrize("expr, domain, delta, net_sha, counts, report_sha", SERVED,
                         ids=["cubic", "product", "abs-relu"])
def test_served_verify_reports_are_pinned(expr, domain, delta, net_sha, counts, report_sha):
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, _ = build_certified_network(f, delta, BuildBudget())
    report = verify_network(net, f, RunConfig(boxes=200, seed=1))
    assert hashlib.sha256(report.to_document().encode()).hexdigest() == report_sha
    assert hashlib.sha256(netio.serialize(net).encode()).hexdigest() == net_sha
    assert (stats(net)["node_count"], stats(net)["relu_count"]) == counts


@pytest.mark.parametrize("expr, domain, delta", [case[:3] for case in SERVED], ids=["cubic", "product", "abs-relu"])
def test_served_networks_hold_on_every_grid_box(expr, domain, delta):
    # every grid-aligned and every half-cell-shifted box, 2,000 to a batch
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, report = build_certified_network(f, delta, BuildBudget())
    tolerance = RunConfig(boxes=0, seed=0).tolerance
    boxes = grid_boxes(f.domain, report.cells_per_unit)
    checked = 0
    while pairs := list(itertools.islice(boxes, 2000)):
        chunk = np.array(pairs)
        lo, hi = chunk[:, :, 0], chunk[:, :, 1]
        prop_lo, prop_hi = net.program.run(lo, hi)
        ranges = certified_box_ranges(f, lo, hi, report.delta / MARGIN_FRACTION)
        status, _ = _check(ranges, prop_lo, prop_hi, report.delta, tolerance)
        bad = np.isin(status, (FAIL, INCONCLUSIVE)).any(axis=0)
        assert chunk[bad].tolist() == []
        checked += len(chunk)
    cells = report.cells_per_unit
    assert checked == math.prod((c + 1) * (c + 2) // 2 for c in cells) + math.prod(c * (c + 1) // 2 for c in cells)


# Check inputs from a few dyadic values, so that gaps land exactly on the
# tolerance and on -0.0, and extrema that may be infinite or NaN.
CHECK_VALUES = st.sampled_from([-1.0, -0.5, -0.25, -0.125, -0.0, 0.0, 0.125, 0.25, 0.5, 1.0])
EXTREMA = st.one_of(CHECK_VALUES, st.sampled_from([math.inf, -math.inf, math.nan]), st.floats(-2.0, 2.0))


@st.composite
def checked_boxes(draw):
    """One box's oracle entry and propagated interval: (ok, vmin, vmax, margin, prop_lo, prop_hi)."""
    a, b = draw(CHECK_VALUES), draw(st.one_of(CHECK_VALUES, st.floats(-2.0, 2.0)))
    return (draw(st.booleans()), draw(EXTREMA), draw(EXTREMA), draw(st.sampled_from([0.0, 0.125, 0.25])),
            min(a, b), max(a, b))


@settings(max_examples=300, deadline=None)
@given(
    boxes=st.lists(checked_boxes(), max_size=8),
    delta=st.sampled_from([0.0, 0.125, 0.25, 0.5]),
    tolerance=st.sampled_from([0.0, 1e-9, 0.125, 0.25]),
)
@example(  # vacuous, holds, fail on both checks, inconclusive, and gaps of exactly the tolerance and -0.0
    boxes=[(True, 0.0, 0.25, 0.125, 0.0, 0.25), (True, 0.0, 1.0, 0.0, 0.0, 1.0), (True, 0.0, 1.0, 0.0, 0.5, 0.5),
           (True, 0.5, 0.5, 0.0, -1.0, 1.0), (False, 0.0, 1.0, 0.0, 0.0, 1.0), (True, 0.0, 0.0, 0.0, -0.0, -0.0),
           (True, -0.0, -0.0, 0.0, -0.125, 0.125), (True, math.nan, 1.0, 0.0, 0.0, 1.0)],
    delta=0.125, tolerance=0.125,
)
def test_sandwich_columns_equal_the_per_box_check(boxes, delta, tolerance):
    ok, vmin, vmax, margin, prop_lo, prop_hi = np.array(boxes, dtype=float).reshape(-1, 6).T
    ok = ok.astype(bool)
    # as certified_box_ranges has them: zeros where a box is over the cap, and
    # a sample count over it there
    samples = np.where(ok, 1.0, math.inf)
    ranges = BoxRanges(ok, *(np.where(ok, column, 0.0) for column in (vmin, vmax, margin)), samples)
    status, violation = _check(ranges, prop_lo[:, None], prop_hi[:, None], delta, tolerance)
    unit = BoxRegion.from_pairs([(0.0, 1.0)])
    for i, (ok_i, vmin_i, vmax_i, margin_i, lo_i, hi_i) in enumerate(boxes):
        extrema = (vmin_i, vmax_i, margin_i) if ok_i else None
        want = reference_check(unit, extrema, BoxRegion.from_pairs([(lo_i, hi_i)]), delta, tolerance)
        assert (STATUSES[status[0, i]], STATUSES[status[1, i]]) == (want.lower_status, want.upper_status)
        assert violation[i].hex() == want.violation.hex()


def test_propagation_memory_does_not_grow_with_the_box_count():
    # The program runs PASS_BOXES boxes at a time through one buffer: ten times
    # the boxes may not take much more memory (one buffer of all 20,000 boxes
    # would be about 270 MiB).
    f = parse_func("x0*x1", 2, BoxRegion.from_pairs([(0.0, 1.0)] * 2))
    net, _ = build_certified_network(f, 0.1, BuildBudget())
    peaks = []
    for count in (2_000, 20_000):
        rng = np.random.default_rng(count)
        lo = rng.uniform(0.0, 0.5, (count, 2))
        hi = lo + rng.uniform(0.0, 0.5, (count, 2))
        tracemalloc.start()
        try:
            net.program.run(lo, hi)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_mixed_budget_verify_report_is_pinned():
    # At 150 samples per box 107 of the 200 boxes are inconclusive and the
    # rest need many sampling passes: the report was recorded with the
    # per-box oracle, before the campaign sampled its boxes in batches, and
    # re-recorded with the cubic's unit-box input map A.
    expr, domain, delta, net_sha, _, _ = SERVED[0]
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, _ = build_certified_network(f, delta, BuildBudget())
    assert hashlib.sha256(netio.serialize(net).encode()).hexdigest() == net_sha
    with sample_cap(150):
        report = verify_network(net, f, RunConfig(boxes=200, seed=1))
    assert (report.inconclusive, report.failures) == (107, 0)
    assert hashlib.sha256(report.to_document().encode()).hexdigest() == (
        "1469297f56d6566a9c7953b4b5fce626d538b293aabe8578d1f6a11ff4542b63"
    )
