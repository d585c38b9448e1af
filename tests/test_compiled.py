"""The compiled evaluator against the per-node Interval walk in helpers.

Results are compared through ``float.hex`` so that a ``+0.0``/``-0.0``
difference shows. The pinned report hashes were recorded with the per-node
evaluator, before networks were compiled.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert import netio
from boxcert.construct import BuildBudget, build_certified_network
from boxcert.expr import parse_func
from boxcert.intervals import BoxRegion
from boxcert.network import NetworkBuilder, eval_abstract, eval_abstract_many, eval_concrete
from boxcert.verify import RunConfig, verify_network

from helpers import dyadic, reference_eval_abstract, reference_eval_concrete

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
    """Random DAGs over every node kind, with a scalar or a concatenated output."""
    dim = draw(st.integers(1, 3))
    b = NetworkBuilder(dim)
    ids = list(b.input_ids)
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["affine", "zero_row_affine", "relu", "sum", "concat"]))
        pred = draw(st.sampled_from(ids))
        if kind in ("affine", "zero_row_affine"):
            cols = b.arity(pred)
            rows = draw(st.lists(st.lists(WEIGHTS, min_size=cols, max_size=cols), min_size=1, max_size=3))
            if kind == "zero_row_affine":
                rows[draw(st.integers(0, len(rows) - 1))] = draw(
                    st.lists(st.sampled_from([0.0, -0.0]), min_size=cols, max_size=cols)
                )
            bias = draw(st.lists(WEIGHTS, min_size=len(rows), max_size=len(rows)))
            ids.append(b.affine(pred, rows, bias))
        elif kind == "relu":
            ids.append(b.relu(pred))
        elif kind == "sum":
            same = [p for p in ids if b.arity(p) == b.arity(pred)]
            ids.append(b.sum([pred] + draw(st.lists(st.sampled_from(same), min_size=1, max_size=4))))
        else:  # fan-in with reuse: the same node may appear more than once
            picks = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=4))
            if sum(b.arity(p) for p in picks) <= 8:
                ids.append(b.concat(picks))
    if draw(st.booleans()):
        return b.finish(ids[-1])
    return b.finish(b.concat(draw(st.lists(st.sampled_from(ids), min_size=2, max_size=3))))


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
    got = eval_abstract_many(net, batch)
    assert len(got) == len(batch)
    for box, out in zip(batch, got):
        want = hexes(reference_eval_abstract(net, box))
        assert hexes(out) == want
        assert hexes(eval_abstract(net, box)) == want
        if all(b.lo == b.hi for b in box.bounds):  # a point box is concrete evaluation
            x = [b.lo for b in box.bounds]
            value = [v.hex() for v in eval_concrete(net, x)]
            assert value == [v.hex() for v in reference_eval_concrete(net, x)]
            assert want == [(v, v) for v in value]


def test_signed_zero_through_padded_sums_and_relu():
    # Sums of two and three inputs share a stage, so the shorter one is padded;
    # -0.0 + -0.0 stays -0.0, and relu(-0.0) is +0.0 as max(0.0, -0.0) is.
    b = NetworkBuilder(1)
    net = b.finish(b.concat([b.sum([0, 0]), b.sum([0, 0, 0]), b.relu(0)]))
    want = ["-0x0.0p+0", "-0x0.0p+0", "0x0.0p+0"]
    assert [v.hex() for v in reference_eval_concrete(net, [-0.0])] == want
    assert [v.hex() for v in eval_concrete(net, [-0.0])] == want
    assert hexes(eval_abstract(net, BoxRegion.point([-0.0]))) == [(v, v) for v in want]


def test_program_is_compiled_on_first_evaluation_and_cached():
    b = NetworkBuilder(1)
    net = b.finish(b.relu(b.affine(0, [[2.0]], [-1.0])))
    assert "program" not in vars(net)
    assert eval_concrete(net, [1.0]) == (1.0,)
    assert net.program is net.program


def test_empty_batch_and_dimension_mismatch():
    b = NetworkBuilder(2)
    net = b.finish(b.sum([0, 1]))
    assert eval_abstract_many(net, []) == []
    with pytest.raises(ValueError, match="expected a 2-d box"):
        eval_abstract_many(net, [BoxRegion.from_pairs([(0, 1), (0, 1)]), BoxRegion.from_pairs([(0, 1)])])


def test_overflow_masked_by_a_relu_is_still_rejected():
    # The per-node walk rejects the -inf interval before the relu maps it to 0.
    b = NetworkBuilder(1)
    net = b.finish(b.relu(b.affine(0, [[-1e300]], [0.0])))
    with pytest.raises(ValueError, match="finite"):
        eval_abstract(net, BoxRegion.from_pairs([(1e10, 2e10)]))
    with pytest.raises(ValueError, match="finite"):
        eval_concrete(net, [1e10])


# (expression, domain, delta, sha256 of the .net document, sha256 of the verify
# report for 200 boxes at seed 1): the three networks the benchmark serves.
# The reports were recorded before the builder merged bit-identical nodes;
# only the .net hashes changed with it. The cubic's network and report were
# re-recorded when it gained the unit-box input map A, whose rounding moves
# some propagated endpoints in their last digits.
SERVED = (
    ("-x0*x0*x0 + 3*x0", [(-2.0, 2.0)], 0.4,
     "d2bbaade538cdbba36a742ce314f5d58d3f552b378970b380eef6950a57001ab",
     "09189e23a62537bdc287ea8ed612aca277f935fdabfc1b1cf936e1c6baeba155"),
    ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.5,
     "a093a3ffb1198d0fe653c7f2ea749144a7e6cd40cc8e688623f062ade3a017b0",
     "52a875875bbfca4d442abff82ed17fe1725f702b8a9354b94a810bc620c7565a"),
    ("abs(x0 - 0.5)*relu(x1)", [(0.0, 1.0), (0.0, 1.0)], 0.25,
     "9c714d90e6e408c829ea20d35ebaa4cf649bbeb07d268066d4e0a35e6e897e40",
     "b28971d8be07e7c2b96f11745a5a4d9847768da8080f0320d6782b3c7dd283b2"),
)


@pytest.mark.parametrize("expr, domain, delta, net_sha, report_sha", SERVED, ids=["cubic", "product", "abs-relu"])
def test_served_verify_reports_are_pinned(expr, domain, delta, net_sha, report_sha):
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, _ = build_certified_network(f, delta, BuildBudget())
    assert hashlib.sha256(netio.serialize(net).encode()).hexdigest() == net_sha
    report = verify_network(net, f, RunConfig(boxes=200, seed=1))
    assert hashlib.sha256(report.to_document().encode()).hexdigest() == report_sha


def test_mixed_budget_verify_report_is_pinned():
    # At 150 samples per box 107 of the 200 boxes are inconclusive and the
    # rest need many sampling passes: the report was recorded with the
    # per-box oracle, before the campaign sampled its boxes in batches, and
    # re-recorded with the cubic's unit-box input map A.
    expr, domain, delta, net_sha, _ = SERVED[0]
    f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
    net, _ = build_certified_network(f, delta, BuildBudget())
    assert hashlib.sha256(netio.serialize(net).encode()).hexdigest() == net_sha
    report = verify_network(net, f, RunConfig(boxes=200, seed=1, oracle_budget=150))
    assert (report.inconclusive, report.failures) == (107, 0)
    assert hashlib.sha256(report.to_document().encode()).hexdigest() == (
        "1469297f56d6566a9c7953b4b5fce626d538b293aabe8578d1f6a11ff4542b63"
    )
