import random

import pytest

from boxcert.fixtures import fig2_n1, fig2_n2
from boxcert.intervals import BoxRegion, Interval
from boxcert.construct import build_certified_network, sum_outputs
from boxcert.expr import parse_func
from boxcert.netio import serialize
from boxcert.network import (
    Network,
    NetworkBuilder,
    affine_node,
    eval_abstract,
    eval_concrete,
    input_node,
    Node,
    Rows,
    relu_node,
    stats,
)

from helpers import (
    append_copy,
    box_subset,
    csr,
    difference_network,
    hat_function,
    identity_network,
    point_inside,
    random_box,
    random_network,
    shrink_box,
    sparse_affine,
)


class TestValidation:
    def test_forward_reference_rejected(self):
        nodes = (input_node(0), relu_node(2), relu_node(1))
        with pytest.raises(ValueError, match="predecessor"):
            Network(nodes, 2, 1)

    def test_duplicate_input_index(self):
        nodes = (input_node(0), input_node(0))
        with pytest.raises(ValueError, match="already used"):
            Network(nodes, 1, 1)

    def test_missing_input_index(self):
        nodes = (input_node(0),)
        with pytest.raises(ValueError, match="missing input"):
            Network(nodes, 0, 2)

    def test_affine_shape_mismatch(self):
        nodes = (input_node(0), affine_node(0, [[1.0, 2.0]], [0.0]))
        with pytest.raises(ValueError, match="node 1: term column 1 out of range for predecessor width 1"):
            Network(nodes, 1, 1)

    def test_negative_term_column(self):
        nodes = (input_node(0), Node("affine", (0,), weights=Rows(*csr([[(0, 1.0)], [(-1, 2.0)]])), bias=[0.0, 0.0]))
        with pytest.raises(ValueError, match="node 1: term column -1 out of range"):
            Network(nodes, 1, 1)

    def test_multi_input_affine_reads_its_predecessors_end_to_end(self):
        b = NetworkBuilder(1)
        a = b.affine(0, [[1.0], [2.0]], [0.0, 0.0])
        net = b.finish(b.affine([a, 0], [[1.0, 10.0, 100.0]], [0.5]))
        assert eval_concrete(net, [1.0]) == (121.5,)
        nodes = (*net.nodes[:2], affine_node([1, 0], [[1.0, 2.0, 3.0, 4.0]], [0.0]))
        with pytest.raises(ValueError, match="term column 3 out of range for predecessor width 3"):
            Network(nodes, 2, 1)
        # a sparse row names the columns it reads, in the order it sums them
        rows = Rows(*csr([[(2, 100.0), (0, 1.0)], []]))
        sparse = Network((*net.nodes[:2], Node("affine", (1, 0), weights=rows, bias=[0.5, 7.0])), 2, 1)
        assert eval_concrete(sparse, [1.0]) == (101.5, 7.0)

    def test_dimension_mismatch_on_eval(self):
        net = identity_network(2)
        with pytest.raises(ValueError):
            eval_concrete(net, [1.0])
        with pytest.raises(ValueError):
            eval_abstract(net, BoxRegion.from_pairs([(0, 1)]))


class TestFixtures:
    def test_loose_fixture_concrete(self):
        n1 = fig2_n1()
        assert eval_concrete(n1, [0.0])[0] == 1.0
        assert eval_concrete(n1, [1.0])[0] == 0.0
        assert eval_concrete(n1, [0.5])[0] == 0.5

    def test_tight_fixture_concrete(self):
        assert eval_concrete(fig2_n2(), [0.5])[0] == 0.5

    def test_fixtures_agree_with_hat_everywhere(self):
        n1, n2 = fig2_n1(), fig2_n2()
        for i in range(101):
            x = -1.0 + i / 32.0
            assert eval_concrete(n1, [x])[0] == hat_function(x)
            assert eval_concrete(n2, [x])[0] == hat_function(x)

    def test_propagation_gap_between_wirings(self):
        unit = BoxRegion.from_pairs([(0, 1)])
        assert eval_abstract(fig2_n1(), unit).bounds[0] == Interval(0, 1.5)
        assert eval_abstract(fig2_n2(), unit).bounds[0] == Interval(0, 1)

    def test_point_box_exactness(self):
        n1 = fig2_n1()
        for x in (-0.7, 0.0, 0.3, 1.9):
            value = eval_concrete(n1, [x])[0]
            prop = eval_abstract(n1, BoxRegion.point([x])).bounds[0]
            assert (prop.lo, prop.hi) == (value, value)


class TestCombinators:
    def test_identity(self):
        for dim in (1, 3):
            net = identity_network(dim)
            x = [0.3 * (i + 1) for i in range(dim)]
            assert eval_concrete(net, x) == tuple(x)

    def test_difference_network(self):
        diff = difference_network(fig2_n1())
        rng = random.Random(1)
        for _ in range(50):
            x = rng.uniform(-2, 3)
            assert eval_concrete(diff, [x])[0] == 0.0
        # brute-force propagation of the difference graph widens to +-1.5
        out = eval_abstract(diff, BoxRegion.from_pairs([(0, 1)])).bounds[0]
        assert out == Interval(-1.5, 1.5)

    def test_x_minus_x(self):
        diff = difference_network(identity_network(1))
        assert eval_concrete(diff, [0.7])[0] == 0.0
        assert eval_abstract(diff, BoxRegion.from_pairs([(0, 1)])).bounds[0] == Interval(-1, 1)

    def test_sum_outputs_bias(self):
        b = NetworkBuilder(1)
        net = b.finish(sum_outputs(b, [b.input_id(0)], 1.0, -2.0))
        assert eval_concrete(net, [0.5])[0] == -1.5

    def test_concat_outputs(self):
        b = NetworkBuilder(1)
        copies = [append_copy(b, identity_network(1)), append_copy(b, fig2_n1())]
        net = b.finish(b.affine(copies, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]))
        assert net.output_dim == 2
        assert eval_concrete(net, [0.25]) == (0.25, 0.75)


class TestBuilderMerging:
    """The builder appends every node, and a build emits no node twice."""

    def test_different_predecessors_or_inputs_are_not_merged(self):
        b = NetworkBuilder(2)
        assert b.relu(0) != b.relu(1)
        assert b.affine(0, [[2.0]], [1.0]) != b.affine(1, [[2.0]], [1.0])
        assert b.affine([0, 1], [[1.0, 2.0]], [0.0]) != b.affine([1, 0], [[1.0, 2.0]], [0.0])
        r0, r1 = b.relu(0), b.relu(1)
        assert b.affine([r0, r1], [[1.0, 1.0]], [0.0]) != b.affine([r1, r0], [[1.0, 1.0]], [0.0])

    @pytest.mark.parametrize("expr, domain, delta", [
        ("-x0*x0*x0 + 3*x0", [(-2.0, 2.0)], 0.4),
        ("x0*x1", [(0.0, 1.0), (0.0, 1.0)], 0.5),
        ("abs(x0 - 0.5)*relu(x1)", [(0.0, 1.0), (0.0, 1.0)], 0.25),
    ], ids=["cubic", "product", "abs-relu"])
    def test_served_builds_have_bit_distinct_nodes(self, expr, domain, delta):
        f = parse_func(expr, len(domain), BoxRegion.from_pairs(domain))
        net, _ = build_certified_network(f, delta)
        # a node line without its id: kind, predecessors or input index, hex floats
        bodies = [ln.split(" ", 2)[2] for ln in serialize(net).splitlines() if ln.startswith("node ")]
        assert len(bodies) == len(net.nodes) == len(set(bodies))


class TestStats:
    def test_single_affine(self):
        s = stats(identity_network(1))
        assert s["relu_count"] == 0
        assert s["depth"] == 1

    def test_param_count(self):
        b = NetworkBuilder(2)
        out = b.affine(b.input_ids, [[1.0, 2.0], [3.0, 4.0]], [0.0, 0.0])
        s = stats(b.finish(out))
        assert s["param_count"] == 6

    def test_param_count_of_ragged_rows(self):
        # stored terms plus biases: rows of three, no and one term
        b = NetworkBuilder(2)
        out = sparse_affine(b, b.input_ids, [[(0, 1.0), (1, 2.0), (0, 3.0)], [], [(1, 0.5)]], [0.0, 1.0, 2.0])
        assert stats(b.finish(out))["param_count"] == 7


class TestFuzz:
    def test_soundness_random_networks(self):
        rng = random.Random(2024)
        for _ in range(2000):
            net = random_network(rng)
            box = random_box(rng, net.input_dim)
            x = point_inside(rng, box)
            value = eval_concrete(net, x)
            prop = eval_abstract(net, box)
            for v, iv in zip(value, prop.bounds):
                assert iv.lo - 1e-9 <= v <= iv.hi + 1e-9

    def test_monotonicity_random_networks(self):
        rng = random.Random(99)
        for _ in range(500):
            net = random_network(rng)
            outer = random_box(rng, net.input_dim)
            inner = shrink_box(rng, outer)
            assert box_subset(eval_abstract(net, inner), eval_abstract(net, outer))

    def test_point_box_bitwise_exactness(self):
        rng = random.Random(5)
        for _ in range(500):
            net = random_network(rng)
            x = [rng.uniform(-3, 3) for _ in range(net.input_dim)]
            value = eval_concrete(net, x)
            prop = eval_abstract(net, BoxRegion.point(x))
            assert tuple(iv.lo for iv in prop.bounds) == value
            assert tuple(iv.hi for iv in prop.bounds) == value
