import random
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boxcert import netio
from boxcert.cli import EXIT_USAGE, main
from boxcert.fixtures import fig2_n2
from boxcert.intervals import BoxRegion, Interval
from boxcert.netio import (
    MAGIC,
    NetworkFormatError,
    deserialize,
    format_box_text,
    load,
    parse_box_text,
    save,
    serialize,
)
from boxcert.network import NetworkBuilder, eval_abstract, eval_abstract_many, eval_concrete

from helpers import random_network, row_terms, sparse_affine


def test_round_trip_preserves_propagation():
    net = fig2_n2()
    back = deserialize(serialize(net))
    unit = BoxRegion.from_pairs([(0, 1)])
    assert eval_abstract(back, unit).bounds[0] == Interval(0, 1)
    assert back.metadata == net.metadata


def test_round_trip_is_bit_exact():
    rng = random.Random(123)
    for _ in range(50):
        net = random_network(rng)
        back = deserialize(serialize(net))
        assert back.nodes == net.nodes
        assert back.output == net.output
        assert back.input_dim == net.input_dim
        # and the canonical form is a fixed point
        assert serialize(back) == serialize(net)


def test_file_round_trip(tmp_path):
    net = fig2_n2()
    path = tmp_path / "n2.net"
    save(net, str(path))
    back = load(str(path))
    assert eval_concrete(back, [0.5]) == eval_concrete(net, [0.5])


def test_weights_are_hex_floats():
    text = serialize(fig2_n2())
    assert "0x1.0000000000000p-1" in text  # 0.5


def test_decimal_weights_accepted():
    net = deserialize(f"{MAGIC} 4\ninput_dim 1\noutput 1\nvalues -1.5 0.25\nnode 0 input 0\nnode 1 affine 0 1 1 0 0")
    assert row_terms(net.nodes[1]) == [[(0, -1.5)]]
    assert net.nodes[1].bias.tolist() == [0.25]
    assert "values -0x1.8000000000000p+0 0x1.0000000000000p-2\n" in serialize(net)


def test_missing_magic():
    with pytest.raises(NetworkFormatError, match="magic"):
        deserialize("whatever 1\n")


def test_unsupported_version():
    with pytest.raises(NetworkFormatError, match="version"):
        deserialize(f"{MAGIC} 999\n")


def test_empty_document_has_no_output_node():
    text = f"{MAGIC} 4\ninput_dim 1\n"
    with pytest.raises(NetworkFormatError, match="no output node"):
        deserialize(text)


@pytest.mark.parametrize(
    "header, message",
    [
        ("input_dim\noutput 0", "input_dim takes exactly one value, got 0"),
        ("input_dim 1\noutput", "output takes exactly one value, got 0"),
        ("input_dim 1 2\noutput 0", "input_dim takes exactly one value, got 2"),
        ("input_dim 1\noutput 0 0", "output takes exactly one value, got 2"),
        ("input_dim one\noutput 0", "input_dim value 'one' is not an integer"),
    ],
)
def test_directive_needs_one_integer(header, message):
    text = f"{MAGIC} 4\n{header}\nnode 0 input 0\n"
    with pytest.raises(NetworkFormatError, match=message):
        deserialize(text)


def test_propagate_rejects_directive_without_value(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text(f"{MAGIC} 4\ninput_dim 1\noutput\nnode 0 input 0\n", encoding="utf-8")
    assert main(["propagate", "--net", str(path), "--box", "0,1"]) == EXIT_USAGE
    assert "output takes exactly one value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, token",
    [
        ("node x input 0", "'x'"),
        ("node 1 input i", "'i'"),
        ("node 1 relu a", "'a'"),
        ("node 1 affine 0 r 1 0.0 1.0", "'r'"),
        ("node 1 affine 0 1 c 0.0 1.0", "'c'"),
        # Python's int() reads each of these as an integer
        ("node +1 input 0", "'+1'"),
        ("node 01 input 0", "'01'"),
        ("node 1 input +0", "'+0'"),
        ("node 1 relu 0_0", "'0_0'"),
        ("node 1 relu \u0660", "'\u0660'"),
        ("node 1 affine 0,+0 1 0 0 0", "'0,+0'"),
    ],
)
def test_non_integer_in_node_line(line, token):
    text = f"{MAGIC} 4\ninput_dim 1\noutput 0\nvalues 1.0\nnode 0 input 0\n{line}\n"
    with pytest.raises(NetworkFormatError, match=f"malformed node line {re.escape(repr(line))}: .*{re.escape(token)}"):
        deserialize(text)


def test_cycle_detected():
    # ids are positions, so a cycle needs a predecessor at or after its user
    text = (
        f"{MAGIC} 4\n"
        "input_dim 1\n"
        "output 2\n"
        "node 0 input 0\n"
        "node 1 relu 2\n"
        "node 2 relu 1\n"
    )
    with pytest.raises(NetworkFormatError, match="invalid network document: node 1 must come after its predecessor 2"):
        deserialize(text)


def test_forward_reference_without_cycle():
    text = (
        f"{MAGIC} 4\n"
        "input_dim 1\n"
        "output 2\n"
        "node 0 input 0\n"
        "node 1 relu 2\n"
        "node 2 relu 0\n"
    )
    with pytest.raises(NetworkFormatError, match="node 1 must come after its predecessor 2"):
        deserialize(text)
    # listing the nodes in another order breaks the id rule instead
    swapped = text.replace("node 1 relu 2\nnode 2 relu 0", "node 2 relu 1\nnode 1 relu 0")
    with pytest.raises(NetworkFormatError, match="malformed node line 'node 2 relu 1': expected node id 1, got '2'"):
        deserialize(swapped)


def test_undefined_predecessor():
    text = f"{MAGIC} 4\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 relu 9\n"
    with pytest.raises(NetworkFormatError, match="node 1 must come after its predecessor 9"):
        deserialize(text)
    with pytest.raises(NetworkFormatError, match="output node 2 is not defined"):
        deserialize(text.replace("output 1", "output 2").replace("relu 9", "relu 0"))


def test_duplicate_node_id():
    text = f"{MAGIC} 4\ninput_dim 1\noutput 0\nnode 0 input 0\nnode 0 relu 0\n"
    with pytest.raises(NetworkFormatError, match="malformed node line 'node 0 relu 0': expected node id 1, got '0'"):
        deserialize(text)


def test_unknown_kind():
    # version 1's sum and concat nodes are unknown kinds too
    for kind in ("conv 0", "sum 0 0", "concat 0"):
        text = f"{MAGIC} 4\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 {kind}\n"
        with pytest.raises(NetworkFormatError, match=f"node 1: unknown node kind '{kind.split()[0]}'"):
            deserialize(text)


def test_affine_value_count_mismatch():
    text = f"{MAGIC} 4\ninput_dim 1\noutput 1\nvalues 0.0 1.0\nnode 0 input 0\nnode 1 affine 0 1 0 0 1,1\n"
    with pytest.raises(NetworkFormatError, match="node 1: affine has 1 term columns, 2 weights"):
        deserialize(text)


def test_arity_violation_reported_with_node_id():
    # one row over columns 0 and 1 of a width-1 input
    text = (
        f"{MAGIC} 4\n"
        "input_dim 1\n"
        "output 1\n"
        "values 0.0 1.0 2.0\n"
        "node 0 input 0\n"
        "node 1 affine 0 2 0 0,1 1,2\n"
    )
    with pytest.raises(NetworkFormatError, match="node 1: term column 1 out of range for predecessor width 1"):
        deserialize(text)


def test_non_finite_weight_rejected():
    text = f"{MAGIC} 4\ninput_dim 1\noutput 1\nvalues 0.0 inf\nnode 0 input 0\nnode 1 affine 0 1 0 0 1\n"
    with pytest.raises(NetworkFormatError, match="non-finite value 'inf' in the values line"):
        deserialize(text)


def test_box_text_round_trip():
    box = BoxRegion.from_pairs([(-2.0, 2.0), (0.1, 0.9)])
    assert parse_box_text(format_box_text(box)) == box
    assert parse_box_text("-2,2;0.5,1") == BoxRegion.from_pairs([(-2, 2), (0.5, 1)])
    with pytest.raises(ValueError):
        parse_box_text("1;2,3")


def test_hex_float_past_the_largest_double_is_a_usage_error(tmp_path, capsys):
    with pytest.raises(NetworkFormatError, match=re.escape("bad float literal '0x1p+1024' in box text")):
        parse_box_text("0,0x1p+1024")
    path = tmp_path / "n2.net"
    save(fig2_n2(), str(path))
    assert main(["propagate", "--net", str(path), "--box", "0,0x1p+1024"]) == EXIT_USAGE
    assert "bad float literal" in capsys.readouterr().err


def test_multi_input_affine_line():
    b = NetworkBuilder(2)
    net = b.finish(b.affine([1, 0], [[0.5, -1.0]], [0.25]))
    text = serialize(net)
    assert text.startswith(f"{MAGIC} 4\n")
    assert "values -0x1.0000000000000p+0 0x1.0000000000000p-2 0x1.0000000000000p-1\n" in text
    assert "node 2 affine 1,0 2 1 0,1 2,0\n" in text
    assert deserialize(text).nodes == net.nodes


def test_only_nonzero_terms_are_written():
    # rows with a zero, a -0.0 and no term at all; signed-zero biases stay as written
    b = NetworkBuilder(2)
    net = b.finish(sparse_affine(b, [0, 1], [[(1, 0.0), (0, 2.0)], [(0, -0.0)], []], [-0.0, 1.0, 0.0]))
    lines = serialize(net).splitlines()
    assert "values -0x0.0p+0 0x0.0p+0 0x1.0000000000000p+0 0x1.0000000000000p+1" in lines
    assert lines[-1] == "node 2 affine 0,1 1,0,0 0,2,1 0 3"
    back = deserialize(serialize(net))
    assert row_terms(back.nodes[2]) == [[(0, 2.0)], [], []]
    assert [b.hex() for b in back.nodes[2].bias] == ["-0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]
    boxes = [BoxRegion.from_pairs([(-1.0, 0.5), (-0.0, 2.0)]), BoxRegion.point([-0.0, -0.0])]
    for got, want in zip(eval_abstract_many(back, boxes), eval_abstract_many(net, boxes)):
        assert [(iv.lo.hex(), iv.hi.hex()) for iv in got.bounds] == [(iv.lo.hex(), iv.hi.hex()) for iv in want.bounds]


@pytest.mark.parametrize(
    "lists, message",
    [
        ("0,1 2,1 0,0 0,-1,1 1,1,1", "'0,-1,1' is not comma-separated integers or -"),
        ("0,1 2,1 0,0 0,2,1 1,1,1", "node 2: term column 2 out of range for predecessor width 2"),
        ("0,1 2,2 0,0 0,1,1 1,1,1", "node 2: affine term counts do not add up to its 3 terms"),
        ("0,1 2,-1 0,0 0,1,1 1,1,1", "'2,-1' is not comma-separated integers or -"),
        ("0,1 2,1 0,0 0,1 1,1,1", "node 2: affine has 2 term columns, 3 weights"),
        ("0,1 2,1 0,0 0,a,1 1,1,1", "'0,a,1' is not comma-separated integers or -"),
    ],
    ids=["negative-column", "column-past-width", "term-count", "negative-count", "no-column", "bad-column"],
)
def test_bad_sparse_terms_are_rejected(lists, message):
    # rows x0 + x1 and x1 over two inputs, with one fault each
    text = f"{MAGIC} 4\ninput_dim 2\noutput 2\nvalues 0.0 1.0\nnode 0 input 0\nnode 1 input 1\nnode 2 affine {lists}\n"
    with pytest.raises(NetworkFormatError, match=re.escape(message)):
        deserialize(text)


MIN_V1 = Path(__file__).parent / "data" / "min-v1.net"


@pytest.mark.parametrize("version", ["1", "2", "3", "5"])
def test_version_1_is_rejected(tmp_path, capsys, version):
    # min-v1.net is a version-1 document; the others carry a version-4 body
    if version == "1":
        path = MIN_V1
    else:
        path = tmp_path / f"v{version}.net"
        path.write_text(serialize(fig2_n2()).replace(f"{MAGIC} 4\n", f"{MAGIC} {version}\n", 1), encoding="utf-8")
    with pytest.raises(NetworkFormatError, match=f"unsupported schema version {version}"):
        load(str(path))
    assert main(["propagate", "--net", str(path), "--box", "0,1;0,1"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: unsupported schema version {version}\n"


def test_the_docstring_example_loads_as_described():
    example = textwrap.dedent(netio.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0])
    net = deserialize(example)
    assert row_terms(net.nodes[2]) == [[(1, 1.0), (0, 0.5)], [(0, 1.0)]]
    assert net.nodes[2].bias.tolist() == [0.0, -1.0]
    assert (net.output, net.nodes[3].kind, net.nodes[3].preds) == (3, "relu", (2,))
    assert serialize(net) == example + "\n"  # the example is in canonical form


V4_HEAD = f"{MAGIC} 4\ninput_dim 2\noutput 2\n"
V4_NODES = "node 0 input 0\nnode 1 input 1\n"


def v4_document(affine: str = "0,1 1,1 1,0 0,1 2,2", values: str = "values -1.0 0.5 2.0") -> str:
    """Two inputs and one affine node over both: rows ``2*x0 + 0.5`` and ``2*x1 - 1.0`` by default."""
    return V4_HEAD + values + "\n" + V4_NODES + f"node 2 affine {affine}\n"


def test_version_4_document_reads_its_lists():
    net = deserialize(v4_document())
    assert row_terms(net.nodes[2]) == [[(0, 2.0)], [(1, 2.0)]]
    assert net.nodes[2].bias.tolist() == [0.5, -1.0]
    assert eval_concrete(net, [1.0, 3.0]) == (2.5, 5.0)
    # a node whose rows have no terms writes its columns and weights as -
    b = NetworkBuilder(1)
    constant = b.finish(sparse_affine(b, 0, [[], []], [1.0, -0.0]))
    assert serialize(constant).splitlines()[-1] == "node 1 affine 0 0,0 1,0 - -"
    assert deserialize(serialize(constant)).nodes == constant.nodes


@pytest.mark.parametrize(
    "affine, message",
    [
        ("0,1 1,,1 1,0 0,1 2,2", "'1,,1' is not comma-separated integers or -"),
        ("0,1 1.5 1,0 0,1 2,2", "'1.5' is not"),
        ("0,1 1,1 1,0 0,1, 2,2", "'0,1,' is not"),
        ("0,1 1,1 1,0 ,0,1 2,2", "',0,1' is not"),
        ("0,1 1,1 -1,0 0,1 2,2", "'-1,0' is not"),
        ("0,1 -1,3 1,0 0,1 2,2", "'-1,3' is not"),
        ("0,1 1,1 1,0 0,1 2,\u0661", "'2,\u0661' is not"),
        ("0,+1 1,1 1,0 0,1 2,2", "'0,+1' is not"),
        ("0_0,1 1,1 1,0 0,1 2,2", "'0_0,1' is not"),
        ("0,\u0661 1,1 1,0 0,1 2,2", "'0,\u0661' is not"),
        ("1,0,3 1,1 1,0 0,1 2,2", "node 2 must come after its predecessor 3"),
        ("0,99999999999999999999 1,1 1,0 0,1 2,2", "node 2 must come after its predecessor 9223372036854775807"),
        ("0,1 1,1 1,0 0,1 2,3", "node 2: value index out of range for 3 values"),
        ("0,1 1,1 1,7 0,1 2,2", "node 2: value index out of range for 3 values"),
        ("0,1 1,1 1,0 0,1 2,99999999999999999999", "node 2: value index out of range"),
        ("0,1 2,1 1,0 0,1 2,2", "node 2: affine term counts do not add up to its 2 terms"),
        ("0,1 1,1 1,0 0,99999999999999999999 2,2", "node 2: term column 9223372036854775807 out of range"),
        ("0,1 1,1 1,0 0,5 2,2", "node 2: term column 5 out of range for predecessor width 2"),
        ("0,1 1,1 1,0 0 2,2", "node 2: affine has 1 term columns, 2 weights"),
        ("0,1 1,1 1 0,1 2,2", "node 2: affine needs matching weight rows and bias entries"),
        ("0,1 1,1 1,0 0,1", "node 2: affine takes preds, term counts, bias indices, columns and weight indices"),
        ("0,1 - - - -", "node 2: affine needs matching weight rows and bias entries"),
    ],
    ids=["empty-entry", "non-integer", "trailing-comma", "leading-comma", "negative-index", "negative-count",
         "non-ascii-digit", "preds-plus", "preds-underscore", "preds-non-ascii-digit", "later-pred", "huge-pred",
         "weight-index", "bias-index", "huge-index", "count-sum", "huge-column", "column",
         "columns-and-weights", "biases", "list-count", "no-rows"],
)
def test_malformed_version_4_lists_name_the_node(affine, message):
    # a token that is not an integer list names its line, a bad value the node
    if not message.startswith("node 2"):
        message = f"malformed node line 'node 2 affine {affine}': {message}"
    with pytest.raises(NetworkFormatError, match=re.escape(message)):
        deserialize(v4_document(affine))


@pytest.mark.parametrize(
    "values, message",
    [
        ("values -1.0 inf 2.0", "non-finite value 'inf' in the values line"),
        ("values -1.0 nan 2.0", "non-finite value 'nan' in the values line"),
        ("values -1.0 1e999 2.0", "non-finite value '1e999' in the values line"),
        ("values -1.0 0x1p+1024 2.0", "bad float literal '0x1p+1024' in the values line"),
        ("values -1.0 1.0.0 2.0", "bad float literal '1.0.0' in the values line"),
    ],
)
def test_bad_values_are_rejected(values, message):
    with pytest.raises(NetworkFormatError, match=re.escape(message)):
        deserialize(v4_document(values=values))


def test_the_values_line_comes_before_the_affine_lines():
    text = V4_HEAD + V4_NODES + "node 2 affine 0,1 1,1 1,0 0,1 2,2\nvalues -1.0 0.5 2.0\n"
    with pytest.raises(NetworkFormatError, match="node 2: affine node before the values line"):
        deserialize(text)
    with pytest.raises(NetworkFormatError, match="duplicate values line"):
        deserialize(v4_document().replace("values", "values 1.0\nvalues", 1))


def test_a_partial_read_of_the_lists_names_the_node(monkeypatch):
    # a numpy that only deprecates a malformed read warns and returns the
    # entries before the bad one instead of raising: the element counts
    # catch such a partial read
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda text, **kw: fromstring(text, **kw)[:-1])
    with pytest.raises(NetworkFormatError, match=re.escape("'node 2 affine 0,1 1,1 1,0 0,1 2,2': read 9 of the 10 integers")):
        deserialize(v4_document())


ROUND_TRIP_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308, 1.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def sparse_networks(draw):
    """Random DAGs whose affine rows hold up to four terms, or none, with any finite weights and biases."""
    b = NetworkBuilder(draw(st.integers(1, 3)))
    ids = list(b.input_ids)
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            ids.append(b.relu(draw(st.sampled_from(ids))))
            continue
        preds = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
        width = sum(b.arity(p) for p in preds)
        term = st.tuples(st.integers(0, width - 1), ROUND_TRIP_FLOATS)
        rows = draw(st.lists(st.lists(term, max_size=4), min_size=1, max_size=4))
        bias = draw(st.lists(ROUND_TRIP_FLOATS, min_size=len(rows), max_size=len(rows)))
        ids.append(sparse_affine(b, preds, rows, bias))
    return b.finish(ids[-1])


def edge_network():
    """Rows with no terms, a zero weight, a -0.0 bias and weight, and subnormal and largest doubles."""
    b = NetworkBuilder(2)
    rows = [[], [(1, 5e-324), (0, -1.7976931348623157e308)], [(0, 0.0), (1, -0.0), (1, 1e-310)]]
    return b.finish(b.relu(sparse_affine(b, [0, 1], rows, [-0.0, 2.2250738585072014e-308, 1e308])))


@settings(max_examples=150, deadline=None)
@given(sparse_networks(), st.booleans())
@example(edge_network(), False)
@example(edge_network(), True)
def test_version_4_round_trip_is_bit_exact(net, decimal):
    text = serialize(net)
    if decimal:  # the reader also takes the values as decimal literals
        head, _, rest = text.partition("\nvalues ")
        if rest:
            line, _, tail = rest.partition("\n")
            line = " ".join(repr(float.fromhex(tok)) for tok in line.split())
            text = f"{head}\nvalues {line}\n{tail}"
    back = deserialize(text)
    assert serialize(back) == serialize(net)

    def terms(node):
        return [[(c, w.hex()) for c, w in row if w != 0.0] for row in row_terms(node)]

    for node, got in zip(net.nodes, back.nodes, strict=True):
        assert (got.kind, got.preds, got.index) == (node.kind, node.preds, node.index)
        assert terms(got) == terms(node)
        assert [v.hex() for v in got.bias.tolist()] == [v.hex() for v in node.bias.tolist()]


def test_a_bad_list_names_its_own_node():
    with pytest.raises(NetworkFormatError, match=re.escape("malformed node line 'node 3 affine 2 1 0 0,1, 2': '0,1,'")):
        deserialize(v4_document() + "node 3 affine 2 1 0 0,1, 2\n")
    with pytest.raises(NetworkFormatError, match="node 3: value index out of range for 3 values"):
        deserialize(v4_document() + "node 3 affine 2 1 3 0 1\n")
