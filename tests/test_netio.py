import random
from pathlib import Path

import pytest

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

from helpers import random_network


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
    text = (
        f"{MAGIC} 2\n"
        "input_dim 1\n"
        "output 1\n"
        "node 0 input 0\n"
        "node 1 affine 0 1 1 0.25 -1.5\n"
    )
    net = deserialize(text)
    assert net.nodes[1].weights == (((0, -1.5),),)
    assert net.nodes[1].bias == (0.25,)
    sparse = deserialize(f"{MAGIC} 3\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 affine 0 1 0.25 0:-1.5\n")
    assert sparse.nodes == net.nodes


def test_missing_magic():
    with pytest.raises(NetworkFormatError, match="magic"):
        deserialize("whatever 1\n")


def test_unsupported_version():
    with pytest.raises(NetworkFormatError, match="version"):
        deserialize(f"{MAGIC} 999\n")


def test_empty_document_has_no_output_node():
    text = f"{MAGIC} 2\ninput_dim 1\n"
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
    text = f"{MAGIC} 2\n{header}\nnode 0 input 0\n"
    with pytest.raises(NetworkFormatError, match=message):
        deserialize(text)


def test_propagate_rejects_directive_without_value(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text(f"{MAGIC} 2\ninput_dim 1\noutput\nnode 0 input 0\n", encoding="utf-8")
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
    ],
)
def test_non_integer_in_node_line(line, token):
    text = f"{MAGIC} 2\ninput_dim 1\noutput 0\nnode 0 input 0\n{line}\n"
    with pytest.raises(NetworkFormatError, match=f"malformed node line {line!r}: .*{token}"):
        deserialize(text)


def test_cycle_detected():
    text = (
        f"{MAGIC} 2\n"
        "input_dim 1\n"
        "output 2\n"
        "node 0 input 0\n"
        "node 1 relu 2\n"
        "node 2 relu 1\n"
    )
    with pytest.raises(NetworkFormatError, match="cycle"):
        deserialize(text)


def test_forward_reference_without_cycle():
    text = (
        f"{MAGIC} 2\n"
        "input_dim 1\n"
        "output 2\n"
        "node 0 input 0\n"
        "node 2 relu 1\n"
        "node 1 relu 0\n"
    )
    with pytest.raises(NetworkFormatError, match="listed before predecessor"):
        deserialize(text)


def test_undefined_predecessor():
    text = f"{MAGIC} 2\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 relu 9\n"
    with pytest.raises(NetworkFormatError, match="node 1 references undefined node 9"):
        deserialize(text)


def test_undefined_predecessor_reported_before_forward_reference():
    text = (
        f"{MAGIC} 2\n"
        "input_dim 1\n"
        "output 2\n"
        "node 0 input 0\n"
        "node 2 relu 1\n"
        "node 1 relu 9\n"
    )
    with pytest.raises(NetworkFormatError, match="node 1 references undefined node 9"):
        deserialize(text)


def test_duplicate_node_id():
    text = f"{MAGIC} 2\ninput_dim 1\noutput 0\nnode 0 input 0\nnode 0 relu 0\n"
    with pytest.raises(NetworkFormatError, match="duplicate node id 0"):
        deserialize(text)


def test_unknown_kind():
    text = f"{MAGIC} 2\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 conv 0\n"
    with pytest.raises(NetworkFormatError, match="unknown node kind"):
        deserialize(text)


def test_affine_value_count_mismatch():
    text = f"{MAGIC} 2\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 affine 0 1 1 0.0\n"
    with pytest.raises(NetworkFormatError, match="expects 2 numbers"):
        deserialize(text)


def test_arity_violation_reported_with_node_id():
    text = (
        f"{MAGIC} 2\n"
        "input_dim 1\n"
        "output 1\n"
        "node 0 input 0\n"
        "node 1 affine 0 1 2 0.0 1.0 2.0\n"
    )
    with pytest.raises(NetworkFormatError, match="node 1"):
        deserialize(text)


def test_non_finite_weight_rejected():
    text = f"{MAGIC} 2\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 affine 0 1 1 0.0 inf\n"
    with pytest.raises(NetworkFormatError, match="non-finite"):
        deserialize(text)


def test_box_text_round_trip():
    box = BoxRegion.from_pairs([(-2.0, 2.0), (0.1, 0.9)])
    assert parse_box_text(format_box_text(box)) == box
    assert parse_box_text("-2,2;0.5,1") == BoxRegion.from_pairs([(-2, 2), (0.5, 1)])
    with pytest.raises(ValueError):
        parse_box_text("1;2,3")


def test_multi_input_affine_line():
    b = NetworkBuilder(2)
    net = b.finish(b.affine([1, 0], [[0.5, -1.0]], [0.25]))
    text = serialize(net)
    assert text.startswith(f"{MAGIC} 3\n")
    assert "node 2 affine 1,0 2 0x1.0000000000000p-2 0:0x1.0000000000000p-1 1:-0x1.0000000000000p+0\n" in text
    assert deserialize(text).nodes == net.nodes


def test_only_nonzero_terms_are_written():
    # rows with a zero, a -0.0 and no term at all; signed-zero biases stay as written
    b = NetworkBuilder(2)
    net = b.finish(b.sparse_affine([0, 1], [[(1, 0.0), (0, 2.0)], [(0, -0.0)], []], [-0.0, 1.0, 0.0]))
    line = serialize(net).splitlines()[-1]
    assert line == "node 2 affine 0,1 1,0,0 -0x0.0p+0 0x1.0000000000000p+0 0x0.0p+0 0:0x1.0000000000000p+1"
    back = deserialize(serialize(net))
    assert back.nodes[2].weights == (((0, 2.0),), (), ())
    assert [b.hex() for b in back.nodes[2].bias] == ["-0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]
    boxes = [BoxRegion.from_pairs([(-1.0, 0.5), (-0.0, 2.0)]), BoxRegion.point([-0.0, -0.0])]
    for got, want in zip(eval_abstract_many(back, boxes), eval_abstract_many(net, boxes)):
        assert [(iv.lo.hex(), iv.hi.hex()) for iv in got.bounds] == [(iv.lo.hex(), iv.hi.hex()) for iv in want.bounds]


@pytest.mark.parametrize(
    "line, message",
    [
        ("node 2 affine 0,1 1,1 0 0 -1:1.0 0:1.0", "node 2: term column -1 out of range for predecessor width 2"),
        ("node 2 affine 0,1 1,1 0 0 2:1.0 0:1.0", "node 2: term column 2 out of range for predecessor width 2"),
        ("node 2 affine 0,1 2,1 0 0 0:1.0 1:1.0", "node 2: affine expects 2 biases and 3 terms, got 4 values"),
        ("node 2 affine 0,1 1,-1 0 0 0:1.0", "node 2: affine term counts must not be negative"),
        ("node 2 affine 0,1 1 0 1.0", "bad term '1.0' in node 2: expected column:weight"),
        ("node 2 affine 0,1 1 0 a:1.0", "bad term column 'a' in node 2"),
    ],
    ids=["negative-column", "column-past-width", "term-count", "negative-count", "no-column", "bad-column"],
)
def test_bad_sparse_terms_are_rejected(line, message):
    text = f"{MAGIC} 3\ninput_dim 2\noutput 2\nnode 0 input 0\nnode 1 input 1\n{line}\n"
    with pytest.raises(NetworkFormatError, match=message):
        deserialize(text)


@pytest.mark.parametrize("line", ["node 1 sum 0 0", "node 1 concat 0"])
def test_version_2_has_no_sum_or_concat(line):
    text = f"{MAGIC} 2\ninput_dim 1\noutput 1\nnode 0 input 0\n{line}\n"
    with pytest.raises(NetworkFormatError, match="unknown node kind"):
        deserialize(text)


MIN_V1 = Path(__file__).parent / "data" / "min-v1.net"


def test_version_1_is_rejected(capsys):
    with pytest.raises(NetworkFormatError, match="unsupported schema version 1"):
        load(str(MIN_V1))
    assert main(["propagate", "--net", str(MIN_V1), "--box", "0,1;0,1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: unsupported schema version 1\n"
