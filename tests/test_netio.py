import random

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
from boxcert.network import eval_abstract, eval_concrete

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
        f"{MAGIC} 1\n"
        "input_dim 1\n"
        "output 1\n"
        "node 0 input 0\n"
        "node 1 affine 0 1 1 0.25 -1.5\n"
    )
    net = deserialize(text)
    assert net.nodes[1].weights == ((-1.5,),)
    assert net.nodes[1].bias == (0.25,)


def test_missing_magic():
    with pytest.raises(NetworkFormatError, match="magic"):
        deserialize("whatever 1\n")


def test_unsupported_version():
    with pytest.raises(NetworkFormatError, match="version"):
        deserialize(f"{MAGIC} 999\n")


def test_empty_document_has_no_output_node():
    text = f"{MAGIC} 1\ninput_dim 1\n"
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
    text = f"{MAGIC} 1\n{header}\nnode 0 input 0\n"
    with pytest.raises(NetworkFormatError, match=message):
        deserialize(text)


def test_propagate_rejects_directive_without_value(tmp_path, capsys):
    path = tmp_path / "bad.net"
    path.write_text(f"{MAGIC} 1\ninput_dim 1\noutput\nnode 0 input 0\n", encoding="utf-8")
    assert main(["propagate", "--net", str(path), "--box", "0,1"]) == EXIT_USAGE
    assert "output takes exactly one value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, token",
    [
        ("node x input 0", "'x'"),
        ("node 1 input i", "'i'"),
        ("node 1 relu a", "'a'"),
        ("node 1 sum 0 b", "'b'"),
        ("node 1 affine 0 r 1 0.0 1.0", "'r'"),
        ("node 1 affine 0 1 c 0.0 1.0", "'c'"),
    ],
)
def test_non_integer_in_node_line(line, token):
    text = f"{MAGIC} 1\ninput_dim 1\noutput 0\nnode 0 input 0\n{line}\n"
    with pytest.raises(NetworkFormatError, match=f"malformed node line {line!r}: .*{token}"):
        deserialize(text)


def test_cycle_detected():
    text = (
        f"{MAGIC} 1\n"
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
        f"{MAGIC} 1\n"
        "input_dim 1\n"
        "output 2\n"
        "node 0 input 0\n"
        "node 2 relu 1\n"
        "node 1 relu 0\n"
    )
    with pytest.raises(NetworkFormatError, match="listed before predecessor"):
        deserialize(text)


def test_undefined_predecessor():
    text = f"{MAGIC} 1\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 relu 9\n"
    with pytest.raises(NetworkFormatError, match="node 1 references undefined node 9"):
        deserialize(text)


def test_undefined_predecessor_reported_before_forward_reference():
    text = (
        f"{MAGIC} 1\n"
        "input_dim 1\n"
        "output 2\n"
        "node 0 input 0\n"
        "node 2 relu 1\n"
        "node 1 relu 9\n"
    )
    with pytest.raises(NetworkFormatError, match="node 1 references undefined node 9"):
        deserialize(text)


def test_duplicate_node_id():
    text = f"{MAGIC} 1\ninput_dim 1\noutput 0\nnode 0 input 0\nnode 0 relu 0\n"
    with pytest.raises(NetworkFormatError, match="duplicate node id 0"):
        deserialize(text)


def test_unknown_kind():
    text = f"{MAGIC} 1\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 conv 0\n"
    with pytest.raises(NetworkFormatError, match="unknown node kind"):
        deserialize(text)


def test_affine_value_count_mismatch():
    text = f"{MAGIC} 1\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 affine 0 1 1 0.0\n"
    with pytest.raises(NetworkFormatError, match="expects 2 numbers"):
        deserialize(text)


def test_arity_violation_reported_with_node_id():
    text = (
        f"{MAGIC} 1\n"
        "input_dim 1\n"
        "output 1\n"
        "node 0 input 0\n"
        "node 1 affine 0 1 2 0.0 1.0 2.0\n"
    )
    with pytest.raises(NetworkFormatError, match="node 1"):
        deserialize(text)


def test_non_finite_weight_rejected():
    text = f"{MAGIC} 1\ninput_dim 1\noutput 1\nnode 0 input 0\nnode 1 affine 0 1 1 0.0 inf\n"
    with pytest.raises(NetworkFormatError, match="non-finite"):
        deserialize(text)


def test_box_text_round_trip():
    box = BoxRegion.from_pairs([(-2.0, 2.0), (0.1, 0.9)])
    assert parse_box_text(format_box_text(box)) == box
    assert parse_box_text("-2,2;0.5,1") == BoxRegion.from_pairs([(-2, 2), (0.5, 1)])
    with pytest.raises(ValueError):
        parse_box_text("1;2,3")
