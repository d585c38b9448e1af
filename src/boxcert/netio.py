"""Text document format for networks: versioned, line-oriented, bit-exact.

Layout (version 4)::

    boxcert-net 4
    input_dim 2
    output 3
    meta delta 0x1.999999999999ap-2
    values -0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0
    node 0 input 0
    node 1 input 1
    node 2 affine 0,1 2,1 1,0 1,0,0 3,2,3
    node 3 relu 2

The ``values`` line lists each distinct bias and weight of the network once,
before the first affine line. An affine line then carries five
comma-separated integer lists, all read in one array call:

* ``preds``, the ids of the predecessors whose outputs the node reads end to
  end;
* the term count of each row, one entry per row;
* each row's bias, as an index into ``values``;
* every row's term columns in turn, in summation order, each counted in the
  predecessors' outputs laid end to end;
* the weight of each of those terms, as an index into ``values``.

So node 2 above has the rows ``1.0*x1 + 0.5*x0 + 0.0`` and ``1.0*x0 - 1.0``.
A list with no entries, as the columns and weights of a node whose rows have
no terms, is written ``-``. Only nonzero weights are written: a zero term
adds nothing to a row. The writer emits hex floats, the bit-exact canonical
form, in ascending order with ``-0.0`` before ``0.0``; the reader also accepts
decimal literals.

The k-th node line has id ``k``, its node's position in the network, so each
predecessor id is smaller than its user's and ``output`` names one of the
ids. The first ``input_dim`` lines are the inputs, each ``node k input k``:
node ``k`` reads coordinate ``k``, and no later node is an input. The
reader or the network's validation names the node that breaks a rule. Every
integer in a node line, and the values of ``input_dim`` and ``output``, is a
run of ASCII digits. Only version 4 is read.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .intervals import BoxRegion
from .network import Network, Node, Rows

MAGIC = "boxcert-net"
VERSION = 4

_MAGNITUDE = np.int64(2**63 - 1)  # every bit of a float64 but its sign


class NetworkFormatError(ValueError):
    """A network document violated the schema."""


def _parse_float(tok: str, where: str) -> float:
    try:
        value = float.fromhex(tok) if "x" in tok.lower() else float(tok)
    except (ValueError, OverflowError):  # fromhex overflows past the largest double
        raise NetworkFormatError(f"bad float literal {tok!r} in {where}") from None
    if not math.isfinite(value):
        raise NetworkFormatError(f"non-finite value {tok!r} in {where}")
    return value


def _digit_runs(tok: str) -> bool:
    """Whether ``tok`` is runs of ASCII digits joined by single commas: no sign, ``_`` or other script."""
    return tok.isascii() and tok.replace(",", "").isdigit() and ",," not in tok and tok[0] != "," != tok[-1]


def _read_lists(where: str, lists: list[str], values: np.ndarray) -> Node:
    """The node of a version-4 affine line, from its five integer lists (``-`` for an empty one).

    Each list is checked to be digit runs before one ``np.fromstring`` call
    reads them all, so that no numpy version takes a partial read for a whole
    one, and the element count is checked after. A number past the int64
    range reads as the largest int64, which no predecessor, count, column or
    index check accepts.
    """
    for tok in lists:
        if tok != "-" and not _digit_runs(tok):
            raise ValueError(f"{tok!r} is not comma-separated integers or -")
    sizes = [0 if tok == "-" else tok.count(",") + 1 for tok in lists]
    text = ",".join([tok for tok in lists if tok != "-"])
    ints = np.fromstring(text, dtype=np.intp, sep=",") if text else np.empty(0, dtype=np.intp)
    if ints.size != sum(sizes):
        raise ValueError(f"read {ints.size} of the {sum(sizes)} integers in {' '.join(lists)!r}")
    ints.setflags(write=False)
    p, a, b, c = accumulate(sizes[:4])  # preds, counts, bias indices, columns, weight indices
    if ints[a:b].max(initial=-1) >= len(values) or ints[c:].max(initial=-1) >= len(values):
        raise NetworkFormatError(f"{where}: value index out of range for {len(values)} values")
    bias, weights = values[ints[a:b]], values[ints[c:]]
    bias.setflags(write=False)
    weights.setflags(write=False)
    return Node("affine", tuple(ints[:p].tolist()), weights=Rows(ints[p:a], ints[b:c], weights), bias=bias)


def _ints_text(values: np.ndarray) -> str:
    return ",".join(map(str, values.tolist())) or "-"


def _distinct_floats(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct floats of ``values`` by bit pattern, ascending with ``-0.0`` before ``0.0``, and each one's index.

    Flipping the magnitude bits of a negative float makes the int64 order of
    the bit patterns the order of the floats.
    """
    bits = values.view(np.int64)
    keys = bits ^ ((bits >> 63) & _MAGNITUDE)
    table = np.array(sorted(set(keys.tolist())), dtype=np.int64)
    return (table ^ ((table >> 63) & _MAGNITUDE)).view(np.float64), np.searchsorted(table, keys)


def serialize(net: Network) -> str:
    lines = [f"{MAGIC} {VERSION}", f"input_dim {net.input_dim}", f"output {net.output}"]
    for key, value in net.metadata.items():
        lines.append(f"meta {key} {value}")
    affine = [node for node in net.nodes if node.kind == "affine"]
    terms = []  # per affine node, its counts, columns and weights without zero terms
    for rows in [node.weights for node in affine]:
        keep = rows.values != 0.0
        if keep.all():
            terms.append((rows.counts, rows.columns, rows.values))
        else:
            row = np.arange(len(rows)).repeat(rows.counts)[keep]
            terms.append((np.bincount(row, minlength=len(rows)), rows.columns[keep], rows.values[keep]))
    if affine:
        floats = [node.bias for node in affine] + [weights for _, _, weights in terms]
        table, index = _distinct_floats(np.concatenate(floats))
        lines.append("values " + " ".join(map(float.hex, table.tolist())))
        bounds = [0, *accumulate(map(len, floats))]
        refs = [_ints_text(index[a:b]) for a, b in zip(bounds, bounds[1:])]  # every bias list, then every weight list
        lists = iter(
            f"{_ints_text(counts)} {bias} {_ints_text(columns)} {weights}"
            for (counts, columns, _), bias, weights in zip(terms, refs, refs[len(affine) :])
        )
    for i, node in enumerate(net.nodes):
        if node.kind == "input":
            lines.append(f"node {i} input {i}")
        elif node.kind == "affine":
            lines.append(f"node {i} affine {','.join(map(str, node.preds))} {next(lists)}")
        else:
            lines.append(f"node {i} relu {node.preds[0]}")
    return "\n".join(lines) + "\n"


def _digits(tok: str) -> int:
    """An input index, relu operand or directive value: one run of ASCII digits."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"{tok!r} is not a run of ASCII digits")
    return int(tok)


def _parse_node(k: int, kind: str, rest: list[str], values: np.ndarray | None) -> Node:
    """The node of a line ``node k <kind> <rest>``, with ``values`` the table of the values line read so far."""
    if kind == "input":
        if len(rest) != 1:
            raise NetworkFormatError(f"node {k}: input takes one index")
        if rest[0] != str(k):
            _digits(rest[0])  # a token that is no digit run makes the line malformed, as in any node line
            raise NetworkFormatError(f"node {k}: an input line reads 'node {k} input {k}', not index {rest[0]}")
        return Node("input")
    if kind == "affine":
        if len(rest) != 5:
            raise NetworkFormatError(
                f"node {k}: affine takes preds, term counts, bias indices, columns and weight indices"
            )
        if values is None:
            raise NetworkFormatError(f"node {k}: affine node before the values line")
        return _read_lists(f"node {k}", rest, values)
    if kind == "relu":
        if len(rest) != 1:
            raise NetworkFormatError(f"node {k}: relu takes one predecessor")
        return Node("relu", (_digits(rest[0]),))
    raise NetworkFormatError(f"node {k}: unknown node kind {kind!r}")


def _directive_int(parts: list[str]) -> int:
    """The one integer value of an ``input_dim`` or ``output`` line."""
    if len(parts) != 2:
        raise NetworkFormatError(f"{parts[0]} takes exactly one value, got {len(parts) - 1}")
    try:
        return _digits(parts[1])
    except ValueError as exc:
        raise NetworkFormatError(f"{parts[0]} value {exc}") from None


def deserialize(text: str) -> Network:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise NetworkFormatError("empty document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC:
        raise NetworkFormatError(f"missing magic line, expected '{MAGIC} <version>'")
    if head[1] != str(VERSION):
        raise NetworkFormatError(f"unsupported schema version {head[1]}")

    input_dim: int | None = None
    output: int | None = None
    metadata: dict[str, str] = {}
    nodes: list[Node] = []
    values: np.ndarray | None = None

    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "node":
            if len(parts) < 3:
                raise NetworkFormatError(f"malformed node line: {ln!r}")
            try:
                if parts[1] != str(len(nodes)):
                    raise ValueError(f"expected node id {len(nodes)}, got {parts[1]!r}")
                nodes.append(_parse_node(len(nodes), parts[2], parts[3:], values))
            except NetworkFormatError:
                raise
            except ValueError as exc:  # an id out of order, or a token that is not a digit run
                raise NetworkFormatError(f"malformed node line {ln!r}: {exc}") from None
        elif parts[0] == "values":
            if values is not None:
                raise NetworkFormatError("duplicate values line")
            values = np.array([_parse_float(tok, "the values line") for tok in parts[1:]])
        elif parts[0] == "input_dim":
            input_dim = _directive_int(parts)
        elif parts[0] == "output":
            output = _directive_int(parts)
        elif parts[0] == "meta":
            if len(parts) < 2:
                raise NetworkFormatError("meta line needs a key")
            metadata[parts[1]] = ln.split(None, 2)[2] if len(parts) > 2 else ""
        else:
            raise NetworkFormatError(f"unknown directive {parts[0]!r}")

    if input_dim is None:
        raise NetworkFormatError("missing input_dim")
    if not nodes:
        raise NetworkFormatError("no output node (document defines no nodes)")
    if output is None:
        raise NetworkFormatError("no output node")
    try:
        return Network(tuple(nodes), output, input_dim, metadata)
    except ValueError as exc:  # a predecessor at or after its user, an undefined output, bad rows
        raise NetworkFormatError(f"invalid network document: {exc}") from exc


def format_box_text(box: BoxRegion, hex_floats: bool = True) -> str:
    """Render a box as ``lo,hi;lo,hi`` with one pair per dimension."""
    fmt = (lambda v: float(v).hex()) if hex_floats else repr
    return ";".join(f"{fmt(b.lo)},{fmt(b.hi)}" for b in box.bounds)


def parse_box_text(text: str) -> BoxRegion:
    """Parse ``lo,hi;lo,hi`` with decimal or hex float endpoints."""
    pairs = []
    for part in text.split(";"):
        pieces = part.split(",")
        if len(pieces) != 2:
            raise ValueError(f"each dimension needs 'lo,hi', got {part!r}")
        lo = _parse_float(pieces[0].strip(), "box text")
        hi = _parse_float(pieces[1].strip(), "box text")
        pairs.append((lo, hi))
    return BoxRegion.from_pairs(pairs)


def save(net: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(net))


def load(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return deserialize(fh.read())
