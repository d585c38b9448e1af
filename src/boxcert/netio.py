"""Text document format for networks: versioned, line-oriented, bit-exact.

Layout (version 4)::

    boxcert-net 4
    input_dim 2
    output 5
    meta delta 0x1.999999999999ap-2
    values -0x1.0000000000000p+0 0x0.0p+0 0x1.0000000000000p-1 0x1.0000000000000p+0
    node 0 input 0
    node 1 input 1
    node 2 affine 0,1 2,1 1,0 1,0,0 3,2,3
    node 5 relu 2

The ``values`` line lists each distinct bias and weight of the network once,
before the first affine line. An affine line then carries five
comma-separated integer lists (the last four of a line are read in one array
call):

* ``preds``, the predecessor ids whose outputs the node reads end to end;
* the term count of each row, one entry per row;
* each row's bias, as an index into ``values``;
* every row's term columns in turn, in summation order, each counted in the
  predecessors' outputs laid end to end;
* the weight of each of those terms, as an index into ``values``.

A list with no entries, as the columns and weights of a node whose rows have
no terms, is written ``-``. Only nonzero weights are written: a zero term
adds nothing to a row. The writer emits hex floats, the bit-exact canonical
form, in ascending order with ``-0.0`` before ``0.0``; the reader also accepts
decimal literals. Node ids in a document are arbitrary integers, but the line
order must be topological; the loader reports cycles and forward references
separately, each with the node id.

Versions 2 and 3 still load, into the same arrays (``network.Rows``). A
version-3 affine line carries ``<preds> <terms>``, the comma-separated term
count of each row, then one bias per row and each row's terms in turn as
``column:weight``, every float written out. A version-2 affine line carries
``<preds> <rows> <cols>`` followed by ``rows`` bias entries and
``rows*cols`` row-major weights, read as dense rows of which the nonzero
weights are kept. Version 1, whose ``sum`` and ``concat`` nodes were folded
into affine nodes, is no longer read.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .intervals import BoxRegion
from .network import Network, Node, Rows

MAGIC = "boxcert-net"
VERSION = 4
VERSIONS = ("2", "3", "4")

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


def _parse_term(tok: str, where: str) -> tuple[int, float]:
    col, sep, weight = tok.partition(":")
    if not sep:
        raise NetworkFormatError(f"bad term {tok!r} in {where}: expected column:weight")
    try:
        column = int(col)
    except ValueError:
        raise NetworkFormatError(f"bad term column {col!r} in {where}") from None
    return column, _parse_float(weight, where)


def _read_lists(where: str, lists: list[str], values: np.ndarray) -> dict:
    """The ``weights`` and ``bias`` of a version-4 affine line, from its four integer lists (``-`` for an empty one).

    The lists' join is checked to be digit runs joined by single commas
    before one ``np.fromstring`` call reads it, so that no numpy version takes
    a partial read for a whole one, and the element count is checked after.
    A number past the int64 range reads as the largest int64, which no count,
    column or index check accepts.
    """
    sizes = [0 if tok == "-" else tok.count(",") + 1 for tok in lists]
    text = ",".join([tok for tok in lists if tok != "-"])
    well_formed = not text or (
        text.isascii() and text.replace(",", "").isdigit() and ",," not in text and text[0] != "," != text[-1]
    )
    ints = np.fromstring(text, dtype=np.intp, sep=",") if text and well_formed else np.empty(0, dtype=np.intp)
    if not well_formed or ints.size != sum(sizes):
        raise NetworkFormatError(f"{where}: affine lists {' '.join(lists)!r} are not comma-separated integers or -")
    ints.setflags(write=False)
    a, b, c = accumulate(sizes[:3])  # counts, bias indices, columns, weight indices
    if ints[a:b].max(initial=-1) >= len(values) or ints[c:].max(initial=-1) >= len(values):
        raise NetworkFormatError(f"{where}: value index out of range for {len(values)} values")
    bias, weights = values[ints[a:b]], values[ints[c:]]
    bias.setflags(write=False)
    weights.setflags(write=False)
    return {"weights": Rows(ints[:a], ints[b:c], weights), "bias": bias}


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
            lines.append(f"node {i} input {node.index}")
        elif node.kind == "affine":
            lines.append(f"node {i} affine {','.join(map(str, node.preds))} {next(lists)}")
        else:
            lines.append(f"node {i} relu {node.preds[0]}")
    return "\n".join(lines) + "\n"


def _parse_affine(where: str, rest: list[str], version: int) -> tuple:
    """A version-2 or version-3 affine line's predecessor ids as written, its rows and its biases."""
    if version == 3:
        if len(rest) < 2:
            raise NetworkFormatError(f"{where}: affine needs preds and term counts")
        preds, counts = tuple(map(int, rest[0].split(","))), [int(t) for t in rest[1].split(",")]
        if min(counts) < 0:
            raise NetworkFormatError(f"{where}: affine term counts must not be negative")
        rows, vals = len(counts), rest[2:]
        if len(vals) != rows + sum(counts):
            raise NetworkFormatError(
                f"{where}: affine expects {rows} biases and {sum(counts)} terms, got {len(vals)} values"
            )
        terms = [_parse_term(t, where) for t in vals[rows:]]
        bias = [_parse_float(t, where) for t in vals[:rows]]
        return preds, Rows(counts, [c for c, _ in terms], [w for _, w in terms]), bias
    if len(rest) < 3:
        raise NetworkFormatError(f"{where}: affine needs preds, rows, cols")
    preds, rows, cols = tuple(map(int, rest[0].split(","))), int(rest[1]), int(rest[2])
    if rows < 1 or cols < 1:
        raise NetworkFormatError(f"{where}: affine rows and cols must be positive")
    vals = rest[3:]
    if len(vals) != rows + rows * cols:
        raise NetworkFormatError(f"{where}: affine expects {rows + rows * cols} numbers, got {len(vals)}")
    nums = np.array([_parse_float(t, where) for t in vals])
    dense = nums[rows:].reshape(rows, cols)
    keep = dense != 0.0  # dense rows keep their nonzero weights, as a version-3 writer did
    return preds, Rows(keep.sum(axis=1), keep.nonzero()[1], dense[keep]), nums[:rows]


def _parse_node(node_id: int, kind: str, rest: list[str], version: int, values: np.ndarray | None) -> tuple:
    """A node line's kind, its predecessor ids as written in the document, and its other ``Node`` fields."""
    where = f"node {node_id}"
    if kind == "input":
        if len(rest) != 1:
            raise NetworkFormatError(f"{where}: input takes one index")
        return "input", (), {"index": int(rest[0])}
    if kind == "affine" and version == 4:
        if len(rest) != 5:
            raise NetworkFormatError(
                f"{where}: affine takes preds, term counts, bias indices, columns and weight indices"
            )
        if values is None:
            raise NetworkFormatError(f"{where}: affine node before the values line")
        return "affine", tuple(map(int, rest[0].split(","))), _read_lists(where, rest[1:], values)
    if kind == "affine":
        preds, rows, bias = _parse_affine(where, rest, version)
        return "affine", preds, {"weights": rows, "bias": bias}
    if kind == "relu":
        if len(rest) != 1:
            raise NetworkFormatError(f"{where}: relu takes one predecessor")
        return "relu", (int(rest[0]),), {}
    raise NetworkFormatError(f"{where}: unknown node kind {kind!r}")


def _directive_int(parts: list[str]) -> int:
    """The one integer value of an ``input_dim`` or ``output`` line."""
    if len(parts) != 2:
        raise NetworkFormatError(f"{parts[0]} takes exactly one value, got {len(parts) - 1}")
    try:
        return int(parts[1])
    except ValueError:
        raise NetworkFormatError(f"{parts[0]} value {parts[1]!r} is not an integer") from None


def deserialize(text: str) -> Network:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise NetworkFormatError("empty document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != MAGIC:
        raise NetworkFormatError(f"missing magic line, expected '{MAGIC} <version>'")
    if head[1] not in VERSIONS:
        raise NetworkFormatError(f"unsupported schema version {head[1]}")
    version = int(head[1])

    input_dim: int | None = None
    output_id: int | None = None
    metadata: dict[str, str] = {}
    preds_of: dict[int, tuple[int, ...]] = {}  # node id -> predecessor ids, in line order
    position: dict[int, int] = {}  # node id -> index in the network
    records: list[tuple] = []  # per node: its kind, predecessor positions and other fields
    in_order = True  # every predecessor so far was listed before its user
    values: np.ndarray | None = None  # the version-4 value table

    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "node":
            if len(parts) < 3:
                raise NetworkFormatError(f"malformed node line: {ln!r}")
            try:
                node_id = int(parts[1])
                if node_id in preds_of:
                    raise NetworkFormatError(f"duplicate node id {node_id}")
                kind, preds, fields = _parse_node(node_id, parts[2], parts[3:], version, values)
            except NetworkFormatError:
                raise
            except ValueError as exc:  # a non-integer node id, predecessor id, index or affine size
                raise NetworkFormatError(f"malformed node line {ln!r}: {exc}") from None
            preds_of[node_id] = preds
            if in_order:
                try:
                    pred_positions = tuple([position[p] for p in preds])
                except KeyError:
                    in_order = False
                else:
                    records.append((kind, pred_positions, fields))
            position[node_id] = len(position)
        elif parts[0] == "values" and version == 4:
            if values is not None:
                raise NetworkFormatError("duplicate values line")
            values = np.array([_parse_float(tok, "the values line") for tok in parts[1:]])
        elif parts[0] == "input_dim":
            input_dim = _directive_int(parts)
        elif parts[0] == "output":
            output_id = _directive_int(parts)
        elif parts[0] == "meta":
            if len(parts) < 2:
                raise NetworkFormatError("meta line needs a key")
            metadata[parts[1]] = ln.split(None, 2)[2] if len(parts) > 2 else ""
        else:
            raise NetworkFormatError(f"unknown directive {parts[0]!r}")

    if input_dim is None:
        raise NetworkFormatError("missing input_dim")
    if not preds_of:
        raise NetworkFormatError("no output node (document defines no nodes)")
    if output_id is None:
        raise NetworkFormatError("no output node")
    if output_id not in preds_of:
        raise NetworkFormatError(f"output references undefined node {output_id}")
    if not in_order:
        _reject_order(preds_of, position)
    output = position[output_id]
    try:
        nodes = tuple([Node(kind, preds, **fields) for kind, preds, fields in records])
        return Network(nodes, output, input_dim, metadata)
    except ValueError as exc:
        raise NetworkFormatError(f"invalid network document: {exc}") from exc


def _reject_order(preds_of: dict[int, tuple[int, ...]], position: dict[int, int]) -> None:
    """Name the first undefined predecessor, else the cycle or forward reference."""
    for node_id, preds in preds_of.items():
        for p in preds:
            if p not in preds_of:
                raise NetworkFormatError(f"node {node_id} references undefined node {p}")
    # Every predecessor listed earlier rules out a cycle; only an out-of-order
    # document needs the cycle search, which tells a cycle from a forward reference.
    for node_id, preds in preds_of.items():
        for p in preds:
            if position[p] >= position[node_id]:
                _reject_cycles(preds_of)
                raise NetworkFormatError(f"node {node_id} listed before predecessor {p}")


def _reject_cycles(preds_of: dict[int, tuple[int, ...]]) -> None:
    remaining = {node_id: set(preds) for node_id, preds in preds_of.items()}
    users: dict[int, list[int]] = {node_id: [] for node_id in preds_of}
    for node_id, preds in preds_of.items():
        for p in set(preds):
            users[p].append(node_id)
    ready = [n for n, deps in remaining.items() if not deps]
    done = 0
    while ready:
        n = ready.pop()
        done += 1
        for u in users[n]:
            remaining[u].discard(n)
            if not remaining[u]:
                ready.append(u)
    if done != len(preds_of):
        stuck = sorted(n for n, deps in remaining.items() if deps)
        raise NetworkFormatError(f"cycle involving node(s) {stuck}")


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
