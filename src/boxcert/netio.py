"""Text document format for networks: versioned, line-oriented, bit-exact.

Layout::

    boxcert-net 1
    input_dim 2
    output 7
    meta delta 0x1.999999999999ap-2
    node 0 input 0
    node 1 input 1
    node 2 concat 0 1
    node 3 affine 2 1 2 0x0p+0 0x1p+0 -0x1p+0
    node 7 relu 3

Affine lines carry ``<pred> <rows> <cols>`` followed by ``rows`` bias entries
and ``rows*cols`` row-major weights. The writer always emits hex floats, the
bit-exact canonical form; the reader also accepts decimal literals. Node ids in
a document are arbitrary integers, but the line order must be topological; the
loader reports cycles and forward references separately, each with the node id.
"""

from __future__ import annotations

import math

from .intervals import BoxRegion
from .network import Network, Node

MAGIC = "boxcert-net"
VERSION = 1


class NetworkFormatError(ValueError):
    """A network document violated the schema."""


def _fmt(x: float) -> str:
    return float(x).hex()


def _parse_float(tok: str, where: str) -> float:
    try:
        value = float.fromhex(tok) if "x" in tok.lower() else float(tok)
    except ValueError:
        raise NetworkFormatError(f"bad float literal {tok!r} in {where}") from None
    if not math.isfinite(value):
        raise NetworkFormatError(f"non-finite value {tok!r} in {where}")
    return value


def serialize(net: Network) -> str:
    lines = [f"{MAGIC} {VERSION}", f"input_dim {net.input_dim}", f"output {net.output}"]
    for key, value in net.metadata.items():
        lines.append(f"meta {key} {value}")
    for i, node in enumerate(net.nodes):
        if node.kind == "input":
            lines.append(f"node {i} input {node.index}")
        elif node.kind == "affine":
            rows = len(node.weights)
            cols = len(node.weights[0])
            toks = [_fmt(b) for b in node.bias]
            for row in node.weights:
                toks.extend(_fmt(w) for w in row)
            lines.append(f"node {i} affine {node.preds[0]} {rows} {cols} " + " ".join(toks))
        else:
            lines.append(f"node {i} {node.kind} " + " ".join(str(p) for p in node.preds))
    return "\n".join(lines) + "\n"


def _parse_node(node_id: int, kind: str, rest: list[str]) -> tuple:
    """A node line's ``Node`` fields, with the predecessor ids as written in the document."""
    where = f"node {node_id}"
    if kind == "input":
        if len(rest) != 1:
            raise NetworkFormatError(f"{where}: input takes one index")
        return "input", (), int(rest[0]), (), ()
    if kind == "affine":
        if len(rest) < 3:
            raise NetworkFormatError(f"{where}: affine needs pred, rows, cols")
        pred, rows, cols = int(rest[0]), int(rest[1]), int(rest[2])
        if rows < 1 or cols < 1:
            raise NetworkFormatError(f"{where}: affine rows and cols must be positive")
        vals = rest[3:]
        if len(vals) != rows + rows * cols:
            raise NetworkFormatError(
                f"{where}: affine expects {rows + rows * cols} numbers, got {len(vals)}"
            )
        nums = [_parse_float(t, where) for t in vals]
        weights = tuple([tuple(nums[r : r + cols]) for r in range(rows, len(nums), cols)])
        return "affine", (pred,), -1, weights, tuple(nums[:rows])
    if kind == "relu":
        if len(rest) != 1:
            raise NetworkFormatError(f"{where}: relu takes one predecessor")
        return "relu", (int(rest[0]),), -1, (), ()
    if kind == "sum":
        if len(rest) < 2:
            raise NetworkFormatError(f"{where}: sum needs at least two predecessors")
        return "sum", tuple([int(t) for t in rest]), -1, (), ()
    if kind == "concat":
        if not rest:
            raise NetworkFormatError(f"{where}: concat needs at least one predecessor")
        return "concat", tuple([int(t) for t in rest]), -1, (), ()
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
    if head[1] != str(VERSION):
        raise NetworkFormatError(f"unsupported schema version {head[1]}")

    input_dim: int | None = None
    output_id: int | None = None
    metadata: dict[str, str] = {}
    preds_of: dict[int, tuple[int, ...]] = {}  # node id -> predecessor ids, in line order
    position: dict[int, int] = {}  # node id -> index in the network
    nodes: list[Node] = []
    in_order = True  # every predecessor so far was listed before its user

    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "node":
            if len(parts) < 3:
                raise NetworkFormatError(f"malformed node line: {ln!r}")
            try:
                node_id = int(parts[1])
                if node_id in preds_of:
                    raise NetworkFormatError(f"duplicate node id {node_id}")
                kind, preds, index, weights, bias = _parse_node(node_id, parts[2], parts[3:])
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
                    nodes.append(Node(kind, pred_positions, index, weights, bias))
            position[node_id] = len(position)
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
    try:
        return Network(tuple(nodes), position[output_id], input_dim, metadata)
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
