"""DAG intermediate representation for ReLU networks, and its one evaluator.

A network is a tuple of nodes stored in one fixed topological order (a node's
predecessors are always earlier in the tuple, so positions double as ids).

On first evaluation a network is lowered once into a levelled array program
(``Network.program``). Each non-concat node owns a contiguous range of columns
in one float64 buffer of shape ``(boxes, 2, columns)`` holding the lower and
upper ends of every box; concat nodes are column index lists only. A node's
level is one more than its deepest predecessor's (concat nodes add none), and
the affine rows, relus and sums of one level each run as one array stage over
all boxes at once. ``eval_abstract_many`` runs the program; ``eval_abstract``
is its one-box case and ``eval_concrete`` its point-box case.

The stages repeat the scalar interval transformers (``iv_affine_row``,
``iv_add`` and ``iv_relu`` in ``tests/helpers.py``) bit for bit, so a point box
propagates to exactly the concrete value:

* an affine row adds its nonzero terms in stored order to ``+0.0`` and the bias
  last, taking a term's lower end from the upper input end when the weight is
  negative (no matrix product, whose summation order is unspecified);
* a sum adds its predecessors left to right;
* a relu maps ``t`` to ``t if t > 0.0 else 0.0``, which is ``max(0.0, t)``.

The test suite keeps the per-node ``Interval`` walk as the reference. As in
that walk, a value anywhere in the network that leaves the finite doubles
raises ``ValueError``.

Networks are immutable after construction and evaluation is pure (each call
owns its buffer), so instances can be shared freely across threads. A
``NetworkBuilder`` appends nodes and constructs its network once, in ``finish``.
It merges bit-identical nodes: an append that repeats an earlier node (same
kind, predecessors and input index, same float bits in weights and bias)
returns the earlier id. A merged node propagates exactly as its copy would, so
intervals are unchanged and only the node list shrinks. ``Network`` itself
takes its nodes as given, so documents load exactly as written.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .intervals import BoxRegion, Interval

KINDS = ("input", "affine", "relu", "sum", "concat")


@dataclass(frozen=True, slots=True)
class Node:
    """One DAG node. ``preds`` are positions of earlier nodes in the network."""

    kind: str
    preds: tuple[int, ...] = ()
    index: int = -1  # input coordinate, for kind == "input"
    weights: tuple[tuple[float, ...], ...] = ()
    bias: tuple[float, ...] = ()


def input_node(index: int) -> Node:
    return Node("input", index=index)


def affine_node(pred: int, weights: Sequence[Sequence[float]], bias: Sequence[float]) -> Node:
    w = tuple([tuple(map(float, row)) for row in weights])
    return Node("affine", preds=(pred,), weights=w, bias=tuple(map(float, bias)))


def relu_node(pred: int) -> Node:
    return Node("relu", preds=(pred,))


def sum_node(preds: Sequence[int]) -> Node:
    return Node("sum", preds=tuple(preds))


def concat_node(preds: Sequence[int]) -> Node:
    return Node("concat", preds=tuple(preds))


@dataclass(frozen=True)
class Network:
    """A validated DAG with a designated output node and stored topological order."""

    nodes: tuple[Node, ...]
    output: int
    input_dim: int
    metadata: dict[str, str] = field(default_factory=dict)
    arities: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "arities", _validate(self.nodes, self.output, self.input_dim))

    @property
    def output_dim(self) -> int:
        return self.arities[self.output]

    def arity(self, node_id: int) -> int:
        return self.arities[node_id]

    @functools.cached_property
    def program(self) -> Program:
        """The levelled array program, compiled when the network is first evaluated."""
        return _compile(self)


def _validate(nodes: tuple[Node, ...], output: int, input_dim: int) -> tuple[int, ...]:
    if not nodes:
        raise ValueError("network has no nodes")
    if not 0 <= output < len(nodes):
        raise ValueError(f"output node {output} is not defined")
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    arities: list[int] = []
    seen_inputs: dict[int, int] = {}
    for i, node in enumerate(nodes):
        for p in node.preds:
            if not 0 <= p < i:
                raise ValueError(f"node {i} must come after its predecessor {p}")
        if node.kind == "input":
            if not 0 <= node.index < input_dim:
                raise ValueError(f"node {i}: input index {node.index} out of range for dim {input_dim}")
            if node.index in seen_inputs:
                raise ValueError(f"node {i}: input index {node.index} already used by node {seen_inputs[node.index]}")
            seen_inputs[node.index] = i
            arities.append(1)
        elif node.kind == "affine":
            if len(node.preds) != 1:
                raise ValueError(f"node {i}: affine takes exactly one predecessor")
            rows = len(node.weights)
            if rows == 0 or len(node.bias) != rows:
                raise ValueError(f"node {i}: affine needs matching weight rows and bias entries")
            cols = arities[node.preds[0]]
            for row in node.weights:
                if len(row) != cols:
                    raise ValueError(f"node {i}: affine row width {len(row)} != predecessor arity {cols}")
            arities.append(rows)
        elif node.kind == "relu":
            if len(node.preds) != 1:
                raise ValueError(f"node {i}: relu takes exactly one predecessor")
            arities.append(arities[node.preds[0]])
        elif node.kind == "sum":
            if len(node.preds) < 2:
                raise ValueError(f"node {i}: sum needs at least two predecessors")
            widths = {arities[p] for p in node.preds}
            if len(widths) != 1:
                raise ValueError(f"node {i}: sum predecessors disagree on arity: {sorted(widths)}")
            arities.append(widths.pop())
        elif node.kind == "concat":
            if not node.preds:
                raise ValueError(f"node {i}: concat needs at least one predecessor")
            arities.append(sum(arities[p] for p in node.preds))
        else:
            raise ValueError(f"node {i}: unknown kind {node.kind!r}")
    if len(seen_inputs) != input_dim:
        missing = sorted(set(range(input_dim)) - set(seen_inputs))
        raise ValueError(f"missing input nodes for indices {missing}")
    return tuple(arities)


class _AffineStage(NamedTuple):
    """The affine rows of one level, written to columns ``[start, stop)``."""

    start: int
    stop: int
    src: np.ndarray  # (terms, 2, rows): flat buffer index of each term's lower and upper source
    weights: np.ndarray  # (terms, 1, rows)
    bias: np.ndarray  # (rows,)

    def run(self, x: np.ndarray) -> None:
        terms = x.reshape(x.shape[0], -1).take(self.src, axis=1)
        terms *= self.weights
        acc = terms[:, 0]
        acc += 0.0  # each row starts from +0.0: 0.0 + w * x
        for k in range(1, terms.shape[1]):
            acc += terms[:, k]
        np.add(acc, self.bias, out=x[:, :, self.start : self.stop])


class _SumStage(NamedTuple):
    """The sum nodes of one level: each output column adds its source columns in order."""

    start: int
    stop: int
    src: np.ndarray  # (terms, columns)

    def run(self, x: np.ndarray) -> None:
        terms = x.take(self.src, axis=2)
        acc = terms[:, :, 0]
        for k in range(1, terms.shape[2]):
            acc += terms[:, :, k]
        x[:, :, self.start : self.stop] = acc


class _ReluStage(NamedTuple):
    """The relu nodes of one level."""

    start: int
    stop: int
    src: np.ndarray  # (columns,)

    def run(self, x: np.ndarray) -> None:
        pre = x.take(self.src, axis=2)
        x[:, :, self.start : self.stop] = np.where(pre > 0.0, pre, 0.0)


class Program(NamedTuple):
    """A network lowered to levelled array stages over one ``(boxes, 2, columns)`` buffer.

    Column ``k < input_dim`` holds input ``k``. The last column holds ``-0.0``,
    the identity of IEEE addition, which pads rows and sums shorter than the
    longest of their stage. Affine stages index the buffer flattened to
    ``(boxes, 2 * columns)``: the lower end of column ``c`` at ``c``, the upper
    end at ``columns + c``.
    """

    input_dim: int
    columns: int
    stages: tuple[_AffineStage | _SumStage | _ReluStage, ...]
    output: np.ndarray  # the output node's columns

    def run(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate the boxes ``[lo[b], hi[b]]`` (each of shape ``(boxes, input_dim)``)."""
        x = np.empty((lo.shape[0], 2, self.columns))
        x[:, 0, : self.input_dim] = lo
        x[:, 1, : self.input_dim] = hi
        x[:, :, -1] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for stage in self.stages:
                stage.run(x)
        if not np.isfinite(x).all():
            raise ValueError(
                "interval endpoints must be finite; propagation produced a non-finite value"
            )
        out = x.take(self.output, axis=2)
        return out[:, 0], out[:, 1]


def _compile(net: Network) -> Program:
    nodes = net.nodes
    arities = net.arities
    level = [0] * len(nodes)
    groups: dict[tuple[int, str], list[int]] = {}
    for i, node in enumerate(nodes):
        kind = node.kind
        if kind == "input":
            continue
        preds = node.preds
        top = level[preds[0]] if len(preds) == 1 else max(level[p] for p in preds)
        if kind == "concat":
            level[i] = top
        else:
            level[i] = top + 1
            groups.setdefault((top + 1, kind), []).append(i)
    keys = sorted(groups)

    # Columns: inputs first, then each stage's nodes in a contiguous block.
    cols: list[Sequence[int]] = [()] * len(nodes)
    spans = []
    nxt = net.input_dim
    for key in keys:
        start = nxt
        for i in groups[key]:
            cols[i] = range(nxt, nxt + arities[i])
            nxt += arities[i]
        spans.append((start, nxt))
    for i, node in enumerate(nodes):
        if node.kind == "input":
            cols[i] = (node.index,)
        elif node.kind == "concat":
            cols[i] = [c for p in node.preds for c in cols[p]]
    pad = nxt  # the -0.0 column
    columns = nxt + 1

    stages: list[_AffineStage | _SumStage | _ReluStage] = []
    for key, (start, stop) in zip(keys, spans):
        kind = key[1]
        members = [nodes[i] for i in groups[key]]
        if kind == "relu":
            src = [c for node in members for c in cols[node.preds[0]]]
            stages.append(_ReluStage(start, stop, np.array(src, dtype=np.intp)))
        elif kind == "sum":
            rows = [t for node in members for t in zip(*(cols[p] for p in node.preds))]
            depth = max(len(r) for r in rows)
            src = [r + (pad,) * (depth - len(r)) for r in rows]
            stages.append(_SumStage(start, stop, np.array(src, dtype=np.intp).T.copy()))
        else:
            flat_w: list[float] = []
            flat_c: list[int] = []
            widths: list[int] = []
            bias: list[float] = []
            for node in members:
                pred_cols = cols[node.preds[0]]
                for row in node.weights:
                    flat_w.extend(row)
                    flat_c.extend(pred_cols)
                widths.extend([len(pred_cols)] * len(node.bias))
                bias.extend(node.bias)
            w = np.array(flat_w)
            keep = w != 0.0
            w = w[keep]
            c = np.array(flat_c, dtype=np.intp)[keep]
            row = np.repeat(np.arange(len(bias)), widths)[keep]
            k = np.arange(row.size) - np.searchsorted(row, row)  # term's place in its row
            depth = int(k.max()) + 1 if k.size else 1
            w_table = np.ones((depth, len(bias)))  # a pad term is 1.0 * -0.0
            w_table[k, row] = w
            c_table = np.full((depth, len(bias)), pad, dtype=np.intp)
            c_table[k, row] = c
            # A negative weight takes a term's lower end from the upper input end.
            pos = w_table > 0.0
            lo_src = np.where(pos, c_table, c_table + columns)
            hi_src = np.where(pos, c_table + columns, c_table)
            src = np.stack([lo_src, hi_src], axis=1)
            stages.append(_AffineStage(start, stop, src, w_table[:, None, :], np.array(bias)))
    return Program(net.input_dim, columns, tuple(stages), np.array(cols[net.output], dtype=np.intp))


def eval_abstract_many(net: Network, boxes: Sequence[BoxRegion]) -> list[BoxRegion]:
    """Propagate every box through the compiled program in one batched call."""
    if not boxes:
        return []
    for box in boxes:
        if box.dim != net.input_dim:
            raise ValueError(f"expected a {net.input_dim}-d box, got {box.dim}-d")
    bounds = np.array([[(b.lo, b.hi) for b in box.bounds] for box in boxes])
    lo, hi = net.program.run(bounds[:, :, 0], bounds[:, :, 1])
    return [
        BoxRegion(tuple(Interval(a, b) for a, b in zip(row_lo, row_hi)))
        for row_lo, row_hi in zip(lo.tolist(), hi.tolist())
    ]


def eval_abstract(net: Network, box: BoxRegion) -> BoxRegion:
    """Propagate one box: the one-box case of ``eval_abstract_many``."""
    return eval_abstract_many(net, [box])[0]


def eval_concrete(net: Network, x: Sequence[float]) -> tuple[float, ...]:
    """Evaluate the network at a point: the lower end of the point box ``[x, x]``."""
    if len(x) != net.input_dim:
        raise ValueError(f"expected {net.input_dim} inputs, got {len(x)}")
    point = np.array([x], dtype=float)
    lo, _ = net.program.run(point, point)
    return tuple(lo[0].tolist())


def stats(net: Network) -> dict[str, int]:
    """Flat counts: nodes, ReLU units, parameters, and longest path to the output."""
    relus = sum(net.arity(i) for i, n in enumerate(net.nodes) if n.kind == "relu")
    params = sum(
        len(n.weights) * len(n.weights[0]) + len(n.bias) for n in net.nodes if n.kind == "affine"
    )
    depth = [0] * len(net.nodes)
    for i, n in enumerate(net.nodes):
        if n.kind != "input":
            depth[i] = 1 + max((depth[p] for p in n.preds), default=0)
    return {
        "node_count": len(net.nodes),
        "relu_count": relus,
        "param_count": params,
        "depth": depth[net.output],
    }


def _float_bits(node: Node) -> bytes:
    """The IEEE bytes of an affine node's bias and weights, which tell ``-0.0`` from ``0.0``."""
    values = (*node.bias, *chain.from_iterable(node.weights))
    return struct.pack(f"{len(values)}d", *values)


class NetworkBuilder:
    """Appends nodes in topological order, assigns positions as ids, and merges repeats."""

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self._nodes: list[Node] = [input_node(i) for i in range(input_dim)]
        self._arities: list[int] = [1] * input_dim
        self._ids: dict[Node, int] = {node: i for i, node in enumerate(self._nodes)}
        # Nodes equal to an indexed one but for the sign of a zero, keyed by their bits.
        self._signed_zero_ids: dict[tuple[Node, bytes], int] = {}

    def input_id(self, index: int) -> int:
        return index

    @property
    def input_ids(self) -> list[int]:
        return list(range(self.input_dim))

    def arity(self, node_id: int) -> int:
        return self._arities[node_id]

    def _append(self, node: Node, arity: int) -> int:
        new = len(self._nodes)
        found = self._ids.setdefault(node, new)
        # Equal floats can still differ in bits: 0.0 == -0.0, and both hash alike.
        if found < new and node.kind == "affine" and _float_bits(node) != _float_bits(self._nodes[found]):
            found = self._signed_zero_ids.setdefault((node, _float_bits(node)), new)
        if found < new:
            return found
        self._nodes.append(node)
        self._arities.append(arity)
        return new

    def affine(self, pred: int, weights: Sequence[Sequence[float]], bias: Sequence[float]) -> int:
        node = affine_node(pred, weights, bias)
        return self._append(node, len(node.weights))

    def relu(self, pred: int) -> int:
        return self._append(relu_node(pred), self._arities[pred])

    def sum(self, preds: Sequence[int]) -> int:
        widths = {self._arities[p] for p in preds}
        if len(widths) != 1:
            raise ValueError(f"sum predecessors disagree on arity: {sorted(widths)}")
        return self._append(sum_node(preds), self._arities[preds[0]])

    def concat(self, preds: Sequence[int]) -> int:
        return self._append(concat_node(preds), sum(self._arities[p] for p in preds))

    def finish(self, output: int, metadata: dict[str, str] | None = None) -> Network:
        return Network(tuple(self._nodes), output, self.input_dim, dict(metadata or {}))
