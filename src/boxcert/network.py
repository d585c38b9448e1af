"""DAG intermediate representation for ReLU networks, and its one evaluator.

A network is a tuple of nodes stored in one fixed topological order (a node's
predecessors are always earlier in the tuple, so positions double as ids).
There are three node kinds: ``input``, ``affine`` and ``relu``. An affine node
reads its predecessors' outputs laid end to end, and each of its rows is a
sparse list of ``(column, weight)`` terms over those columns, summed in stored
order; a dense row, with a term for every column, is the special case. A relu
reads one predecessor.

On first evaluation a network is lowered once into a levelled array program
(``Network.program``). Each non-input node owns a contiguous range of columns
in one boxes-last float64 buffer of shape ``(2, columns, boxes)``: the lower
ends, then the upper ends, each column a contiguous row of boxes. A node's
level is one more than its deepest predecessor's, and the affine rows and
relus of one level each run as one array stage over all boxes of a pass.
``Program.run`` takes its boxes as ``lo``/``hi`` arrays, ``PASS_BOXES`` to a
pass, so the buffer's size does not grow with the box count.
``eval_abstract_many`` runs the program on ``BoxRegion``s; ``eval_abstract``
is its one-box case and ``eval_concrete`` its point-box case.

The stages repeat the scalar interval transformers (``iv_affine_row`` and
``iv_relu`` in ``tests/helpers.py``) bit for bit, so a point box propagates to
exactly the concrete value:

* an affine row adds its nonzero terms in stored order to ``+0.0`` and the bias
  last, taking a term's lower end from the upper input end when the weight is
  negative (no matrix product, whose summation order is unspecified);
* a relu maps ``t`` to ``t if t > 0.0 else 0.0``, which is ``max(0.0, t)``:
  ``np.maximum(t, 0.0)`` may keep ``-0.0``, so ``+0.0`` is added after it.

The test suite keeps the per-node ``Interval`` walk as the reference. As in
that walk, a value anywhere in the network that leaves the finite doubles
raises ``ValueError``.

Networks are immutable after construction and evaluation is pure (each call
owns its buffer), so instances can be shared freely across threads. A
``NetworkBuilder`` appends every node it is given and constructs its network
once, in ``finish``. ``Network`` takes its nodes as given, so documents load
exactly as written.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .intervals import BoxRegion, Interval

# Boxes per pass of ``Program.run``: each pass owns a ``(2, columns, PASS_BOXES)``
# float64 buffer, 3.6 MB on the 882 columns of the x0*x1 network at delta 0.1.
# Passes of 128 to 512 boxes propagate fastest on the served networks.
PASS_BOXES = 256


@dataclass(frozen=True, slots=True)
class Node:
    """One DAG node. ``preds`` are positions of earlier nodes in the network."""

    kind: str
    preds: tuple[int, ...] = ()
    index: int = -1  # input coordinate, for kind == "input"
    weights: tuple[tuple[tuple[int, float], ...], ...] = ()  # per row, its (column, weight) terms
    bias: tuple[float, ...] = ()


def input_node(index: int) -> Node:
    return Node("input", index=index)


def affine_node(preds: int | Sequence[int], weights: Sequence[Sequence[float]], bias: Sequence[float]) -> Node:
    """An affine node with dense rows over one predecessor or over several, read end to end."""
    return sparse_affine_node(preds, [enumerate(map(float, row)) for row in weights], bias)


def sparse_affine_node(
    preds: int | Sequence[int], rows: Sequence[Sequence[tuple[int, float]]], bias: Sequence[float]
) -> Node:
    """An affine node whose rows list their ``(column, weight)`` terms in summation order."""
    preds = (preds,) if isinstance(preds, int) else tuple(preds)
    return Node("affine", preds=preds, weights=tuple([tuple(row) for row in rows]), bias=tuple(map(float, bias)))


def relu_node(pred: int) -> Node:
    return Node("relu", preds=(pred,))


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
            if not node.preds:
                raise ValueError(f"node {i}: affine needs at least one predecessor")
            rows = len(node.weights)
            if rows == 0 or len(node.bias) != rows:
                raise ValueError(f"node {i}: affine needs matching weight rows and bias entries")
            cols = sum(arities[p] for p in node.preds)
            terms = list(chain.from_iterable(node.weights))
            # (column, weight) pairs order by column first
            if terms and not (0 <= min(terms)[0] and max(terms)[0] < cols):
                bad = next(c for c, _ in terms if not 0 <= c < cols)
                raise ValueError(f"node {i}: term column {bad} out of range for predecessor width {cols}")
            arities.append(rows)
        elif node.kind == "relu":
            if len(node.preds) != 1:
                raise ValueError(f"node {i}: relu takes exactly one predecessor")
            arities.append(arities[node.preds[0]])
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
    src: np.ndarray  # (terms, 2, rows): flat buffer row of each term's lower and upper source
    weights: np.ndarray  # (terms, 1, rows, 1)
    bias: np.ndarray  # (rows, 1)

    def run(self, x: np.ndarray) -> None:
        terms = x.reshape(-1, x.shape[2]).take(self.src, axis=0)
        terms *= self.weights
        acc = terms[0]
        acc += 0.0  # each row starts from +0.0: 0.0 + w * x
        for k in range(1, terms.shape[0]):
            acc += terms[k]
        np.add(acc, self.bias, out=x[:, self.start : self.stop])


class _ReluStage(NamedTuple):
    """The relu nodes of one level."""

    start: int
    stop: int
    src: np.ndarray | slice  # the columns they read; a slice when those are contiguous

    def run(self, x: np.ndarray) -> None:
        out = x[:, self.start : self.stop]
        np.maximum(x[:, self.src], 0.0, out=out)
        out += 0.0  # max(t, 0.0) may keep t = -0.0, and -0.0 + 0.0 is +0.0


class Program(NamedTuple):
    """A network lowered to levelled array stages over one ``(2, columns, boxes)`` buffer.

    The leading axis holds the lower and upper ends and the boxes run last, so
    every column is one contiguous row of boxes and a stage's gather copies
    whole rows. Column ``k < input_dim`` holds input ``k``. The last column
    holds ``-0.0``, the identity of IEEE addition, which pads rows shorter than
    the longest of their stage. Affine stages index the buffer flattened to
    ``(2 * columns, boxes)``: the lower end of column ``c`` at row ``c``, the
    upper end at row ``columns + c``.

    ``run`` takes the boxes ``PASS_BOXES`` at a time through one buffer, so its
    memory depends on the network and not on the box count.
    """

    input_dim: int
    columns: int
    stages: tuple[_AffineStage | _ReluStage, ...]
    output: np.ndarray  # the output node's columns

    def run(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Propagate the boxes ``[lo[b], hi[b]]``: both ``(boxes, input_dim)``, and so are the two results."""
        count, dim = lo.shape
        if dim != self.input_dim:
            raise ValueError(f"expected a {self.input_dim}-d box, got {dim}-d")
        out = np.empty((2, len(self.output), count))
        for at in range(0, count, PASS_BOXES):
            stop = min(at + PASS_BOXES, count)
            x = np.empty((2, self.columns, stop - at))
            x[0, :dim] = lo[at:stop].T
            x[1, :dim] = hi[at:stop].T
            x[:, -1] = -0.0
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                for stage in self.stages:
                    stage.run(x)
            if not np.isfinite(x).all():
                raise ValueError(
                    "interval endpoints must be finite; propagation produced a non-finite value"
                )
            out[:, :, at:stop] = x[:, self.output]
        return out[0].T, out[1].T


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
        level[i] = top + 1
        groups.setdefault((top + 1, kind), []).append(i)
    keys = sorted(groups)

    # Columns: inputs first, then each stage's nodes in a contiguous block.
    cols: list[Sequence[int]] = [(node.index,) for node in nodes]  # kept for inputs only
    spans = []
    nxt = net.input_dim
    for key in keys:
        start = nxt
        for i in groups[key]:
            cols[i] = range(nxt, nxt + arities[i])
            nxt += arities[i]
        spans.append((start, nxt))
    pad = nxt  # the -0.0 column
    columns = nxt + 1

    stages: list[_AffineStage | _ReluStage] = []
    for key, (start, stop) in zip(keys, spans):
        members = [nodes[i] for i in groups[key]]
        if key[1] == "relu":
            src = [c for node in members for c in cols[node.preds[0]]]
            span = slice(src[0], src[0] + len(src))
            contiguous = src == list(range(span.start, span.stop))
            stages.append(_ReluStage(start, stop, span if contiguous else np.array(src, dtype=np.intp)))
        else:
            lookup: list[int] = []  # the members' predecessor columns, end to end
            starts: list[int] = []  # per row, where its node's columns begin in lookup
            lengths: list[int] = []  # per row, its term count
            terms: list[tuple[int, float]] = []
            bias: list[float] = []
            for node in members:
                starts.extend([len(lookup)] * len(node.weights))
                for p in node.preds:
                    lookup.extend(cols[p])
                lengths.extend(map(len, node.weights))
                terms.extend(chain.from_iterable(node.weights))
                bias.extend(node.bias)
            flat = np.fromiter(chain.from_iterable(terms), float, 2 * len(terms)).reshape(-1, 2)
            w = flat[:, 1]
            c = np.array(lookup, dtype=np.intp)[np.repeat(starts, lengths) + flat[:, 0].astype(np.intp)]
            keep = w != 0.0
            w = w[keep]
            c = c[keep]
            row = np.repeat(np.arange(len(bias)), lengths)[keep]
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
            stages.append(_AffineStage(start, stop, src, w_table[:, None, :, None], np.array(bias)[:, None]))
    return Program(net.input_dim, columns, tuple(stages), np.array(cols[net.output], dtype=np.intp))


def eval_abstract_many(net: Network, boxes: Sequence[BoxRegion]) -> list[BoxRegion]:
    """Propagate every box through the compiled program: ``Program.run`` on their corners."""
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
    """Flat counts: nodes, ReLU units, parameters (stored terms and biases), and longest path to the output."""
    relus = sum(net.arity(i) for i, n in enumerate(net.nodes) if n.kind == "relu")
    params = sum(sum(map(len, n.weights)) + len(n.bias) for n in net.nodes if n.kind == "affine")
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


class NetworkBuilder:
    """Appends nodes in topological order and assigns their positions as ids."""

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self._nodes: list[Node] = [input_node(i) for i in range(input_dim)]
        self._arities: list[int] = [1] * input_dim

    def input_id(self, index: int) -> int:
        return index

    @property
    def input_ids(self) -> list[int]:
        return list(range(self.input_dim))

    def arity(self, node_id: int) -> int:
        return self._arities[node_id]

    def _append(self, node: Node, arity: int) -> int:
        self._nodes.append(node)
        self._arities.append(arity)
        return len(self._nodes) - 1

    def affine(
        self, preds: int | Sequence[int], weights: Sequence[Sequence[float]], bias: Sequence[float]
    ) -> int:
        """Append an affine node with dense rows."""
        node = affine_node(preds, weights, bias)
        return self._append(node, len(node.weights))

    def sparse_affine(
        self, preds: int | Sequence[int], rows: Sequence[Sequence[tuple[int, float]]], bias: Sequence[float]
    ) -> int:
        """Append an affine node whose rows list their ``(column, weight)`` terms."""
        node = sparse_affine_node(preds, rows, bias)
        return self._append(node, len(node.weights))

    def relu(self, pred: int) -> int:
        return self._append(relu_node(pred), self._arities[pred])

    def finish(self, output: int, metadata: dict[str, str] | None = None) -> Network:
        return Network(tuple(self._nodes), output, self.input_dim, dict(metadata or {}))
