"""DAG intermediate representation for ReLU networks, and its one evaluator.

A network is a tuple of nodes stored in one fixed topological order (a node's
predecessors are always earlier in the tuple, so positions double as ids).
There are three node kinds: ``input``, ``affine`` and ``relu``. The first
``input_dim`` nodes are the inputs, node ``k`` reading coordinate ``k``, and
no other node is one. An affine node reads its predecessors' outputs laid end
to end, and each of its rows is a sparse list of terms over those columns,
summed in stored order; a dense row, with a term for every column, is the
special case. A node keeps its rows as read-only compressed sparse row (CSR)
arrays (``Rows``): per row its term count, then every row's term columns and
weights end to end. Builders, the document reader and the validation hand
these arrays on as they are, with no object per term. A relu reads one
predecessor.

On first evaluation a network is lowered once into a levelled array program
(``Network.program``). Each non-input node owns a contiguous range of columns
in one boxes-last float64 buffer of shape ``(2, columns, boxes)``: the lower
ends, then the upper ends, each column a contiguous row of boxes. A node's
level is one more than its deepest predecessor's, and the affine rows and
relus of one level each run as one array stage over all boxes of a pass. The
compiler lays out the tables of every affine row of the network in one batch
of array operations over the nodes' CSR arrays, then slices them per stage.
``Program.run`` takes its boxes as ``lo``/``hi`` arrays, ``PASS_BOXES`` to a
pass, so the buffer's size does not grow with the box count.
``eval_abstract`` runs it on one ``BoxRegion`` and ``eval_concrete`` on a
point box.

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
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .intervals import BoxRegion, Interval

# Boxes per pass of ``Program.run``: each pass owns a ``(2, columns, PASS_BOXES)``
# float64 buffer, 3.6 MB on the 882 columns of the x0*x1 network at delta 0.1.
# Passes of 128 to 512 boxes propagate fastest on the served networks.
PASS_BOXES = 256


def _frozen(values: Sequence | np.ndarray, dtype: type) -> np.ndarray:
    """``values`` as a read-only array of ``dtype``: kept if it is one already, else copied."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


class Rows:
    """An affine node's rows in compressed sparse row (CSR) form, as read-only arrays.

    Row ``r`` sums ``counts[r]`` terms, in order: the next ``counts[r]``
    entries of ``columns`` (a column of the predecessors' outputs laid end to
    end) and ``values`` (its weight). ``len`` counts the rows. An argument
    that is a read-only array of the right dtype is kept; any other is copied.
    """

    __slots__ = ("counts", "columns", "values")

    def __init__(self, counts: Sequence[int], columns: Sequence[int], values: Sequence[float]) -> None:
        self.counts = _frozen(counts, np.intp)
        self.columns = _frozen(columns, np.intp)
        self.values = _frozen(values, np.float64)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rows):
            return NotImplemented
        return (
            np.array_equal(self.counts, other.counts)
            and np.array_equal(self.columns, other.columns)
            and np.array_equal(self.values, other.values)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Rows(counts={self.counts.tolist()}, columns={self.columns.tolist()}, values={self.values.tolist()})"


_NO_ROWS = Rows((), (), ())
_NO_BIAS = _NO_ROWS.values  # an empty read-only float64 array


@dataclass(frozen=True, slots=True, eq=False)
class Node:
    """One DAG node. ``preds`` are positions of earlier nodes in the network.

    An input node reads the coordinate of its position. An affine node keeps
    its rows in ``weights`` and one bias per row in ``bias``, a read-only
    float64 array.
    """

    kind: str
    preds: tuple[int, ...] = ()
    weights: Rows = field(default_factory=lambda: _NO_ROWS)
    bias: np.ndarray = field(default_factory=lambda: _NO_BIAS)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bias", _frozen(self.bias, np.float64))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return (
            (self.kind, self.preds) == (other.kind, other.preds)
            and self.weights == other.weights
            and np.array_equal(self.bias, other.bias)
        )

    __hash__ = None  # type: ignore[assignment]


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

    def arity(self, node_id: int) -> int:
        return self.arities[node_id]

    @functools.cached_property
    def program(self) -> Program:
        """The levelled array program, compiled when the network is first evaluated."""
        return _compile(self)


def _validate(nodes: tuple[Node, ...], output: int, input_dim: int) -> tuple[int, ...]:
    """Each node's output width, after checking the nodes' structure and their affine rows.

    One pass over the nodes checks predecessor order, input placement, node
    kinds and row/bias counts, as each width depends on the earlier ones, and
    each affine node's terms with a few array operations on its rows.
    """
    if not nodes:
        raise ValueError("network has no nodes")
    if not 0 <= output < len(nodes):
        raise ValueError(f"output node {output} is not defined")
    if input_dim < 1:
        raise ValueError("input_dim must be at least 1")
    if len(nodes) < input_dim:
        raise ValueError(f"missing input node {len(nodes)}: the first {input_dim} nodes are the inputs")
    arities: list[int] = []
    for i, node in enumerate(nodes):
        for p in node.preds:
            if not 0 <= p < i:
                raise ValueError(f"node {i} must come after its predecessor {p}")
        if (node.kind == "input") != (i < input_dim):
            raise ValueError(f"node {i}: the first {input_dim} nodes are the inputs, and no other node is one")
        if node.kind == "input":
            arities.append(1)
        elif node.kind == "affine":
            if not node.preds:
                raise ValueError(f"node {i}: affine needs at least one predecessor")
            rows = node.weights
            if len(rows) == 0 or len(node.bias) != len(rows):
                raise ValueError(f"node {i}: affine needs matching weight rows and bias entries")
            _check_terms(i, rows, sum(arities[p] for p in node.preds))
            arities.append(len(rows))
        elif node.kind == "relu":
            if len(node.preds) != 1:
                raise ValueError(f"node {i}: relu takes exactly one predecessor")
            arities.append(arities[node.preds[0]])
        else:
            raise ValueError(f"node {i}: unknown kind {node.kind!r}")
    return tuple(arities)


def _check_terms(i: int, rows: Rows, width: int) -> None:
    """Check affine node ``i``'s term counts and columns against its predecessors' ``width``.

    Read as unsigned, a negative count or column is above any bound, so one
    maximum checks each against both ends.
    """
    terms = len(rows.columns)
    if len(rows.values) != terms:
        raise ValueError(f"node {i}: affine has {terms} term columns, {len(rows.values)} weights")
    # Counts of at most ``terms`` each add up in float64 without rounding.
    if rows.counts.view(np.uintp).max() > terms or rows.counts.sum(dtype=np.float64) != terms:
        if rows.counts.min() < 0:
            raise ValueError(f"node {i}: affine term counts must not be negative")
        raise ValueError(f"node {i}: affine term counts do not add up to its {terms} terms")
    if terms and rows.columns.view(np.uintp).max() >= width:
        bad = rows.columns[(rows.columns < 0) | (rows.columns >= width)]
        raise ValueError(f"node {i}: term column {bad[0]} out of range for predecessor width {width}")


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
        if node.kind != "input":
            level[i] = 1 + max([level[p] for p in node.preds])
            groups.setdefault((level[i], node.kind), []).append(i)
    keys = sorted(groups)

    # Columns: inputs first, then each stage's nodes in a contiguous block.
    first = list(range(len(nodes)))  # each node's first column; an input's is its position
    spans = []
    nxt = net.input_dim
    for key in keys:
        start = nxt
        for i in groups[key]:
            first[i] = nxt
            nxt += arities[i]
        spans.append((start, nxt))
    columns = nxt + 1  # the last one holds -0.0

    affine = [span for key, span in zip(keys, spans) if key[1] == "affine"]
    members = [i for key in keys if key[1] == "affine" for i in groups[key]]
    tables = iter(_affine_tables(net, first, columns, members, affine) if members else [])
    stages: list[_AffineStage | _ReluStage] = []
    for key, (start, stop) in zip(keys, spans):
        if key[1] == "affine":
            stages.append(_AffineStage(start, stop, *next(tables)))
            continue
        reads = [(first[nodes[i].preds[0]], arities[i]) for i in groups[key]]
        if all(a + w == b for (a, w), (b, _) in zip(reads, reads[1:])):
            stages.append(_ReluStage(start, stop, slice(reads[0][0], reads[0][0] + stop - start)))
        else:
            stages.append(_ReluStage(start, stop, np.concatenate([np.arange(a, a + w) for a, w in reads])))
    out = first[net.output]
    return Program(net.input_dim, columns, tuple(stages), np.arange(out, out + arities[net.output]))


def _affine_tables(
    net: Network, first: list[int], columns: int, members: list[int], spans: list[tuple[int, int]]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ``(src, weights, bias)`` of every affine stage, laid out in one batch of array operations.

    ``first`` is each node's first buffer column, ``members`` lists the
    affine nodes in column order and ``spans`` each affine stage's columns.
    The ``size[s]`` rows of stage ``s`` share a block of one flat table,
    ``depth[s]`` term places deep: row ``r`` of the stage keeps its ``k``-th
    nonzero term at ``k * size[s] + r`` of the block. Rows shorter than the
    deepest are padded with ``1.0 * -0.0``, read from the last buffer column.
    """
    nodes, arities = net.nodes, net.arities
    rows = [nodes[i].weights for i in members]
    counts = np.concatenate([r.counts for r in rows])
    local = np.concatenate([r.columns for r in rows])
    weights = np.concatenate([r.values for r in rows])
    bias = np.concatenate([nodes[i].bias for i in members])[:, None]

    # A term's buffer column: ``lookup`` holds every member's predecessor
    # columns, read end to end, one member after another.
    moves, widths, offsets = [], [], []  # per predecessor read: its shift and width; per member: its offset
    at = 0
    for i in members:
        offsets.append(at)
        for p in nodes[i].preds:
            moves.append(first[p] - at)
            widths.append(arities[p])
            at += arities[p]
    lookup = np.arange(at) + np.repeat(moves, widths)
    source = lookup[local + np.repeat(offsets, [len(r.columns) for r in rows])]

    row = np.arange(counts.size).repeat(counts)
    if not weights.all():  # a zero term adds nothing to its row
        keep = weights != 0.0
        weights, source, row = weights[keep], source[keep], row[keep]
        counts = np.bincount(row, minlength=counts.size)
    k = np.arange(row.size) - row.searchsorted(row)  # a term's place in its row

    size = [stop - start for start, stop in spans]  # rows per stage
    row_start = [0, *accumulate(size)][:-1]
    depth = [max(d, 1) for d in np.maximum.reduceat(counts, row_start).tolist()]
    block = [0, *accumulate([d * r for d, r in zip(depth, size)])]  # where each stage's table begins
    base = np.repeat([b - r0 for b, r0 in zip(block, row_start)], size) + np.arange(counts.size)
    at = base[row] + k * np.repeat(size, size)[row]
    w_table = np.ones(block[-1])  # a pad term is 1.0 * -0.0
    w_table[at] = weights
    c_table = np.full(block[-1], columns - 1, dtype=np.intp)
    c_table[at] = source
    # A negative weight takes a term's lower end from the upper input end,
    # which the flat (2 * columns, boxes) view holds ``columns`` rows later.
    upper = np.where(w_table > 0.0, columns, 0)
    src = np.empty((2, block[-1]), dtype=np.intp)
    np.subtract(c_table + columns, upper, out=src[0])
    np.add(c_table, upper, out=src[1])
    tables = []
    for d, r, b, r0 in zip(depth, size, block, row_start):
        lo_hi = src[:, b : b + d * r].reshape(2, d, r).transpose(1, 0, 2).copy()
        tables.append((lo_hi, w_table[b : b + d * r].reshape(d, 1, r, 1), bias[r0 : r0 + r]))
    return tables


def eval_abstract(net: Network, box: BoxRegion) -> BoxRegion:
    """Propagate one box: ``Program.run`` on its corners."""
    lo, hi = net.program.run(np.array([[b.lo for b in box.bounds]]), np.array([[b.hi for b in box.bounds]]))
    return BoxRegion(tuple(Interval(a, b) for a, b in zip(lo[0].tolist(), hi[0].tolist())))


def eval_concrete(net: Network, x: Sequence[float]) -> tuple[float, ...]:
    """Evaluate the network at a point: the lower end of the point box ``[x, x]``."""
    if len(x) != net.input_dim:
        raise ValueError(f"expected {net.input_dim} inputs, got {len(x)}")
    point = np.array([x], dtype=float)
    lo, _ = net.program.run(point, point)
    return tuple(lo[0].tolist())


def stats(net: Network) -> dict[str, int]:
    """Flat counts: nodes and ReLU units."""
    relus = sum(net.arity(i) for i, n in enumerate(net.nodes) if n.kind == "relu")
    return {"node_count": len(net.nodes), "relu_count": relus}


class NetworkBuilder:
    """Appends nodes in topological order and assigns their positions as ids."""

    def __init__(self, input_dim: int):
        self.input_dim = input_dim
        self._nodes: list[Node] = [Node("input")] * input_dim
        self._arities: list[int] = [1] * input_dim

    @property
    def input_ids(self) -> list[int]:
        return list(range(self.input_dim))

    def arity(self, node_id: int) -> int:
        return self._arities[node_id]

    def _append(self, node: Node, arity: int) -> int:
        self._nodes.append(node)
        self._arities.append(arity)
        return len(self._nodes) - 1

    def csr_affine(
        self,
        preds: int | Sequence[int],
        counts: Sequence[int],
        columns: Sequence[int],
        values: Sequence[float],
        bias: Sequence[float],
    ) -> int:
        """Append an affine node whose rows are given as CSR arrays, as ``Rows`` takes them."""
        preds = (preds,) if isinstance(preds, int) else tuple(preds)
        node = Node("affine", preds, weights=Rows(counts, columns, values), bias=bias)
        return self._append(node, len(node.weights))

    def relu(self, pred: int) -> int:
        return self._append(Node("relu", (pred,)), self._arities[pred])

    def finish(self, output: int, metadata: dict[str, str] | None = None) -> Network:
        return Network(tuple(self._nodes), output, self.input_dim, dict(metadata or {}))
