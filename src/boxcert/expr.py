"""Expression-defined target functions.

Grammar (whitespace-insensitive, infix with precedence unary minus > ``*`` >
binary ``+``/``-``)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('-' | '+') factor | atom
    atom   := number | 'x'<k> | fn '(' expr (',' expr)? ')' | '(' expr ')'
    fn     := 'min' | 'max' | 'relu' | 'abs'

Numbers are decimal (``1.5``, ``2e-3``) or hex floats (``0x1.8p0``), and each
must be a finite double. A parsed expression has three node shapes: ``Const``,
``Var``, and ``Op``, an operator named ``+ - * neg min max relu abs`` applied
to its operands; each walk below dispatches on the operator name. There is
no division and no transcendental function, which keeps the derivative-based
Lipschitz analysis total: ``enclose`` walks the expression once and returns
interval enclosures of its value and of every partial derivative over a box,
with min/max/abs/relu bounded by the hull of the feasible branch derivatives.
Where an enclosure or the bound leaves the finite doubles, ``FuncExpr.lipschitz``
raises ``ValueError`` naming the domain.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .intervals import BoxRegion, Interval
from .netio import format_box_text


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int


@dataclass(frozen=True, slots=True)
class Op(Expr):
    """An operator applied to its operands: ``name`` is one of ``+ - * neg min max relu abs``."""

    name: str
    args: tuple[Expr, ...]


_TOKEN = re.compile(
    r"\s*(?:(?P<hex>0[xX][0-9a-fA-F]+(?:\.[0-9a-fA-F]*)?(?:[pP][+-]?\d+)?)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*(),]))"
)

_ARITY = {"min": 2, "max": 2, "relu": 1, "abs": 1}


class _Parser:
    def __init__(self, source: str, dim: int):
        self.source = source
        self.dim = dim
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos)

    def peek(self) -> tuple[str, str] | None:
        m = _TOKEN.match(self.source, self.pos)
        if m is None:
            rest = self.source[self.pos :].strip()
            if rest:
                raise self.error(f"unexpected character {rest[0]!r}")
            return None
        kind = m.lastgroup
        return kind, m.group(kind)

    def take(self) -> tuple[str, str] | None:
        m = _TOKEN.match(self.source, self.pos)
        if m is None:
            return self.peek()  # raises on stray characters
        self.pos = m.end()
        return m.lastgroup, m.group(m.lastgroup)

    def expect(self, op: str) -> None:
        tok = self.take()
        if tok is None or tok[0] != "op" or tok[1] != op:
            raise self.error(f"expected {op!r}")

    def parse(self) -> Expr:
        e = self.expr()
        if self.peek() is not None:
            raise self.error("trailing input after expression")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] in "+-":
                self.take()
                e = Op(tok[1], (e, self.term()))
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.take()
                e = Op("*", (e, self.factor()))
            else:
                return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.take()
            return Op("neg", (self.factor(),))
        if tok and tok[0] == "op" and tok[1] == "+":
            self.take()
            return self.factor()
        return self.atom()

    def atom(self) -> Expr:
        tok = self.take()
        if tok is None:
            raise self.error("unexpected end of expression")
        kind, text = tok
        if kind in ("num", "hex"):
            try:
                value = float.fromhex(text) if kind == "hex" else float(text)
            except OverflowError:
                value = math.inf
            if not math.isfinite(value):
                raise self.error(f"number {text} is not a finite double")
            return Const(value)
        if kind == "op" and text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "name":
            if text in _ARITY:
                self.expect("(")
                args = [self.expr()]
                while True:
                    nxt = self.peek()
                    if nxt and nxt[0] == "op" and nxt[1] == ",":
                        self.take()
                        args.append(self.expr())
                    else:
                        break
                self.expect(")")
                if len(args) != _ARITY[text]:
                    raise self.error(f"{text} takes {_ARITY[text]} argument(s), got {len(args)}")
                return Op(text, tuple(args))
            m = re.fullmatch(r"x(\d+)", text)
            if m:
                index = int(m.group(1))
                if index >= self.dim:
                    raise self.error(f"variable {text} out of range for dimension {self.dim}")
                return Var(index)
            raise self.error(f"unknown identifier {text!r}")
        raise self.error(f"unexpected token {text!r}")


def parse_expr(source: str, dim: int) -> Expr:
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return _Parser(source, dim).parse()


# Each operator writes into its first operand, a fresh array that the walk owns.
_UFUNCS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "neg": np.negative,
    "min": np.minimum,
    "max": np.maximum,
    # np.maximum returns its second operand on a tie, so relu(-0.0) is -0.0
    "relu": lambda a, out: np.maximum(0.0, a, out=out),
    "abs": np.abs,
}


def eval_expr_many(e: Expr, pts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation over an (n, m) array of points."""
    if isinstance(e, Const):
        return np.full(pts.shape[0], e.value)
    if isinstance(e, Var):
        return pts[:, e.index].astype(float, copy=True)
    args = [eval_expr_many(a, pts) for a in e.args]
    return _UFUNCS[e.name](*args, out=args[0])


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_ATOM = 1, 2, 3, 4


def to_source(e: Expr) -> str:
    """Render with minimal parentheses; parse(to_source(e)) prints identically."""
    return _render(e, 0)


# an infix operator's separator, its level (also its left operand's) and its right operand's level
_INFIX = {"+": (" + ", _LEVEL_ADD, _LEVEL_MUL), "-": (" - ", _LEVEL_ADD, _LEVEL_MUL), "*": ("*", _LEVEL_MUL, _LEVEL_NEG)}


def _render(e: Expr, min_level: int) -> str:
    if isinstance(e, Const):
        text, level = repr(e.value), _LEVEL_NEG if e.value < 0 else _LEVEL_ATOM
    elif isinstance(e, Var):
        text, level = f"x{e.index}", _LEVEL_ATOM
    elif e.name in _INFIX:
        sep, level, right = _INFIX[e.name]
        text = f"{_render(e.args[0], level)}{sep}{_render(e.args[1], right)}"
    elif e.name == "neg":
        text, level = f"-{_render(e.args[0], _LEVEL_ATOM)}", _LEVEL_NEG
    else:
        text, level = f"{e.name}({', '.join(map(to_source, e.args))})", _LEVEL_ATOM
    return f"({text})" if level < min_level else text


_ZERO, _ONE = Interval.point(0.0), Interval.point(1.0)


def _hull(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def _add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def _sub(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo - b.hi, a.hi - b.lo)


def _neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def _mul(a: Interval, b: Interval) -> Interval:
    products = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return Interval(min(products), max(products))


def enclose(e: Expr, bounds: Sequence[Interval]) -> tuple[Interval, tuple[Interval, ...]]:
    """Forward-mode interval enclosures of the value and of each d/dx_k over a box, in one pass.

    At a min, max, relu or abs the value enclosures decide once, for every
    axis, which branches can be active; the partial is the active branch's,
    or the hull of the feasible ones.
    """
    if isinstance(e, Const):
        return Interval.point(e.value), (_ZERO,) * len(bounds)
    if isinstance(e, Var):
        return bounds[e.index], tuple([_ONE if k == e.index else _ZERO for k in range(len(bounds))])
    (va, da), *rest = [enclose(a, bounds) for a in e.args]
    if e.name == "neg":
        return _neg(va), tuple(map(_neg, da))
    if e.name == "relu":
        value = Interval(max(0.0, va.lo), max(0.0, va.hi))
        if va.lo >= 0:
            return value, da
        if va.hi <= 0:
            return value, (_ZERO,) * len(bounds)
        return value, tuple([_hull(d, _ZERO) for d in da])
    if e.name == "abs":
        if va.lo >= 0:
            return va, da
        if va.hi <= 0:
            return _neg(va), tuple(map(_neg, da))
        return Interval(0.0, max(-va.lo, va.hi)), tuple([_hull(d, _neg(d)) for d in da])
    vb, db = rest[0]
    if e.name in ("+", "-"):
        combine = _add if e.name == "+" else _sub
        return combine(va, vb), tuple(map(combine, da, db))
    if e.name == "*":
        return _mul(va, vb), tuple([_add(_mul(va, b), _mul(a, vb)) for a, b in zip(da, db)])
    pick = min if e.name == "min" else max
    value = Interval(pick(va.lo, vb.lo), pick(va.hi, vb.hi))
    if va.hi <= vb.lo or vb.hi <= va.lo:
        # one branch is active on the whole box: the lower one for min, the higher one for max
        return value, da if (va.hi <= vb.lo) == (e.name == "min") else db
    return value, tuple(map(_hull, da, db))


@dataclass
class FuncExpr:
    """A parsed expression together with its box domain and lazy certificates."""

    expr: Expr
    dim: int
    domain: BoxRegion

    def __post_init__(self) -> None:
        if self.domain.dim != self.dim:
            raise ValueError(f"domain is {self.domain.dim}-d but expression expects {self.dim}-d")

    @functools.cached_property
    def lipschitz(self) -> float:
        """Certified sup-norm Lipschitz bound on the domain: the sum over coordinates of sup |partial|."""
        bound = 0.0
        try:
            for d in enclose(self.expr, self.domain.bounds)[1]:
                bound += max(abs(d.lo), abs(d.hi))
        except ValueError:  # an enclosure left the finite doubles
            bound = math.inf
        if not math.isfinite(bound):
            raise ValueError(
                f"the Lipschitz bound of {self.source} on the domain "
                f"{format_box_text(self.domain, hex_floats=False)} is not a finite double"
            )
        return bound

    def eval(self, x: Sequence[float]) -> float:
        """f at one point: the one-point case of ``eval_many``."""
        if len(x) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(x)}")
        return float(self.eval_many([x])[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected an (n, {self.dim}) array, got {pts.shape}")
        return eval_expr_many(self.expr, pts)

    def with_domain(self, domain: BoxRegion) -> "FuncExpr":
        """f on another domain; ``self``, with its cached certificates, if the domain is the same."""
        if domain == self.domain:
            return self
        return FuncExpr(self.expr, self.dim, domain)

    @property
    def source(self) -> str:
        return to_source(self.expr)


def parse_func(source: str, dim: int, domain: BoxRegion) -> FuncExpr:
    return FuncExpr(parse_expr(source, dim), dim, domain)
