import hashlib
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxcert.cli import EXIT_USAGE, main
from boxcert.expr import (
    Const,
    FuncExpr,
    Op,
    ParseError,
    enclose,
    eval_expr_many,
    parse_expr,
    parse_func,
    to_source,
)
from boxcert.intervals import BoxRegion, Interval

CUBIC = "-x0*x0*x0 + 3*x0"
WIDE = BoxRegion.from_pairs([(-2.0, 2.0)])


class TestParse:
    def test_cubic(self):
        f = parse_func(CUBIC, 1, WIDE)
        assert f.eval([1.0]) == 2.0
        assert f.eval([-1.0]) == -2.0

    def test_min(self):
        f = parse_func("min(x0, x1)", 2, BoxRegion.from_pairs([(0, 1), (0, 1)]))
        assert f.eval([0.3, 0.7]) == 0.3

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError, match="x2 out of range"):
            parse_expr("x2", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expr("sin(x0)", 1)

    def test_bad_arity(self):
        with pytest.raises(ParseError, match="min takes 2"):
            parse_expr("min(x0)", 1)
        with pytest.raises(ParseError, match="relu takes 1"):
            parse_expr("relu(x0, x0)", 1)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            parse_expr("x0 + ", 1)
        assert "position" in str(info.value)

    def test_hex_literal(self):
        assert parse_func("0x1.8p0 * x0", 1, WIDE).eval([2.0]) == 3.0

    @pytest.mark.parametrize("literal", ["0x1p2000", "1e400", "9" * 400])
    def test_number_that_is_not_a_finite_double(self, literal):
        # 0x1p2000 overflows float.fromhex; the decimals round to inf
        with pytest.raises(ParseError, match=re.escape(f"number {literal} is not a finite double")):
            parse_expr(f"x0 + {literal}*x0", 1)

    def test_binary_plus_before_a_hex_literal(self):
        assert parse_expr("x0+0x1p0", 1) == parse_expr("x0 + 0x1p0", 1) == Op("+", (parse_expr("x0", 1), Const(1.0)))
        assert parse_expr("+0x1p0*x0", 1) == Op("*", (Const(1.0), parse_expr("x0", 1)))
        assert parse_expr("2*+0x1p0", 1) == Op("*", (Const(2.0), Const(1.0)))

    def test_stray_characters(self):
        with pytest.raises(ParseError):
            parse_expr("x0 $ 2", 1)
        with pytest.raises(ParseError, match="trailing"):
            parse_expr("x0 x0", 1)

    def test_precedence(self):
        # unary minus binds tighter than *, which binds tighter than +
        f = parse_func("-x0*x0 + 2", 1, WIDE)
        assert f.eval([3.0]) == -9.0 + 2.0
        g = parse_func("1 - x0 - x0", 1, WIDE)
        assert g.eval([1.0]) == -1.0

    def test_parens_and_abs(self):
        f = parse_func("abs(x0 - 1) * (x0 + 1)", 1, WIDE)
        assert f.eval([0.0]) == 1.0
        assert f.eval([2.0]) == 3.0


class TestRender:
    @pytest.mark.parametrize(
        "src",
        [
            CUBIC,
            "min(x0, max(x1, 0.5)) - relu(x0*x1)",
            "-(x0 + x1)*x0",
            "abs(-x0) + -x1*0.25",
            "1 - x0 - x0*x0",
        ],
    )
    def test_print_parse_fixed_point(self, src):
        dim = 2
        first = to_source(parse_expr(src, dim))
        second = to_source(parse_expr(first, dim))
        assert first == second

    @pytest.mark.parametrize(
        "src",
        ["x0*x1 - x0", "-(x0*x0)", "min(x0, 0.125) - max(x1, -2.5)", "relu(x0 - x1)*abs(x1)"],
    )
    def test_reparse_preserves_values(self, src):
        e = parse_expr(src, 2)
        e2 = parse_expr(to_source(e), 2)
        rng = random.Random(0)
        pts = np.array([[rng.uniform(-3, 3), rng.uniform(-3, 3)] for _ in range(50)])
        assert eval_expr_many(e, pts).tolist() == eval_expr_many(e2, pts).tolist()


class TestVectorizedEval:
    def test_matches_scalar(self):
        f = parse_func("min(x0, x1) - abs(x0)*relu(x1)", 2, BoxRegion.from_pairs([(-2, 2)] * 2))
        rng = random.Random(4)
        pts = np.array([[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(200)])
        many = f.eval_many(pts)
        for row, v in zip(pts, many):
            assert v == f.eval(list(row))

    def test_point_evaluation_keeps_the_signed_zeros_of_eval_many(self):
        # np.maximum returns its second operand on a tie, so relu(-0.0) and
        # max(0.0, -0.0) are -0.0 here; f.eval must agree with the oracle's eval_many.
        f = parse_func("relu(-x0)*x1 + max(x0, -x0)", 2, BoxRegion.from_pairs([(-1, 1)] * 2))
        assert f.eval_many(np.array([[0.0, 1.0]]))[0].hex() == "-0x0.0p+0"
        assert f.eval([0.0, 1.0]).hex() == "-0x0.0p+0"


class TestIntervalEval:
    def test_encloses_samples(self):
        f = parse_expr("x0*x1 - abs(x0) + min(x0, x1)", 2)
        box = [Interval(-1.5, 2.0), Interval(-0.5, 1.0)]
        out, _ = enclose(f, box)
        rng = random.Random(8)
        pts = np.array([[rng.uniform(-1.5, 2.0), rng.uniform(-0.5, 1.0)] for _ in range(500)])
        values = eval_expr_many(f, pts)
        assert (out.lo - 1e-12 <= values).all() and (values <= out.hi + 1e-12).all()


class TestLipschitz:
    def test_cubic_bound(self):
        f = parse_func(CUBIC, 1, WIDE)
        # interval evaluation of the derivative is conservative: the true sup
        # of |3 - 3x^2| on [-2, 2] is 9, and the naive product enclosure lands
        # on 15 for the factored cubic
        assert f.lipschitz >= 9.0
        assert f.lipschitz == 15.0

    def test_constant(self):
        f = parse_func("4.25", 1, WIDE)
        assert f.lipschitz == 0.0

    def test_sum_of_coordinates(self):
        f = parse_func("x0 + x1", 2, BoxRegion.from_pairs([(-5, 3), (0, 1)]))
        assert f.lipschitz == 2.0

    def test_min_branch_hull(self):
        f = parse_func("min(x0, x1)", 2, BoxRegion.from_pairs([(0, 1), (0, 1)]))
        assert f.lipschitz == 2.0

    def test_decided_branch_tightens(self):
        # on this domain x0 <= 1 <= x1 always, so min picks x0 and d/dx1 = 0
        f = parse_func("min(x0, x1)", 2, BoxRegion.from_pairs([(0, 1), (1, 2)]))
        assert enclose(f.expr, f.domain.bounds)[1][1] == Interval(0, 0)
        assert f.lipschitz == 1.0

    # f's Lipschitz bound and the partial enclosures it sums, exactly: the
    # grids, documents and reports of every build are sized from them
    PINNED = [
        ("-x0*x0*x0 + 3*x0", [(-2, 2)], 15.0, [(-9, 15)]),
        ("x0*x1*x2", [(0, 1)] * 3, 3.0, [(0, 1)] * 3),
        ("abs(x0 - 0.5)*relu(x1)", [(0, 1)] * 2, 1.5, [(-1, 1), (0, 0.5)]),
        ("min(x0*x0, 2 - x0)", [(-2, 2)], 4.0, [(-4, 4)]),
        ("max(x0, 0.5)*min(x0, -0.25)", [(-2, 2)], 2.0, [(-2, 2)]),
        ("x0*x0*x0 - 2*x1*x0", [(-1, 1), (0, 1)], 7.0, [(-5, 3), (-2, 2)]),
        ("relu(x0 - x1)*abs(x1 + 0.25)", [(-1, 1)] * 2, 4.5, [(0, 1.25), (-3.25, 2)]),
        ("min(x0, x1)", [(0, 1), (1, 2)], 1.0, [(1, 1), (0, 0)]),
    ]

    @pytest.mark.parametrize("src, domain, lipschitz, partials", PINNED, ids=[p[0] for p in PINNED])
    def test_pinned_bounds_and_partials(self, src, domain, lipschitz, partials):
        f = parse_func(src, len(domain), BoxRegion.from_pairs(domain))
        _, got = enclose(f.expr, f.domain.bounds)
        assert f.lipschitz == lipschitz
        assert got == tuple(Interval(lo, hi) for lo, hi in partials)

    @pytest.mark.parametrize("src, domain, text", [
        ("x0*x0", [(-1e300, 1e300)], "-1e+300,1e+300"),  # the value enclosure overflows
        ("x0*1e308 - x1*1e308", [(0, 1)] * 2, "0.0,1.0;0.0,1.0"),  # finite partials, infinite sum
    ], ids=["overflowing-enclosure", "infinite-sum"])
    def test_bound_that_is_not_a_finite_double_names_the_domain(self, src, domain, text):
        f = parse_func(src, len(domain), BoxRegion.from_pairs(domain))
        with pytest.raises(ValueError, match=re.escape(f"on the domain {text} is not a finite double")):
            f.lipschitz

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_certificate_against_sampled_pairs(self, data):
        src = data.draw(
            st.sampled_from(
                [
                    CUBIC,
                    "abs(x0) - relu(1 - x0)",
                    "min(x0*x0, 2 - x0)",
                    "max(x0, 0.5)*min(x0, -0.25)",
                ]
            )
        )
        f = parse_func(src, 1, WIDE)
        bound = f.lipschitz
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        for _ in range(100):
            x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
            gap = abs(f.eval([x]) - f.eval([y]))
            assert gap <= bound * abs(x - y) + 1e-9


class TestFuncExpr:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            parse_func("x0", 2, WIDE)  # 1-d domain for a 2-d function
        f = parse_func("x0", 1, WIDE)
        with pytest.raises(ValueError):
            f.eval([1.0, 2.0])

    def test_with_domain_resets_cache(self):
        f = parse_func(CUBIC, 1, WIDE)
        assert f.lipschitz == 15.0
        g = f.with_domain(BoxRegion.from_pairs([(0.0, 1.0)]))
        assert g.lipschitz < f.lipschitz

    def test_with_same_domain_keeps_cache(self):
        f = parse_func(CUBIC, 1, WIDE)
        assert f.with_domain(BoxRegion.from_pairs([(b.lo, b.hi) for b in WIDE.bounds])) is f

    def test_the_lipschitz_bound_is_not_an_argument(self):
        with pytest.raises(TypeError):
            FuncExpr(parse_expr("x0*x0", 1), 1, WIDE, 0.0)

    def test_equal_functions_stay_equal_after_one_reads_its_bound(self):
        f, g = parse_func(CUBIC, 1, WIDE), parse_func(CUBIC, 1, WIDE)
        assert f.lipschitz == 15.0
        assert f == g

    def test_source_round_trip(self):
        f = parse_func(CUBIC, 1, WIDE)
        assert parse_func(f.source, 1, WIDE).eval([0.5]) == f.eval([0.5])


def _random_source(rng: random.Random, dim: int, depth: int) -> str:
    """One grammatical expression: sums of products of signed factors, calls and parentheses."""

    def literal() -> str:
        kind = rng.randrange(4)
        if kind == 0:
            return str(rng.randrange(10))
        if kind == 1:
            return f"{rng.uniform(0, 4):.{rng.randrange(1, 5)}f}"
        if kind == 2:
            return f"{rng.randrange(1, 10)}e{rng.randrange(-3, 3)}"
        return rng.uniform(0, 4).hex() if rng.random() < 0.5 else f"0x{rng.randrange(1, 16):x}p{rng.randrange(-4, 4)}"

    def atom(d: int) -> str:
        r = rng.random()
        if d <= 0 or r < 0.3:
            return f"x{rng.randrange(dim)}" if rng.random() < 0.6 else literal()
        if r < 0.5:
            return f"({expr(d - 1)})"
        name = rng.choice(["min", "max", "relu", "abs"])
        args = [expr(d - 1) for _ in range(2 if name in ("min", "max") else 1)]
        return f"{name}({', '.join(args)})"

    def factor(d: int) -> str:
        r = rng.random()
        if r < 0.15:
            return "-" + factor(d)
        if r < 0.2:
            return "+" + factor(d)
        return atom(d)

    def term(d: int) -> str:
        return rng.choice(["*", " * "]).join(factor(d) for _ in range(rng.randrange(1, 3)))

    def expr(d: int) -> str:
        text = term(d)
        for _ in range(rng.randrange(2)):
            text += rng.choice([" + ", " - "]) + term(d)
        return text

    return expr(depth)


def _random_domain(rng: random.Random, dim: int) -> BoxRegion:
    if rng.random() < 0.05:
        return BoxRegion.from_pairs([(-1e300, 1e300)] * dim)
    pairs = []
    for _ in range(dim):
        lo = round(rng.uniform(-3, 3), rng.randrange(4))
        pairs.append((lo, lo + rng.choice([0.0, 0.5, round(rng.uniform(0, 4), 3)])))
    return BoxRegion.from_pairs(pairs)


def _digest_line(f: FuncExpr, pts: np.ndarray) -> bytes:
    def hexes(iv: Interval) -> str:
        return f"{iv.lo.hex()},{iv.hi.hex()}"

    try:
        lipschitz = f.lipschitz.hex()
    except ValueError as exc:
        lipschitz = str(exc)
    try:
        value, partials = enclose(f.expr, f.domain.bounds)
        enclosures = " ".join(hexes(iv) for iv in (value, *partials))
    except ValueError as exc:
        enclosures = str(exc)
    with np.errstate(all="ignore"):
        values = f.eval_many(pts).tobytes()
    return f"{f.source}|{lipschitz}|{enclosures}|".encode() + values + b"\n"


class TestRandomExpressionDigest:
    # a sha256 over 3,000 seeded expressions: each one's printed form, its
    # Lipschitz bound (or its error), its value and partial enclosures, and its
    # values at sampled points and at signed zeros
    DIGEST = "0f4609193bfedbb24de7043e004096c54e26f2f335365f638cc85813a662fb43"

    def test_printing_bounds_enclosures_and_values_are_unchanged(self):
        rng = random.Random(2019)
        h = hashlib.sha256()
        for _ in range(3000):
            dim = rng.randrange(1, 4)
            domain = _random_domain(rng, dim)
            f = parse_func(_random_source(rng, dim, rng.randrange(4)), dim, domain)
            zeros = [[0.0] * dim, [-0.0] * dim, [(-0.0 if k % 2 else 0.0) for k in range(dim)]]
            sampled = [[rng.uniform(b.lo, b.hi) for b in domain.bounds] for _ in range(5)]
            h.update(_digest_line(f, np.array(zeros + sampled)))
        assert h.hexdigest() == self.DIGEST


class TestLiteralsAtTheCommandLine:
    @pytest.mark.parametrize("source, literal", [("0x1p2000*x0", "0x1p2000"), ("x0 + 1e400", "1e400")])
    def test_build_and_verify_exit_3_naming_the_literal(self, tmp_path, capsys, source, literal):
        net = str(tmp_path / "x.net")
        assert main(["build", "--expr", "x0", "--domain", "0,1", "--delta", "0.5", "--out", net]) == 0
        capsys.readouterr()
        for argv in (
            ["build", "--expr", source, "--domain", "0,1", "--delta", "0.5", "--out", str(tmp_path / "y.net")],
            ["verify", "--net", net, "--expr", source, "--boxes", "10"],
        ):
            assert main(argv) == EXIT_USAGE
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: number {literal} is not a finite double (at position ")
            assert err.count("\n") == 1
