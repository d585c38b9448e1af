"""Command-line front end.

Exit codes: 0 success, 1 verification failures (or inconclusive boxes),
2 resource budget exceeded, 3 usage or parse errors.

The candidate-enumeration budget defaults to BOXCERT_BUDGET when that
environment variable is set; every command flag overrides it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import re
import sys
from dataclasses import replace

from . import netio
from .construct import (
    DEFAULT_BUDGET,
    BuildBudget,
    BuildBudgetError,
    build_certified_network,
    format_cells,
)
from .expr import ParseError, parse_func
from .fixtures import FIXTURES
from .intervals import BoxRegion
from .netio import NetworkFormatError, parse_box_text
from .network import eval_abstract, eval_abstract_many
from .oracle import OracleBudgetError
from .verify import RunConfig, network_domain, verify_network

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3

# Cells per batched propagation in plot-data. With their sample points that
# is 2,048 boxes, a 32 MB buffer on a 1,000-column network; all 201 x 201
# cells at once would take 630 MB.
PLOT_CHUNK = 1024


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let box values like '-2,2;-1,1' pass as arguments, not option names
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _budget_from_env() -> BuildBudget:
    raw = os.environ.get("BOXCERT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return replace(DEFAULT_BUDGET, max_candidates=int(raw))
    except ValueError as exc:
        raise _UsageError(f"BOXCERT_BUDGET must be an integer, got {raw!r}") from exc


# Parsing leaves no state in the parser, so one parser serves every call.
@functools.cache
def _make_parser() -> _Parser:
    parser = _Parser(prog="boxcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a certified network for an expression")
    _add_expr_args(p_build)
    p_build.add_argument("--domain", required=True, help="box as 'lo,hi;lo,hi;...'")
    p_build.add_argument("--delta", required=True, type=float, help="target tolerance")
    p_build.add_argument("--out", required=True, help="output network document path")
    p_build.add_argument("--report", help="build report path (default: <out>.report)")
    p_build.add_argument("--budget", type=int, help="candidate-enumeration budget")

    p_prop = sub.add_parser("propagate", help="propagate a box through a network")
    p_prop.add_argument("--net", required=True)
    p_prop.add_argument("--box", required=True, help="box as 'lo,hi;lo,hi;...'")

    p_verify = sub.add_parser("verify", help="check the range-bracketing contract on sampled boxes")
    p_verify.add_argument("--net", required=True)
    _add_expr_args(p_verify)
    p_verify.add_argument("--boxes", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance", type=float, default=1e-9)
    p_verify.add_argument("--out", help="report document path (default: stdout)")

    p_fix = sub.add_parser("fixtures", help="write a named reference network")
    p_fix.add_argument("--name", required=True, choices=sorted(FIXTURES))
    p_fix.add_argument("--out", required=True)

    p_plot = sub.add_parser("plot-data", help="dump f, n and per-cell propagated bounds on a grid")
    p_plot.add_argument("--net", required=True)
    _add_expr_args(p_plot)
    p_plot.add_argument("--samples", type=int, default=201, help="sample count per dimension")
    p_plot.add_argument("--domain", help="override box when the network carries none")
    p_plot.add_argument("--out", required=True)
    return parser


def _add_expr_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="inline expression, e.g. '-x0*x0*x0 + 3*x0'")
    group.add_argument("--expr-file", help="path to a file holding the expression")


def _expression_text(args: argparse.Namespace) -> str:
    if args.expr is not None:
        return args.expr
    with open(args.expr_file, "r", encoding="utf-8") as fh:
        return fh.read().strip()


def _cmd_build(args: argparse.Namespace) -> int:
    domain = parse_box_text(args.domain)
    if not args.delta > 0:
        raise _UsageError("delta must be positive")
    f = parse_func(_expression_text(args), domain.dim, domain)
    budget = _budget_from_env()
    if args.budget is not None:
        budget = replace(budget, max_candidates=args.budget)
    net, report = build_certified_network(f, args.delta, budget)
    netio.save(net, args.out)
    report_path = args.report or args.out + ".report"
    report.save(report_path)
    print(
        f"built {args.out}: slices {report.slice_count}, cells {format_cells(report.cells_per_unit)}, "
        f"delta {report.delta:g}, relus {report.relu_count}, {report.build_seconds:.2f}s"
    )
    print(f"report written to {report_path}")
    return EXIT_OK


def _cmd_propagate(args: argparse.Namespace) -> int:
    net = netio.load(args.net)
    box = parse_box_text(args.box)
    result = eval_abstract(net, box)
    for component in result.bounds:
        print(f"[{component.lo!r}, {component.hi!r}]")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    net = netio.load(args.net)
    domain = network_domain(net)
    f = parse_func(_expression_text(args), domain.dim, domain)
    config = RunConfig(boxes=args.boxes, seed=args.seed, tolerance=args.tolerance)
    report = verify_network(net, f, config)
    if args.out:
        report.save(args.out)
        print(report.summary_text())
    else:
        sys.stdout.write(report.to_document())
        print(report.summary_text(), file=sys.stderr)
    return EXIT_OK if report.failures == 0 and report.inconclusive == 0 else EXIT_FAILURES


def _cmd_fixtures(args: argparse.Namespace) -> int:
    netio.save(FIXTURES[args.name](), args.out)
    print(f"wrote {args.name} to {args.out}")
    return EXIT_OK


def _cmd_plot_data(args: argparse.Namespace) -> int:
    net = netio.load(args.net)
    if net.input_dim > 2:
        raise _UsageError("plot-data supports 1- or 2-dimensional inputs only")
    if args.samples < 2:
        raise _UsageError("need at least two samples per dimension")
    if args.domain:
        domain = parse_box_text(args.domain)
    else:
        domain = network_domain(net)
    f = parse_func(_expression_text(args), domain.dim, domain)

    axes = []
    for b in domain.bounds:
        step = (b.hi - b.lo) / (args.samples - 1)
        axes.append([b.lo + i * step for i in range(args.samples)])
    # Each sample point is the lower corner of its cell; the last cell on an axis is a point.
    cells = [list(zip(xs, xs[1:] + xs[-1:])) for xs in axes]
    points = list(itertools.product(*axes))
    boxes = list(itertools.product(*cells))

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{k}" for k in range(domain.dim)) + ",f,n,box_lo,box_hi\n")
        for at in range(0, len(points), PLOT_CHUNK):
            chunk = points[at : at + PLOT_CHUNK]
            props = eval_abstract_many(
                net,
                [BoxRegion.from_pairs(cell) for cell in boxes[at : at + PLOT_CHUNK]]
                + [BoxRegion.point(x) for x in chunk],
            )
            for x, prop, value in zip(chunk, props, props[len(chunk) :]):
                coords = ",".join(repr(v) for v in x)
                lo, hi = prop.bounds[0].lo, prop.bounds[0].hi
                fh.write(f"{coords},{f.eval(list(x))!r},{value.bounds[0].lo!r},{lo!r},{hi!r}\n")
    print(f"wrote plot data to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "propagate": _cmd_propagate,
    "verify": _cmd_verify,
    "fixtures": _cmd_fixtures,
    "plot-data": _cmd_plot_data,
}


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, NetworkFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BuildBudgetError, OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
