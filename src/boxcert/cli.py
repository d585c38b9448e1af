"""Command-line front end.

Exit codes: 0 success, 1 verification failures (or inconclusive boxes),
2 resource budget exceeded, 3 usage or parse errors.

The candidate-enumeration budget defaults to BOXCERT_BUDGET when that
environment variable is set; ``build --budget`` overrides it. Either must be
at least 1.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import netio
from .construct import (
    DEFAULT_BUDGET,
    BuildBudget,
    BuildBudgetError,
    build_certified_network,
    format_cells,
)
from .expr import parse_func
from .fixtures import FIXTURES
from .netio import parse_box_text
from .network import eval_abstract
from .oracle import OracleBudgetError
from .verify import RunConfig, network_domain, verify_network

EXIT_OK = 0
EXIT_FAILURES = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let box values like '-2,2;-1,1' pass as arguments, not option names
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _budget(flag: int | None) -> BuildBudget:
    """The build budget with its candidate cap from ``--budget``, else BOXCERT_BUDGET, else the default."""
    raw = os.environ.get("BOXCERT_BUDGET")
    cap = DEFAULT_BUDGET.max_candidates
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            raise _UsageError(f"BOXCERT_BUDGET must be an integer, got {raw!r}") from None
        if cap < 1:
            raise _UsageError(f"BOXCERT_BUDGET must be at least 1, got {cap}")
    if flag is not None:
        if flag < 1:
            raise _UsageError(f"--budget must be at least 1, got {flag}")
        cap = flag
    return replace(DEFAULT_BUDGET, max_candidates=cap)


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
    p_plot.add_argument("--domain", help="box to sample instead of the network's domain")
    p_plot.add_argument("--out", required=True)

    p_stats = sub.add_parser("stats", help="print each node's size and the compiled stage count")
    p_stats.add_argument("--net", required=True)
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
    net, report = build_certified_network(f, args.delta, _budget(args.budget))
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
        sys.stdout.writelines(report.lines())
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

    # Each sample point is the lower corner of its cell; the last cell on an axis is a point.
    with np.errstate(invalid="ignore"):  # an infinite step makes NaN points, which the program rejects
        axes = [b.lo + np.arange(args.samples) * ((b.hi - b.lo) / (args.samples - 1)) for b in domain.bounds]
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    uppers = np.stack(
        [g.ravel() for g in np.meshgrid(*[np.append(xs[1:], xs[-1]) for xs in axes], indexing="ij")], axis=1
    )
    cell_lo, cell_hi = net.program.run(points, uppers)
    values, _ = net.program.run(points, points)
    f_values = f.eval_many(points)

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{k}" for k in range(domain.dim)) + ",f,n,box_lo,box_hi\n")
        for x, f_x, value, lo, hi in zip(
            points.tolist(), f_values.tolist(), values[:, 0].tolist(), cell_lo[:, 0].tolist(), cell_hi[:, 0].tolist()
        ):
            coords = ",".join(repr(v) for v in x)
            fh.write(f"{coords},{f_x!r},{value!r},{lo!r},{hi!r}\n")
    print(f"wrote plot data to {args.out}")
    return EXIT_OK


def _cmd_stats(args: argparse.Namespace) -> int:
    net = netio.load(args.net)
    print("node kind width relus terms")
    for i, node in enumerate(net.nodes):
        width = net.arity(i)
        terms = np.count_nonzero(node.weights.values)
        print(f"{i} {node.kind} {width} {width if node.kind == 'relu' else 0} {terms}")
    print(f"stages {len(net.program.stages)}")
    return EXIT_OK


_COMMANDS = {
    "build": _cmd_build,
    "propagate": _cmd_propagate,
    "verify": _cmd_verify,
    "fixtures": _cmd_fixtures,
    "plot-data": _cmd_plot_data,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
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
