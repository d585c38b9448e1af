#!/usr/bin/env python3
"""End-to-end 1-d walkthrough: build a certified network for the cubic
-x^3 + 3x on [-2, 2], propagate its textbook inner box, run a verification
campaign, and dump plot data. Artifacts land in ./out/cubic/."""

import pathlib
import sys

from boxcert import netio
from boxcert.construct import build_certified_network, format_cells
from boxcert.expr import parse_func
from boxcert.intervals import BoxRegion
from boxcert.network import eval_abstract
from boxcert.verify import RunConfig, verify_network

EXPR = "-x0*x0*x0 + 3*x0"
DELTA = 8 / 5


def main() -> int:
    out_dir = pathlib.Path("out/cubic")
    out_dir.mkdir(parents=True, exist_ok=True)

    f = parse_func(EXPR, 1, BoxRegion.from_pairs([(-2.0, 2.0)]))
    print(f"target: {EXPR} on [-2, 2], delta {DELTA}")
    print(f"certified Lipschitz bound: {f.lipschitz}")

    net, report = build_certified_network(f, DELTA)
    netio.save(net, str(out_dir / "cubic.net"))
    report.save(str(out_dir / "cubic.report"))
    print(
        f"built: {report.slice_count} slices, {format_cells(report.cells_per_unit)} cells, "
        f"adjusted delta {report.delta:g}, {report.relu_count} ReLUs "
        f"({report.build_seconds:.2f}s)"
    )

    inner = BoxRegion.from_pairs([(-1.0, 1.0)])
    prop = eval_abstract(net, inner).bounds[0]
    print(f"propagated [-1, 1]: {prop}   (true range [-2, 2], tolerance {report.delta:g})")

    campaign = verify_network(net, f, RunConfig(boxes=500, seed=42))
    campaign.save(str(out_dir / "cubic.verify"))
    print("verification:", campaign.summary_text())

    from boxcert.cli import main as cli_main

    cli_main(
        ["plot-data", "--net", str(out_dir / "cubic.net"), "--expr", EXPR,
         "--samples", "401", "--out", str(out_dir / "cubic.csv")]
    )
    return 1 if campaign.failures else 0


if __name__ == "__main__":
    sys.exit(main())
