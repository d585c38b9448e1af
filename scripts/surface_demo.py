#!/usr/bin/env python3
"""2-d walkthrough: certified builds for min(x, y) and x*y on the unit square,
verified over random sub-boxes. Artifacts land in ./out/surface/."""

import pathlib
import sys

from boxcert import netio
from boxcert.construct import build_certified_network, format_cells
from boxcert.expr import parse_func
from boxcert.intervals import BoxRegion
from boxcert.network import stats
from boxcert.verify import RunConfig, verify_network

TARGETS = ["min(x0, x1)", "x0*x1"]
DELTA = 0.5


def main() -> int:
    out_dir = pathlib.Path("out/surface")
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0

    for i, source in enumerate(TARGETS):
        f = parse_func(source, 2, BoxRegion.from_pairs([(0.0, 1.0), (0.0, 1.0)]))
        net, report = build_certified_network(f, DELTA)
        tag = f"target{i}"
        netio.save(net, str(out_dir / f"{tag}.net"))
        report.save(str(out_dir / f"{tag}.report"))
        print(
            f"{source}: {report.slice_count} slices, grid {format_cells(report.cells_per_unit)} cells per axis, "
            f"bumps per slice {report.bumps_per_slice}, "
            f"{stats(net)['relu_count']} ReLUs ({report.build_seconds:.2f}s)"
        )
        campaign = verify_network(net, f, RunConfig(boxes=200, seed=7))
        campaign.save(str(out_dir / f"{tag}.verify"))
        print("  verification:", campaign.summary_text())
        failures += campaign.failures

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
