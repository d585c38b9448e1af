"""End-to-end construction of a certified network for an expression-defined f.

Pipeline: certify the range of f, slice it into slabs half a tolerance tall,
pick a grid fine enough that one cell moves f by at most half a slab, fill one
table of sampled minima over every grid hyperrectangle, select for every slice
the maximal rectangles whose minimum clears the slice's upper level, sum a
local bump per selected rectangle, clip, and stack the slices back up from the
bottom level.

Membership uses the sampled (upper) end of the certified minimum. Any box that
exceeds a slice's level by half a slab snaps to an enclosing rectangle whose
true minimum still clears the level, so that rectangle (or a member containing
it) is always selected; conversely every selected rectangle has a true minimum
within the sampling margin of the level, and the margin is capped well below
half a slab, which is what forces distant boxes to propagate to exactly zero
through the slice.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .expr import FuncExpr
from .gadgets import append_clip_above, append_local_bump
from .grids import GridSpec, HyperRect, prune_maximal
from .intervals import BoxRegion
from .netio import format_box_text
from .network import Network, NetworkBuilder, stats
from .oracle import certified_box_range
from .slicing import SliceSpec, make_slice_spec

RANGE_MARGIN_FRACTION = 16.0  # range margin target: delta / 16
RECT_MARGIN_FRACTION = 8.0  # per-rectangle margin target: delta' / 8


@dataclass(frozen=True)
class BuildBudget:
    max_candidates: int = 5_000_000
    max_bumps: int = 100_000
    max_oracle_samples: int = 4_000_000


DEFAULT_BUDGET = BuildBudget()


class BuildBudgetError(RuntimeError):
    """The build would exceed its resource budget; fail fast with sizing advice."""


@dataclass(frozen=True)
class BuildReport:
    expression: str
    requested_delta: float
    delta: float
    slice_count: int
    cells_per_unit: int
    lipschitz: float
    domain: BoxRegion
    bumps_per_slice: tuple[int, ...]
    candidate_rects: int
    relu_count: int
    node_count: int
    build_seconds: float

    def to_document(self) -> str:
        lines = [
            "boxcert-report 1",
            f"expression {self.expression}",
            f"requested_delta {self.requested_delta!r}",
            f"delta {self.delta!r}",
            f"slices {self.slice_count}",
            f"cells_per_unit {self.cells_per_unit}",
            f"lipschitz {self.lipschitz!r}",
            f"domain {format_box_text(self.domain, hex_floats=False)}",
            f"bumps_per_slice {','.join(str(n) for n in self.bumps_per_slice)}",
            f"candidate_rects {self.candidate_rects}",
            f"relu_count {self.relu_count}",
            f"node_count {self.node_count}",
            f"build_seconds {self.build_seconds:.3f}",
        ]
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_document())


def grid_resolution(lipschitz: float, delta: float) -> int:
    """Smallest cell count per unit so one cell moves f by at most delta/2."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    if lipschitz < 0:
        raise ValueError("Lipschitz bound must be nonnegative")
    return max(1, math.ceil(2.0 * lipschitz / delta))


class CellMinTable:
    """Sampled minima of f over grid-rectangle hulls, from one shared lattice.

    The lattice subdivides every grid cell ``samples_per_cell`` times and
    includes all cell boundaries, so the minimum over a rectangle's hull is a
    contiguous-slab minimum with certificate margin L / (2 M s).
    """

    def __init__(self, f: FuncExpr, grid: GridSpec, samples_per_cell: int, budget: BuildBudget):
        if samples_per_cell < 1:
            raise ValueError("samples_per_cell must be at least 1")
        self.grid = grid
        self.samples_per_cell = samples_per_cell
        shape = tuple(grid.cells(k) * samples_per_cell + 1 for k in range(grid.dim))
        total = math.prod(shape)
        if total > budget.max_oracle_samples:
            raise BuildBudgetError(
                f"lattice of {total} samples exceeds the oracle budget "
                f"{budget.max_oracle_samples}; raise delta or the budget"
            )
        m = grid.cells_per_unit
        axes = [
            np.linspace(grid.index_lo[k] / m, grid.index_hi[k] / m, shape[k])
            for k in range(grid.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
        self.values = f.eval_many(pts).reshape(shape)
        self.margin = f.lipschitz / (2.0 * m * samples_per_cell)

    def all_rect_mins(self) -> np.ndarray:
        """Sampled minimum over every grid rectangle's hull, as one table.

        The table is indexed by ``(lo_0..lo_{m-1}, hi_0..hi_{m-1})``, grid
        points counted from ``grid.index_lo``, and holds -inf where some
        ``lo_k > hi_k``. Each lattice axis in turn becomes a ``(lo, hi)`` pair
        of axes: per-cell slab minima, both boundary lines included, feed the
        running minimum ``min[lo, hi] = min(min[lo, hi-1], cell[hi-1])``.
        ``min`` is exact, so every entry is the minimum of the rectangle's
        lattice samples.
        """
        s = self.samples_per_cell
        mins = self.values
        for k in range(self.grid.dim):
            n = self.grid.cells(k)
            rest = mins.shape[1:]
            points = mins[::s]
            cell = np.minimum(mins[:-1].reshape(n, s, *rest).min(axis=1), points[1:])
            pairs = np.full((n + 1, n + 1, *rest), -np.inf)
            pairs[0, 0] = points[0]
            for hi in range(1, n + 1):
                pairs[:hi, hi] = np.minimum(pairs[:hi, hi - 1], cell[hi - 1])
                pairs[hi, hi] = points[hi]
            # the next lattice axis comes to the front, the finished pair goes last
            mins = np.moveaxis(pairs, (0, 1), (-2, -1))
        m = self.grid.dim
        return np.ascontiguousarray(mins.transpose([*range(0, 2 * m, 2), *range(1, 2 * m, 2)]))


def samples_per_cell_for(lipschitz: float, cells_per_unit: int, target_margin: float) -> int:
    if target_margin <= 0:
        raise ValueError("target margin must be positive")
    if lipschitz == 0.0:
        return 1
    return max(1, math.ceil(lipschitz / (2.0 * cells_per_unit * target_margin)))


def delta_sets(
    f: FuncExpr, grid: GridSpec, spec: SliceSpec, budget: BuildBudget = DEFAULT_BUDGET
) -> list[list[HyperRect]]:
    """For every slice k, the maximal grid rectangles whose sampled minimum clears level k+1.

    All minima come from one lattice, so a sub-rectangle's minimum is never
    below its parent's and each slice's members are closed under taking
    sub-rectangles, which is what ``prune_maximal`` needs.
    """
    candidates = grid.rect_count()
    if candidates > budget.max_candidates:
        raise BuildBudgetError(
            f"{candidates} candidate rectangles exceed the budget {budget.max_candidates}; "
            f"raise delta or lower the input dimension (enumeration grows like M^(2m))"
        )
    target = spec.delta / RECT_MARGIN_FRACTION
    table = CellMinTable(f, grid, samples_per_cell_for(f.lipschitz, grid.cells_per_unit, target), budget)
    mins = table.all_rect_mins()
    return [prune_maximal(mins >= level, grid) for level in spec.levels[1:]]


def _source(b: NetworkBuilder) -> int:
    """The input vector: the concat of every input, or the single input itself."""
    return b.concat(b.input_ids) if b.input_dim > 1 else b.input_id(0)


def _constant(b: NetworkBuilder, value: float) -> int:
    """Append the input source and a zero-weight affine row that outputs ``value``."""
    return b.affine(_source(b), [[0.0] * b.input_dim], [float(value)])


def build_slice_network(b: NetworkBuilder, delta_k: Sequence[HyperRect], grid: GridSpec) -> int:
    """Append a slice: clip-to-one of the sum of bumps; constant zero when empty."""
    if not delta_k:
        return _constant(b, 0.0)
    source = _source(b)
    bumps = [append_local_bump(b, grid, rect, source) for rect in sorted(delta_k)]
    total = b.sum(bumps) if len(bumps) > 1 else bumps[0]
    return append_clip_above(b, total, 1.0)


def sum_outputs(b: NetworkBuilder, outs: Sequence[int], coefficient: float, bias: float) -> int:
    """Append ``bias + coefficient * sum(outs)`` over scalar nodes: one concat, one affine row."""
    return b.affine(b.concat(outs), [[coefficient] * len(outs)], [bias])


def _finalize(
    b: NetworkBuilder,
    out: int,
    f: FuncExpr,
    requested: float,
    adjusted: float,
    spec_count: int,
    cells: int,
    lipschitz: float,
    domain: BoxRegion,
    bumps: tuple[int, ...],
    candidates: int,
    started: float,
    levels: tuple[float, ...] = (),
) -> tuple[Network, BuildReport]:
    metadata = {
        "generator": "boxcert-build",
        "expression": f.source,
        "domain": format_box_text(domain, hex_floats=True),
        "delta_requested": float(requested).hex(),
        "delta": float(adjusted).hex(),
        "slices": str(spec_count),
        "cells_per_unit": str(cells),
        "lipschitz": float(lipschitz).hex(),
        "bumps": ",".join(str(n) for n in bumps),
    }
    if levels:
        metadata["levels"] = " ".join(float(v).hex() for v in levels)
    net = b.finish(out, metadata)
    counts = stats(net)
    report = BuildReport(
        expression=f.source,
        requested_delta=requested,
        delta=adjusted,
        slice_count=spec_count,
        cells_per_unit=cells,
        lipschitz=lipschitz,
        domain=domain,
        bumps_per_slice=bumps,
        candidate_rects=candidates,
        relu_count=counts["relu_count"],
        node_count=counts["node_count"],
        build_seconds=time.perf_counter() - started,
    )
    return net, report


def build_certified_network(
    f: FuncExpr, delta: float, budget: BuildBudget = DEFAULT_BUDGET
) -> tuple[Network, BuildReport]:
    """Build a network whose propagated intervals bracket f's range within delta."""
    started = time.perf_counter()
    if delta <= 0:
        raise ValueError("delta must be positive")

    # The grid snaps the domain outward to index points, and the Lipschitz
    # bound and range must be certified over the snapped domain; iterate the
    # sizing until the domain stops moving (immediately, for grid-aligned
    # corners).
    domain = f.domain
    spec: SliceSpec | None = None
    cells = 1
    lipschitz = 0.0
    for _ in range(8):
        fd = f.with_domain(domain)
        lipschitz = fd.lipschitz
        if lipschitz == 0.0:
            b = NetworkBuilder(f.dim)
            out = _constant(b, fd.eval([iv.mid for iv in domain.bounds]))
            return _finalize(b, out, fd, delta, 0.0, 1, 1, 0.0, domain, (0,), 0, started)
        cmin, cmax = certified_box_range(
            fd, domain, delta / RANGE_MARGIN_FRACTION, budget.max_oracle_samples
        )
        spec = make_slice_spec(cmin.value, cmax.value, delta)
        if spec.delta == 0.0:
            # flat sampled range but nonzero Lipschitz bound: the constant
            # network is still within delta because the range margin is far
            # below delta/2, and that is the honest tolerance to report
            b = NetworkBuilder(f.dim)
            out = _constant(b, cmin.value)
            return _finalize(b, out, fd, delta, delta, 1, 1, lipschitz, domain, (0,), 0, started)
        cells = grid_resolution(lipschitz, spec.delta)
        snapped = GridSpec.for_box(f.domain, cells).domain
        if snapped == domain:
            break
        domain = snapped
    else:
        raise BuildBudgetError("grid sizing did not stabilize; check the domain bounds")

    assert spec is not None
    fd = f.with_domain(domain)
    grid = GridSpec.for_box(f.domain, cells)
    slice_sets = delta_sets(fd, grid, spec, budget)
    total_bumps = sum(len(s) for s in slice_sets)
    if total_bumps > budget.max_bumps:
        raise BuildBudgetError(
            f"{total_bumps} bumps exceed the budget {budget.max_bumps}; raise delta"
        )

    b = NetworkBuilder(f.dim)
    outs = [build_slice_network(b, members, grid) for members in slice_sets]
    return _finalize(
        b,
        sum_outputs(b, outs, spec.half_delta, spec.bottom),
        fd,
        delta,
        spec.delta,
        spec.count,
        cells,
        lipschitz,
        domain,
        tuple(len(s) for s in slice_sets),
        grid.rect_count(),
        started,
        levels=spec.levels,
    )
