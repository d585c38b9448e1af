"""End-to-end construction of a certified network for an expression-defined f.

Pipeline: certify the range of f, slice it into slabs half a tolerance tall,
pick a grid fine enough that one cell moves f by at most half a slab, fill one
table holding, for every grid hyperrectangle, how many slices' upper levels its
sampled minimum clears, select every slice's maximal rectangles from that
table in one pass, sum a local bump per selected rectangle, clip, and stack the
slices back up from the bottom level. Each slice is ``1 - R(1 - sum of bumps)``
with the sum folded into its first affine row, and the stack is one affine row
over the slices.

The network is assembled in layers from the selected rectangles' corner
arrays (``gadgets``): the input map, the distinct ramps (an affine node, its
relu and the ``1 - r`` node), one bump row per rectangle and its relu, one clip
row per distinct non-empty slice and its relu, the slices, and the final sum:
``m + 9`` nodes on the unit box, one more elsewhere, however many bumps it
holds.

Every network is built on the unit box: the grid has ``cells[k]`` cells along
axis k of [0, 1]^m, sized from the domain's width on that axis, and the network
first maps its input through ``A: x -> (x - lo) / w`` (left out when the domain
is the unit box already). A grid rectangle's hull is the image under A's
inverse of its unit-box corners, so the requested domain is the one certified.

Membership uses the sampled (upper) end of the certified minimum. Any box that
exceeds a slice's level by half a slab snaps to an enclosing rectangle whose
true minimum still clears the level, so that rectangle (or a member containing
it) is always selected; conversely every selected rectangle has a true minimum
within the sampling margin of the level, and the margin is capped well below
half a slab, which is what forces distant boxes to propagate to exactly zero
through the slice.

The checks that refuse a build, in the order they fire: the range pass needs
more than ``oracle.SAMPLE_CAP`` samples (``OracleBudgetError``); an axis needs
more grid cells than a double holds, the candidate rectangles exceed
``BuildBudget.max_candidates``, the lattice needs more than
``oracle.SAMPLE_CAP`` samples, or the bumps exceed ``BUMP_CAP`` (each a
``BuildBudgetError``). Only the candidate cap can be set; every other refusal
says to raise delta.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import oracle
from .expr import FuncExpr
from .gadgets import append_bumps, append_ramps, append_slice_clips
from .grids import GridSpec, RectCorners, prune_maximal
from .intervals import BoxRegion
from .netio import format_box_text
from .network import Network, NetworkBuilder, stats
from .oracle import certified_box_range, count_text
from .slicing import SliceSpec, make_slice_spec

RANGE_MARGIN_FRACTION = 16.0  # range margin target: delta / 16
RECT_MARGIN_FRACTION = 8.0  # per-rectangle margin target: delta' / 8
BUMP_CAP = 100_000  # the most bumps one network may sum


@dataclass(frozen=True)
class BuildBudget:
    """A build's one settable limit: how many candidate grid rectangles it may enumerate."""

    max_candidates: int = 5_000_000


class BuildBudgetError(RuntimeError):
    """The build would exceed its resource budget; fail fast with sizing advice."""


@dataclass(frozen=True)
class BuildReport:
    expression: str
    requested_delta: float
    delta: float
    slice_count: int
    cells_per_unit: tuple[int, ...]  # grid cells along each axis of the unit box
    lipschitz: float
    domain: BoxRegion
    bumps_per_slice: tuple[int, ...]
    candidate_rects: int
    relu_count: int
    node_count: int
    build_seconds: float  # wall-clock time: printed by the CLI, kept out of the document

    def to_document(self) -> str:
        lines = [
            "boxcert-report 1",
            f"expression {self.expression}",
            f"requested_delta {self.requested_delta!r}",
            f"delta {self.delta!r}",
            f"slices {self.slice_count}",
            f"cells_per_unit {format_cells(self.cells_per_unit)}",
            f"lipschitz {self.lipschitz!r}",
            f"domain {format_box_text(self.domain, hex_floats=False)}",
            f"bumps_per_slice {','.join(str(n) for n in self.bumps_per_slice)}",
            f"candidate_rects {self.candidate_rects}",
            f"relu_count {self.relu_count}",
            f"node_count {self.node_count}",
        ]
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_document())


def format_cells(cells: Sequence[int]) -> str:
    """Per-axis cell counts as text: one integer when every axis has the same count."""
    return str(cells[0]) if len(set(cells)) == 1 else ",".join(str(c) for c in cells)


def grid_resolution(lipschitz: float, delta: float, width: float, axis: int) -> int:
    """Smallest cell count on an axis ``width`` wide so one cell moves f by at most delta/2.

    ``axis`` names the axis in the error raised when the count is not finite.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if lipschitz < 0:
        raise ValueError("Lipschitz bound must be nonnegative")
    cells = width * (2.0 * lipschitz / delta)
    if not math.isfinite(cells):
        raise BuildBudgetError(
            f"axis {axis} ({width!r} wide) needs {cells} grid cells at delta {delta!r}; raise delta"
        )
    return max(1, math.ceil(cells))


def cell_density(grid: GridSpec, domain: BoxRegion) -> float:
    """Cells per unit of input along the axis with the widest cells; inf on a point domain."""
    return min((c / iv.width for c, iv in zip(grid.cells, domain.bounds) if iv.width > 0), default=math.inf)


class CellMinTable:
    """Sampled minima of f over grid-rectangle hulls, from one shared lattice.

    The lattice spans f's domain with ``cells[k] * samples_per_cell``
    intervals along axis k, so it subdivides every grid cell
    ``samples_per_cell`` times and includes all cell boundaries. The minimum
    over a rectangle's hull is then a contiguous-slab minimum with
    certificate margin L / (2 d s), where 1/d is the widest cell's width.
    """

    def __init__(self, f: FuncExpr, grid: GridSpec, samples_per_cell: int):
        if samples_per_cell < 1:
            raise ValueError("samples_per_cell must be at least 1")
        self.grid = grid
        self.samples_per_cell = samples_per_cell
        shape = tuple(c * samples_per_cell + 1 for c in grid.cells)
        total = math.prod(shape)
        if total > oracle.SAMPLE_CAP:
            raise BuildBudgetError(
                f"lattice of {total} samples exceeds the fixed oracle budget {oracle.SAMPLE_CAP}; raise delta"
            )
        axes = [np.linspace(iv.lo, iv.hi, n) for iv, n in zip(f.domain.bounds, shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.reshape(-1) for g in mesh], axis=1)
        self.values = f.eval_many(pts).reshape(shape)

    def all_rect_mins(self, levels: Sequence[float]) -> np.ndarray:
        """For every grid rectangle's hull, how many of ``levels[1:]`` its sampled minimum clears.

        A lattice sample ``v`` maps to the number of ``levels[1:]`` at or
        below it (0 for NaN), in the narrowest unsigned dtype that holds the
        slice count; slice k then holds a rectangle exactly when
        ``k < table[rect]``. The levels are non-decreasing, so the map is
        monotone and commutes with ``min``: the table equals the rectangles'
        float minima mapped entry by entry, at one byte an entry up to 255
        slices.

        The table is indexed by ``(lo_0..lo_{m-1}, hi_0..hi_{m-1})`` by grid
        point index, and holds 0 where some ``lo_k > hi_k``. Each lattice axis
        in turn becomes a ``(lo, hi)`` pair of axes: per-cell slab minima, both
        boundary lines included, feed the running minimum
        ``min[lo, hi] = min(min[lo, hi-1], cell[hi-1])``.
        """
        tops = np.asarray(levels[1:], dtype=float)
        index = np.searchsorted(tops, self.values, side="right")
        index[np.isnan(self.values)] = 0
        mins = index.astype(np.min_scalar_type(len(tops)))
        s = self.samples_per_cell
        for k in range(self.grid.dim):
            n = self.grid.cells[k]
            rest = mins.shape[1:]
            points = mins[::s]
            cell = np.minimum(mins[:-1].reshape(n, s, *rest).min(axis=1), points[1:])
            pairs = np.zeros((n + 1, n + 1, *rest), mins.dtype)
            pairs[0, 0] = points[0]
            for hi in range(1, n + 1):
                pairs[:hi, hi] = np.minimum(pairs[:hi, hi - 1], cell[hi - 1])
                pairs[hi, hi] = points[hi]
            # the next lattice axis comes to the front, the finished pair goes last
            mins = np.moveaxis(pairs, (0, 1), (-2, -1))
        m = self.grid.dim
        return np.ascontiguousarray(mins.transpose([*range(0, 2 * m, 2), *range(1, 2 * m, 2)]))


def samples_per_cell_for(lipschitz: float, density: float, target_margin: float) -> int:
    """Lattice points per cell so the margin L / (2 * density * s) is at most the target."""
    if target_margin <= 0:
        raise ValueError("target margin must be positive")
    if lipschitz == 0.0:
        return 1
    return max(1, math.ceil(lipschitz / (2.0 * density * target_margin)))


def delta_sets(f: FuncExpr, grid: GridSpec, spec: SliceSpec, budget: BuildBudget = BuildBudget()) -> RectCorners:
    """Every slice's maximal grid rectangles: slice k's sampled minimum clears level k+1.

    All minima come from one lattice, so a sub-rectangle's minimum is never
    below its parent's and each slice's members are closed under taking
    sub-rectangles. The slices are nested, so one table of slice counts
    (``CellMinTable.all_rect_mins``) holds them all, and one
    ``prune_maximal`` pass over it selects every slice's maximal rectangles,
    each with the slices it is maximal in.
    """
    candidates = grid.rect_count()
    if candidates > budget.max_candidates:
        raise BuildBudgetError(
            f"{count_text(candidates)} candidate rectangles exceed the budget {budget.max_candidates}; "
            f"raise delta or lower the input dimension (enumeration grows like the product of cells[k]^2)"
        )
    target = spec.delta / RECT_MARGIN_FRACTION
    s = samples_per_cell_for(f.lipschitz, cell_density(grid, f.domain), target)
    table = CellMinTable(f, grid, s)
    return prune_maximal(table.all_rect_mins(spec.levels), grid)


def bumps_per_slice(corners: RectCorners, count: int) -> tuple[int, ...]:
    """How many of the rectangles each of ``count`` slices holds."""
    change = np.bincount(corners.first, minlength=count + 1) - np.bincount(corners.stop, minlength=count + 1)
    return tuple(itertools.accumulate(change[:count].tolist()))


def _source(b: NetworkBuilder, domain: BoxRegion) -> list[int]:
    """The input vector mapped onto the unit box by ``x -> (x - lo) / w`` per axis.

    On the unit box the map is left out and the input nodes are the source.
    A zero-width axis keeps ``x - lo``.
    """
    if all(iv.lo == 0.0 and iv.hi == 1.0 for iv in domain.bounds):
        return b.input_ids
    scales = [1.0 / iv.width if iv.width > 0 else 1.0 for iv in domain.bounds]
    bias = [-(iv.lo * r) for iv, r in zip(domain.bounds, scales)]
    return [b.csr_affine(b.input_ids, np.ones(b.input_dim, dtype=np.intp), np.arange(b.input_dim), scales, bias)]


def _constant(b: NetworkBuilder, values: Sequence[float]) -> int:
    """Append an affine node over the inputs whose rows have no terms: it outputs ``values``."""
    return b.csr_affine(b.input_ids, np.zeros(len(values), dtype=np.intp), (), (), values)


def build_slice_network(
    b: NetworkBuilder, corners: RectCorners, count: int, grid: GridSpec, domain: BoxRegion
) -> int:
    """Append all ``count`` slices as one node with a column per slice, on ``domain`` mapped onto the unit box.

    A slice is the clip-to-one of the sum of its bumps, or 0 when it has none.
    """
    if not len(corners):
        return _constant(b, [0.0] * count)
    ramps, operands = append_ramps(b, _source(b, domain), grid, corners.lo, corners.hi)
    return append_slice_clips(b, append_bumps(b, ramps, operands), corners.first, corners.stop, count)


def sum_outputs(b: NetworkBuilder, outs: Sequence[int], coefficient: float, bias: float) -> int:
    """Append ``bias + coefficient * sum(outs)`` over every output of ``outs``: one affine row."""
    width = sum(b.arity(o) for o in outs)
    return b.csr_affine(outs, [width], np.arange(width), np.full(width, coefficient), [bias])


def build_certified_network(
    f: FuncExpr, delta: float, budget: BuildBudget = BuildBudget()
) -> tuple[Network, BuildReport]:
    """Build a network whose propagated intervals bracket f's range within delta."""
    started = time.perf_counter()
    if not delta > 0:
        raise ValueError("delta must be positive")

    domain = f.domain
    b = NetworkBuilder(f.dim)
    # a constant network has one slice, one cell per axis and no bumps
    count, cells, bumps, candidates, levels = 1, (1,) * f.dim, (0,), 0, ()
    if f.lipschitz == 0.0:
        adjusted, out = 0.0, _constant(b, [f.eval([iv.mid for iv in domain.bounds])])
    else:
        cmin, cmax = certified_box_range(f, domain, delta / RANGE_MARGIN_FRACTION)
        spec = make_slice_spec(cmin.value, cmax.value, delta)
        if spec.delta == 0.0:
            # flat sampled range but nonzero Lipschitz bound: the constant
            # network is still within delta because the range margin is far
            # below delta/2, and that is the honest tolerance to report
            adjusted, out = delta, _constant(b, [cmin.value])
        else:
            adjusted = spec.delta
            grid = GridSpec(tuple(
                grid_resolution(f.lipschitz, spec.delta, iv.width, axis) for axis, iv in enumerate(domain.bounds)
            ))
            corners = delta_sets(f, grid, spec, budget)
            bumps = bumps_per_slice(corners, spec.count)
            if sum(bumps) > BUMP_CAP:
                raise BuildBudgetError(f"{sum(bumps)} bumps exceed the fixed budget {BUMP_CAP}; raise delta")
            slices = build_slice_network(b, corners, spec.count, grid, domain)
            out = sum_outputs(b, [slices], spec.half_delta, spec.bottom)
            count, cells, candidates, levels = spec.count, grid.cells, grid.rect_count(), spec.levels

    metadata = {
        "generator": "boxcert-build",
        "expression": f.source,
        "domain": format_box_text(domain, hex_floats=True),
        "delta_requested": float(delta).hex(),
        "delta": float(adjusted).hex(),
        "slices": str(count),
        "cells_per_unit": format_cells(cells),
        "lipschitz": float(f.lipschitz).hex(),
        "bumps": ",".join(str(n) for n in bumps),
    }
    if levels:
        metadata["levels"] = " ".join(float(v).hex() for v in levels)
    net = b.finish(out, metadata)
    counts = stats(net)
    report = BuildReport(
        expression=f.source,
        requested_delta=delta,
        delta=adjusted,
        slice_count=count,
        cells_per_unit=cells,
        lipschitz=f.lipschitz,
        domain=domain,
        bumps_per_slice=bumps,
        candidate_rects=candidates,
        relu_count=counts["relu_count"],
        node_count=counts["node_count"],
        build_seconds=time.perf_counter() - started,
    )
    return net, report
