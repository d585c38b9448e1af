"""Verification campaigns: does propagation bracket the true range on sub-boxes?

For each sampled box B with certified extrema l and u (each an interval from
the sampling oracle) and network tolerance d, two containments are checked:

* lower:  [l.hi + d, u.lo - d]  inside  propagated(B)   (skipped as "vacuous"
  when the required interval is empty),
* upper:  propagated(B)  inside  [l.lo - d, u.hi + d].

Both checks fold the oracle margin so that a correctly built network can never
be blamed for oracle slack; a reported failure is a real violation beyond
margin and tolerance. Reports are deterministic: the same config produces a
byte-identical report document (wall-clock time is kept out of it).

A campaign is columnar from start to end: ``sample_boxes`` draws the boxes as
``lo``/``hi`` arrays, the compiled program propagates them, the oracle returns
its extrema as columns (``BoxRanges``) and ``_check`` computes every status and
violation at once. ``VerificationReport`` keeps those columns and writes its
document from them; its ``records``, one ``BoxRecord`` per box, are built on
first access.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .expr import FuncExpr
from .intervals import BoxRegion, Interval
from .netio import format_box_text, parse_box_text
from .network import Network, eval_abstract
from .oracle import BoxRanges, CertifiedBound, certified_box_ranges

MARGIN_FRACTION = 8.0  # per-box oracle margin target: delta / 8
LINE_BOXES = 1024  # boxes whose report lines are made from one conversion of the columns

# The campaign samples all its boxes through this module-level name, which
# bench/spans.py times as the ``oracle.range`` span.
certified_box_range = certified_box_ranges


@dataclass(frozen=True)
class RunConfig:
    boxes: int
    seed: int
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        if self.boxes < 0:
            raise ValueError("box count must be nonnegative")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be nonnegative and finite, got {self.tolerance!r}")


@dataclass(frozen=True)
class BoxRecord:
    box: BoxRegion
    cmin: CertifiedBound | None
    cmax: CertifiedBound | None
    propagated: Interval | None
    lower_status: str  # holds | vacuous | fail | inconclusive
    upper_status: str  # holds | fail | inconclusive
    violation: float

    @property
    def failed(self) -> bool:
        return self.lower_status == "fail" or self.upper_status == "fail"

    @property
    def inconclusive(self) -> bool:
        return self.lower_status == "inconclusive"


STATUSES = ("holds", "vacuous", "fail", "inconclusive")  # the codes in a report's status columns
HOLDS, VACUOUS, FAIL, INCONCLUSIVE = range(4)


@dataclass(frozen=True, eq=False)
class VerificationReport:
    """A campaign's columns, one entry per box: the box, its certified extrema, its propagated interval and verdicts.

    ``status`` holds indices into ``STATUSES``. An inconclusive
    box (over the oracle's ``SAMPLE_CAP``) has both statuses inconclusive and
    violation 0.0.
    """

    delta: float
    config: RunConfig
    lo: np.ndarray  # (boxes, dim)
    hi: np.ndarray  # (boxes, dim)
    ranges: BoxRanges
    prop_lo: np.ndarray  # (boxes,)
    prop_hi: np.ndarray  # (boxes,)
    status: np.ndarray  # (2, boxes): the lower and the upper check's codes
    violation: np.ndarray
    runtime_seconds: float = 0.0

    @functools.cached_property
    def records(self) -> tuple[BoxRecord, ...]:
        records = []
        for lo, hi, bounds, prop_lo, prop_hi, lower, upper, violation in zip(
            self.lo.tolist(), self.hi.tolist(), map(self.ranges.bounds, range(len(self.lo))),
            self.prop_lo.tolist(), self.prop_hi.tolist(), *self.status.tolist(),
            self.violation.tolist(),
        ):
            box = BoxRegion.from_pairs(list(zip(lo, hi)))
            if bounds is None:
                records.append(BoxRecord(box, None, None, None, "inconclusive", "inconclusive", 0.0))
            else:
                prop = Interval(prop_lo, prop_hi)
                records.append(BoxRecord(box, *bounds, prop, STATUSES[lower], STATUSES[upper], violation))
        return tuple(records)

    @property
    def failures(self) -> int:
        return int(np.count_nonzero((self.status == FAIL).any(axis=0)))

    @property
    def inconclusive(self) -> int:
        return int(np.count_nonzero(self.status[0] == INCONCLUSIVE))

    @property
    def max_violation(self) -> float:
        return float(self.violation.max(initial=0.0))

    def lines(self) -> Iterator[str]:
        """The report document line by line, each with its newline, converting ``LINE_BOXES`` boxes at a time."""
        yield "boxcert-verify 1\n"
        yield f"config boxes {self.config.boxes}\n"
        yield f"config seed {self.config.seed}\n"
        yield f"config tolerance {self.config.tolerance!r}\n"
        yield f"config delta {self.delta!r}\n"
        r = self.ranges
        for at in range(0, len(self.lo), LINE_BOXES):
            part = slice(at, at + LINE_BOXES)
            for i, (lo, hi, ok, vmin, vmax, margin, prop_lo, prop_hi, lower, upper, violation) in enumerate(zip(
                self.lo[part].tolist(), self.hi[part].tolist(), r.ok[part].tolist(), r.vmin[part].tolist(),
                r.vmax[part].tolist(), r.margin[part].tolist(), self.prop_lo[part].tolist(),
                self.prop_hi[part].tolist(), *self.status[:, part].tolist(), self.violation[part].tolist(),
            ), at):
                box_text = ";".join([f"{a!r},{b!r}" for a, b in zip(lo, hi)])
                if not ok:
                    yield f"box {i} {box_text} inconclusive\n"
                    continue
                yield (
                    f"box {i} {box_text} "
                    f"min {vmin!r} margin {margin!r} "
                    f"max {vmax!r} margin {margin!r} "
                    f"prop {prop_lo!r} {prop_hi!r} "
                    f"lower {STATUSES[lower]} upper {STATUSES[upper]} "
                    f"violation {violation!r}\n"
                )
        yield (
            f"summary boxes {len(self.lo)} failures {self.failures} "
            f"inconclusive {self.inconclusive} max_violation {self.max_violation!r} "
            f"delta {self.delta!r} seed {self.config.seed}\n"
        )

    def to_document(self) -> str:
        return "".join(self.lines())

    def save(self, path: str) -> None:
        """Write the document as its lines come, so that it is never held whole."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self.lines())

    def summary_text(self) -> str:
        return (
            f"boxes {len(self.lo)}  failures {self.failures}  "
            f"inconclusive {self.inconclusive}  max violation {self.max_violation:g}  "
            f"delta {self.delta:g}  runtime {self.runtime_seconds:.2f}s"
        )


def network_delta(net: Network) -> float:
    if "delta" not in net.metadata:
        raise ValueError("network metadata carries no tolerance; was it built by the builder?")
    return float.fromhex(net.metadata["delta"])


def network_domain(net: Network) -> BoxRegion:
    if "domain" not in net.metadata:
        raise ValueError("network metadata carries no domain; was it built by the builder?")
    return parse_box_text(net.metadata["domain"])


def sample_boxes(domain: BoxRegion, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper corners, ``(count, dim)`` each, of ``count`` boxes of the domain.

    First the domain itself, then a coarse corner lattice, then seeded random
    sub-boxes. The point boxes exercise the degenerate case where propagation
    must match concrete evaluation; each random one takes two
    ``random.uniform`` draws per axis, axis by axis and box by box. When the
    domain is the symmetric two-unit box, its inner unit box follows the
    domain as a standard adversarial case.
    """
    m = domain.dim
    lows = [b.lo for b in domain.bounds]
    widths = [b.hi - b.lo for b in domain.bounds]
    specials = [[(b.lo, b.hi) for b in domain.bounds]]
    if all(b.lo == -2.0 and b.hi == 2.0 for b in domain.bounds):
        specials.append([(-1.0, 1.0)] * m)
    lattice_axes = [[a + t * w / 4.0 for t in range(5)] for a, w in zip(lows, widths)]
    corners = itertools.islice(itertools.product(*lattice_axes), max(0, count - len(specials)))
    specials.extend([(v, v) for v in x] for x in corners)
    specials = specials[:count]
    rng = random.Random(seed)
    draws = np.array([rng.random() for _ in range(2 * m * (count - len(specials)))])
    boxes = np.empty((count, m, 2))  # per box and axis: lower and upper end
    boxes[: len(specials)] = np.reshape(specials, (-1, m, 2))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        # two random.uniform(lo, hi) draws per axis, lo + (hi - lo) * random()
        pairs = boxes[len(specials) :]
        np.add(np.reshape(lows, (m, 1)), np.reshape(widths, (m, 1)) * draws.reshape(-1, m, 2), out=pairs)
    # Neither draw is -0.0 (a sum with a nonnegative product), so sorting
    # each pair gives Python's min and max bit for bit.
    pairs.sort(axis=2)
    if not np.isfinite(boxes).all():
        raise ValueError(
            f"cannot sample boxes of the domain {format_box_text(domain, hex_floats=False)}: "
            "its corner lattice or random boxes leave the finite doubles"
        )
    return boxes[:, :, 0], boxes[:, :, 1]


def _check(ranges: BoxRanges, prop_lo: np.ndarray, prop_hi: np.ndarray, delta: float, tolerance: float):
    """Both inclusions of the sandwich for every box: its lower and upper status codes, ``(2, boxes)``, and its violation.

    ``prop_lo``/``prop_hi`` are the propagated intervals, ``(boxes, 1)``. A
    violation is the largest positive gap of a failed check, else ``+0.0``;
    a NaN gap fails its check but is never the violation.
    """
    if prop_lo.shape[1] != 1:
        raise ValueError("verification expects a scalar-output network")
    prop_lo = prop_lo[:, 0]
    prop_hi = prop_hi[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):  # extrema may be infinite or NaN
        required_lo = ranges.vmin + delta
        required_hi = ranges.vmax - delta
        gaps = np.array([  # the lower check's two gaps, then the upper check's
            prop_lo - required_lo,
            required_hi - prop_hi,
            ranges.vmin - ranges.margin - delta - prop_lo,
            prop_hi - (ranges.vmax + ranges.margin + delta),
        ])
        holds = gaps <= tolerance
        vacuous = required_lo > required_hi
        failed = ~(holds[0::2] & holds[1::2])
        failed[0] &= ~vacuous
        failed &= ranges.ok
        violation = np.where(failed.repeat(2, axis=0) & (gaps > 0.0), gaps, 0.0).max(axis=0)
    status = np.where(failed, FAIL, HOLDS)
    status[0, vacuous] = VACUOUS
    status[:, ~ranges.ok] = INCONCLUSIVE
    return status, violation


def check_box(
    net: Network, f: FuncExpr, box: BoxRegion, delta: float, config: RunConfig
) -> BoxRecord:
    """One box's record: the one-box case of a campaign's check."""
    prop_box = eval_abstract(net, box)
    lo = np.array([[b.lo for b in box.bounds]])
    hi = np.array([[b.hi for b in box.bounds]])
    prop_lo = np.array([[b.lo for b in prop_box.bounds]])
    prop_hi = np.array([[b.hi for b in prop_box.bounds]])
    ranges = certified_box_range(f, lo, hi, _margin_target(delta))
    checks = _check(ranges, prop_lo, prop_hi, delta, config.tolerance)
    return VerificationReport(delta, config, lo, hi, ranges, prop_lo[:, 0], prop_hi[:, 0], *checks).records[0]


def _margin_target(delta: float) -> float:
    return delta / MARGIN_FRACTION if delta > 0 else 1e-6


def verify_network(net: Network, f: FuncExpr, config: RunConfig) -> VerificationReport:
    started = time.perf_counter()
    delta = network_delta(net)
    domain = network_domain(net)
    fd = f.with_domain(domain)
    lo, hi = sample_boxes(domain, config.boxes, config.seed)
    prop_lo, prop_hi = net.program.run(lo, hi)
    ranges = certified_box_range(fd, lo, hi, _margin_target(delta))
    checks = _check(ranges, prop_lo, prop_hi, delta, config.tolerance)
    return VerificationReport(
        delta, config, lo, hi, ranges, prop_lo[:, 0], prop_hi[:, 0], *checks, time.perf_counter() - started
    )
