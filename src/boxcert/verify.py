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
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field

from .expr import FuncExpr
from .intervals import BoxRegion, Interval
from .netio import parse_box_text
from .network import Network, eval_abstract, eval_abstract_many
from .oracle import DEFAULT_SAMPLE_BUDGET, Bounds, CertifiedBound, certified_box_ranges

MARGIN_FRACTION = 8.0  # per-box oracle margin target: delta / 8

# The campaign samples all its boxes through this module-level name, which
# bench/spans.py times as the ``oracle.range`` span.
certified_box_range = certified_box_ranges


@dataclass(frozen=True)
class RunConfig:
    boxes: int
    seed: int
    tolerance: float = 1e-9
    oracle_budget: int = DEFAULT_SAMPLE_BUDGET

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


@dataclass
class VerificationReport:
    delta: float
    config: RunConfig
    records: list[BoxRecord] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def failures(self) -> int:
        return sum(1 for r in self.records if r.failed)

    @property
    def inconclusive(self) -> int:
        return sum(1 for r in self.records if r.inconclusive)

    @property
    def max_violation(self) -> float:
        return max((r.violation for r in self.records), default=0.0)

    def to_document(self) -> str:
        lines = [
            "boxcert-verify 1",
            f"config boxes {self.config.boxes}",
            f"config seed {self.config.seed}",
            f"config tolerance {self.config.tolerance!r}",
            f"config delta {self.delta!r}",
        ]
        for i, r in enumerate(self.records):
            box_text = ";".join(f"{b.lo!r},{b.hi!r}" for b in r.box.bounds)
            if r.cmin is None or r.cmax is None or r.propagated is None:
                lines.append(f"box {i} {box_text} inconclusive")
                continue
            lines.append(
                f"box {i} {box_text} "
                f"min {r.cmin.value!r} margin {r.cmin.margin!r} "
                f"max {r.cmax.value!r} margin {r.cmax.margin!r} "
                f"prop {r.propagated.lo!r} {r.propagated.hi!r} "
                f"lower {r.lower_status} upper {r.upper_status} "
                f"violation {r.violation!r}"
            )
        lines.append(
            f"summary boxes {len(self.records)} failures {self.failures} "
            f"inconclusive {self.inconclusive} max_violation {self.max_violation!r} "
            f"delta {self.delta!r} seed {self.config.seed}"
        )
        return "\n".join(lines) + "\n"

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_document())

    def summary_text(self) -> str:
        return (
            f"boxes {len(self.records)}  failures {self.failures}  "
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


def sample_boxes(domain: BoxRegion, count: int, seed: int) -> list[BoxRegion]:
    """The domain itself, a coarse corner lattice, then seeded random sub-boxes.

    The point boxes exercise the degenerate case where propagation must match
    concrete evaluation; the random ones come from two uniform draws per axis.
    When the domain is the symmetric two-unit box, its inner unit box is added
    as a standard adversarial case.
    """
    m = domain.dim
    specials: list[BoxRegion] = [domain]
    if all(b.lo == -2.0 and b.hi == 2.0 for b in domain.bounds):
        specials.append(BoxRegion.from_pairs([(-1.0, 1.0)] * m))
    lattice_axes = [
        [b.lo + t * (b.hi - b.lo) / 4.0 for t in range(5)] for b in domain.bounds
    ]
    corners = itertools.islice(itertools.product(*lattice_axes), max(0, count - len(specials)))
    specials.extend(BoxRegion.point(x) for x in corners)
    rng = random.Random(seed)
    boxes = specials[:count]
    while len(boxes) < count:
        pairs = []
        for b in domain.bounds:
            p = rng.uniform(b.lo, b.hi)
            q = rng.uniform(b.lo, b.hi)
            pairs.append((min(p, q), max(p, q)))
        boxes.append(BoxRegion.from_pairs(pairs))
    return boxes


def check_box(
    net: Network, f: FuncExpr, box: BoxRegion, delta: float, config: RunConfig
) -> BoxRecord:
    prop_box = eval_abstract(net, box)
    (bounds,) = certified_box_range(f, [box], _margin_target(delta), config.oracle_budget)
    return _check(box, bounds, prop_box, delta, config)


def _check(
    box: BoxRegion, bounds: Bounds | None, prop_box: BoxRegion, delta: float, config: RunConfig
) -> BoxRecord:
    """Check both inclusions of the sandwich for one box, its certified extrema and its propagated interval."""
    if bounds is None:
        return BoxRecord(box, None, None, None, "inconclusive", "inconclusive", 0.0)
    cmin, cmax = bounds
    if prop_box.dim != 1:
        raise ValueError("verification expects a scalar-output network")
    prop = prop_box.bounds[0]
    tol = config.tolerance

    required_lo = cmin.hi + delta
    required_hi = cmax.lo - delta
    violation = 0.0
    if required_lo > required_hi:
        lower_status = "vacuous"
    else:
        lo_gap = prop.lo - required_lo
        hi_gap = required_hi - prop.hi
        if lo_gap <= tol and hi_gap <= tol:
            lower_status = "holds"
        else:
            lower_status = "fail"
            violation = max(violation, lo_gap, hi_gap)

    bound_lo = cmin.lo - delta
    bound_hi = cmax.hi + delta
    lo_gap = bound_lo - prop.lo
    hi_gap = prop.hi - bound_hi
    if lo_gap <= tol and hi_gap <= tol:
        upper_status = "holds"
    else:
        upper_status = "fail"
        violation = max(violation, lo_gap, hi_gap)

    return BoxRecord(box, cmin, cmax, prop, lower_status, upper_status, violation)


def _margin_target(delta: float) -> float:
    return delta / MARGIN_FRACTION if delta > 0 else 1e-6


def verify_network(net: Network, f: FuncExpr, config: RunConfig) -> VerificationReport:
    started = time.perf_counter()
    delta = network_delta(net)
    domain = network_domain(net)
    fd = f.with_domain(domain)
    report = VerificationReport(delta=delta, config=config)
    boxes = sample_boxes(domain, config.boxes, config.seed)
    props = eval_abstract_many(net, boxes)
    ranges = certified_box_range(fd, boxes, _margin_target(delta), config.oracle_budget)
    for box, bounds, prop_box in zip(boxes, ranges, props):
        report.records.append(_check(box, bounds, prop_box, delta, config))
    report.runtime_seconds = time.perf_counter() - started
    return report
