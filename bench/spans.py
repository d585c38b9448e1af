"""In-memory spans around boxcert's layers, installed from outside the package.

Each wrapper replaces a function at the name its caller looks up when it
runs: a module global such as ``boxcert.construct.prune_maximal`` (looked up
by ``build_certified_network``) or a class attribute such as
``boxcert.expr.FuncExpr.eval_many``. No file of the package is edited. A
target that no longer exists is skipped, and the metrics it feeds are
reported as absent instead of failing the run.

A span records its name, the run phase, the operation it belongs to, its
parent span, and start and end times. Spans stay in a list until the run
ends. A span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager


def _propagation_counts(args, result):
    # Structure counts times boxes: wrapping each interval operation instead
    # would cost more than the propagation it measures.
    net = args[0]
    rows = sum(len(n.weights) for n in net.nodes if n.kind == "affine")
    relus = sum(net.arity(i) for i, n in enumerate(net.nodes) if n.kind == "relu")
    return {
        "network.eval_abstract.nodes": len(net.nodes),
        "intervals.affine_rows": rows,
        "intervals.relu_units": relus,
    }


# (module, attribute path in it, span name, counts(args, result) -> dict or None)
TARGETS = (
    ("boxcert.construct", "build_certified_network", "construct.build", None),
    ("boxcert.construct", "CellMinTable.__init__", "construct.lattice",
     lambda a, r: {"construct.lattice.points": a[0].values.size}),
    ("boxcert.construct", "CellMinTable.all_rect_mins", "construct.rect_mins",
     lambda a, r: {"construct.rect_mins.count": len(r[0])}),
    ("boxcert.construct", "prune_maximal", "grids.prune",
     lambda a, r: {"grids.prune.in": len(a[0]), "grids.prune.kept": len(r)}),
    ("boxcert.construct", "build_slice_network", "construct.slice_net", None),
    ("boxcert.construct", "sum_outputs", "network.assemble", None),
    ("boxcert.construct", "certified_box_range", "oracle.range", None),
    ("boxcert.verify", "certified_box_range", "oracle.range", None),
    ("boxcert.expr", "FuncExpr.eval_many", "expr.eval_many",
     lambda a, r: {"expr.eval_many.points": len(r)}),
    ("boxcert.network", "_validate", "network.validate", None),
    ("boxcert.network", "eval_abstract", "network.eval_abstract", _propagation_counts),
    ("boxcert.verify", "eval_abstract", "network.eval_abstract", _propagation_counts),
    ("boxcert.cli", "eval_abstract", "network.eval_abstract", _propagation_counts),
    ("boxcert.netio", "serialize", "netio.serialize",
     lambda a, r: {"netio.serialize.bytes": len(r)}),
    ("boxcert.netio", "deserialize", "netio.deserialize",
     lambda a, r: {"netio.deserialize.bytes": len(a[0])}),
    ("boxcert.verify", "sample_boxes", "verify.sample_boxes", None),
    ("boxcert.verify", "check_box", "verify.check_box", None),
    ("boxcert.cli", "main", "cli.main", None),
)

# Per-layer metric -> (unit, span that feeds it). None marks counts the
# benchmark reads from each BuildReport. A name ending in .s, .self_s or
# .calls is that span's total time, self time or call count.
LAYER_METRICS = {
    "construct.build.s": ("s", "construct.build"),
    "construct.build.self_s": ("s", "construct.build"),
    "construct.rect_mins.s": ("s", "construct.rect_mins"),
    "construct.rect_mins.count": ("count", "construct.rect_mins"),
    "construct.lattice.s": ("s", "construct.lattice"),
    "construct.lattice.points": ("count", "construct.lattice"),
    "construct.slice_net.s": ("s", "construct.slice_net"),
    "grids.candidates": ("count", None),
    "grids.prune.calls": ("count", "grids.prune"),
    "grids.prune.in": ("count", "grids.prune"),
    "grids.prune.kept": ("count", "grids.prune"),
    "grids.prune.s": ("s", "grids.prune"),
    "grids.prune.kept_ratio": ("ratio", "grids.prune"),
    "slicing.slices": ("count", None),
    "gadgets.bumps": ("count", None),
    "expr.eval_many.calls": ("count", "expr.eval_many"),
    "expr.eval_many.points": ("count", "expr.eval_many"),
    "expr.eval_many.s": ("s", "expr.eval_many"),
    "oracle.range.calls": ("count", "oracle.range"),
    "oracle.range.s": ("s", "oracle.range"),
    "network.eval_abstract.calls": ("count", "network.eval_abstract"),
    "network.eval_abstract.s": ("s", "network.eval_abstract"),
    "network.eval_abstract.nodes": ("count", "network.eval_abstract"),
    "network.validate.s": ("s", "network.validate"),
    "network.assemble.s": ("s", "network.assemble"),
    "intervals.affine_rows": ("count", "network.eval_abstract"),
    "intervals.relu_units": ("count", "network.eval_abstract"),
    "netio.serialize.s": ("s", "netio.serialize"),
    "netio.serialize.bytes": ("bytes", "netio.serialize"),
    "netio.deserialize.s": ("s", "netio.deserialize"),
    "netio.deserialize.bytes": ("bytes", "netio.deserialize"),
    "verify.sample_boxes.s": ("s", "verify.sample_boxes"),
    "verify.check_box.calls": ("count", "verify.check_box"),
    "verify.check_box.self_s": ("s", "verify.check_box"),
    "cli.main.calls": ("count", "cli.main"),
    "cli.main.self_s": ("s", "cli.main"),
}

_NAME, _PHASE, _OP, _PARENT, _START, _END = range(6)


class Tracer:
    """Collects spans and counts while ``enabled``; a disabled wrapper only forwards."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.phase_wall: dict[str, float] = defaultdict(float)
        self.enabled = True
        self.installed: set[str] = set()
        self.skipped: list[str] = []
        self._phase = "setup"
        self._op = 0
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target that exists; remember the ones that do not."""
        for module_name, path, name, counts in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = vars(owner).get(part)
                if owner is None:
                    break
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.skipped.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, fn, counts))
            self.installed.add(name)

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, self._phase, self._op, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                for key, value in counts(args, result).items():
                    self.counts[key] += value
            return result

        return traced

    def operation(self) -> None:
        """Start a new operation (a build, a campaign, a CLI call); later spans share its id."""
        self._op += 1

    @contextmanager
    def phase(self, name: str, enabled: bool = True):
        """Tag spans with a phase and add its wall time to that phase when traced."""
        self._phase = name
        self.enabled = enabled
        started = time.perf_counter()
        try:
            yield
        finally:
            if enabled:
                self.phase_wall[name] += time.perf_counter() - started
            self.enabled = True

    def _timed_spans(self):
        """(span, duration, self time) for every span, in start order."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[_PARENT] >= 0:
                child[s[_PARENT]] += s[_END] - s[_START]
        return [(s, s[_END] - s[_START], s[_END] - s[_START] - child[i])
                for i, s in enumerate(self.spans)]

    def layer_metrics(self) -> tuple[dict[str, dict], list[str]]:
        """Every per-layer metric whose span was installed, and the names left absent."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for s, d, self_d in self._timed_spans():
            total[s[_NAME]] += d
            own[s[_NAME]] += self_d
            calls[s[_NAME]] += 1
        out: dict[str, dict] = {}
        absent: list[str] = []
        for metric, (unit, span) in LAYER_METRICS.items():
            if span is not None and span not in self.installed:
                absent.append(metric)
                continue
            if metric == "grids.prune.kept_ratio":
                value = self.counts["grids.prune.kept"] / max(self.counts["grids.prune.in"], 1)
            elif metric.endswith(".self_s"):
                value = own[span]
            elif metric.endswith(".s"):
                value = total[span]
            elif metric.endswith(".calls"):
                value = calls[span]
            else:
                value = int(self.counts[metric])
            out[metric] = {"value": value, "unit": unit}
        return out, absent

    def coverage(self) -> dict[str, dict]:
        """Per phase: traced wall time, the share covered by outermost spans, and self-time shares."""
        covered: dict[str, float] = defaultdict(float)
        shares: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s, d, self_d in self._timed_spans():
            if s[_PARENT] < 0:
                covered[s[_PHASE]] += d
            shares[s[_PHASE]][s[_NAME]] += self_d
        out = {}
        for phase, wall in self.phase_wall.items():
            if wall <= 0:
                continue
            out[phase] = {
                "wall_s": wall,
                "covered_share": covered[phase] / wall,
                "self_share": {
                    name: t / wall
                    for name, t in sorted(shares[phase].items(), key=lambda kv: -kv[1])
                },
            }
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s[_NAME], "phase": s[_PHASE], "op": s[_OP],
                    "parent": s[_PARENT], "start": s[_START], "end": s[_END],
                }) + "\n")
