#!/usr/bin/env python3
"""Benchmark of boxcert's three jobs: build, verify and propagate.

Run from the root of a checkout of the repository:

    python3 bench/run.py --workload build --seed 1 --seconds 32 --trace 0

One run is one fresh interpreter with one active workload on one thread. It
drives boxcert only through public functions (``parse_func``,
``build_certified_network``, ``netio.serialize``, ``verify_network``,
``check_box``, ``eval_concrete``, ``eval_abstract`` and ``cli.main``) and
times them from outside the package. Inputs are generated from ``--seed``.

Workloads, each a loop of rounds until ``--seconds`` have passed:

* ``build``: each round builds six cases, each followed by
  ``netio.serialize``, and builds the two 1-d cases twice more between
  them, so that the short 1-d builds get as many seconds of samples as the
  long 2-d ones. Nearly all of this time is in ``construct`` and ``grids``;
  no box is propagated.
* ``verify``: set-up builds three networks (300, 242 and 412 ReLUs). Each
  round runs one seeded ``verify_network`` campaign on each of them, so many
  boxes share one network and ``eval_abstract`` does most of the work.
* ``propagate``: set-up writes the same three networks as ``.net`` files.
  Each round makes in-process ``boxcert propagate --net FILE --box B`` calls
  through ``cli.main``, cycling through the files with one seeded sub-box per
  call: the user's cold one-box path, mostly ``netio.deserialize``.

Each round also does a little of the two jobs the workload is not about,
right after its main work (on build, after each build): a short campaign, a
rebuild of one served case, or propagate calls on the served networks.
These are the correctness checks below, and they spread the samples of every
metric over the whole run, so that a slow spell of the machine does not fall
on one metric only:

* every network passes seeded sandwich campaigns with no failed and no
  inconclusive box;
* every build of a case yields the same document as its first build;
* every interval a propagate call prints equals the interval
  ``verify.check_box`` accepts for that box;
* at the end, point boxes propagate bit-identically to ``eval_concrete``.

An operation is a build, a verified box or a propagate call; ``failed``
counts the ones whose check failed. No check runs inside a timed call.

Output: a line ``{"info": ...}`` with fields kept out of any gate (failed
share, sample counts, document hashes, ``src/`` line count, versions), then
the result line ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones. ``setup_s`` is the
median time of ``import boxcert`` in a fresh interpreter plus the median of
the set-ups (parsing, and on verify and propagate the builds and file
writes). With ``--trace 1`` the wrappers in ``spans.py`` are installed and
the metrics are the per-layer ones, summed over set-up, the traced rounds
and the final checks. Rounds alternate between traced and untraced, so the
info line also reports the tracing overhead and how much of each phase the
named spans cover.
"""

import os

# Pinned before numpy is imported, so that the caller's environment cannot
# change what is measured.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("BOXCERT_BUDGET", None)

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from spans import Tracer

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

CUBIC = "-x0*x0*x0 + 3*x0"
LINE = ((-2.0, 2.0),)
SQUARE = ((0.0, 1.0), (0.0, 1.0))


@dataclass(frozen=True)
class Case:
    expr: str
    domain: tuple[tuple[float, float], ...]
    delta: float

    @property
    def label(self) -> str:
        return f"{self.expr} on {self.domain} delta {self.delta}"


# The cubic at delta 0.1 (about 24 s) is left out: it takes the same path as
# delta 0.2 and would dominate every run.
BUILD_CASES = (
    Case(CUBIC, LINE, 0.4),  # 45,451 candidate rectangles
    Case(CUBIC, LINE, 0.2),  # 180,901 candidate rectangles
    Case("min(x0, x1)", SQUARE, 0.5),
    Case("x0*x1", SQUARE, 0.5),
    Case("x0*x1", SQUARE, 0.25),  # mostly prune_maximal
    Case("abs(x0 - 0.5)*relu(x1)", SQUARE, 0.25),
)
SERVED_CASES = (BUILD_CASES[0], BUILD_CASES[3], BUILD_CASES[5])
SMOKE_CASES = (Case(CUBIC, LINE, 1.6), Case("x0*x1", SQUARE, 0.5))

# Indices into the build cases, in the order one build round makes them. The
# served cases come first, so that the checks after every later build cover
# the same three networks. The 1-d pair (about 3 s) comes three times a round
# and the 2-d cases (about 9 s, nearly all of it x0*x1 at delta 0.25) once,
# the longest last.
BUILD_ORDER = (0, 3, 5, 1, 2, 0, 1, 0, 1, 4)
SMOKE_ORDER = (0, 1, 0)

# Rounds traced in a --trace 1 run. A fixed number keeps the per-layer
# counts the same from run to run; the other rounds run untraced.
TRACED_ROUNDS = {"build": 1, "verify": 2, "propagate": 4}


@dataclass(frozen=True)
class Size:
    build_cases: tuple[Case, ...]
    build_order: tuple[int, ...]  # the builds of one build round, as indices into build_cases
    served_cases: tuple[Case, ...]
    setup_reps: int  # set-ups and imports per run; setup_s adds their medians
    verify_boxes: int  # boxes per campaign in a verify round
    check_boxes: int  # boxes per served network in the campaigns of a check
    pool_per_net: int  # seeded sub-boxes per network for propagate calls
    check_calls: int  # propagate calls per served network in a check
    min_calls: int  # propagate calls per run, so that p95 has ten samples beyond it
    points: int  # seeded point boxes per network, besides the domain corners


FULL = Size(BUILD_CASES, BUILD_ORDER, SERVED_CASES, setup_reps=3, verify_boxes=100,
            check_boxes=6, pool_per_net=24, check_calls=5, min_calls=200, points=16)
SMOKE = Size(SMOKE_CASES, SMOKE_ORDER, SMOKE_CASES, setup_reps=2, verify_boxes=8,
             check_boxes=2, pool_per_net=2, check_calls=1, min_calls=8, points=2)

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_1d_s": "s",
    "build_2d_s": "s",
    "verify_boxes_per_s": "boxes/s",
    "propagate_ms.p50": "ms",
    "propagate_ms.p95": "ms",
    "peak_rss_mb": "MB",
    "net_relus": "count",
    "net_nodes": "count",
}


@dataclass
class Tally:
    """Operations attempted and failed: builds, verified boxes and propagate calls."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


@dataclass
class Served:
    case: Case
    f: object  # FuncExpr
    net: object  # Network
    doc: str
    path: str = ""


def _box_text(pairs) -> str:
    return ";".join(f"{lo!r},{hi!r}" for lo, hi in pairs)


def _printed_intervals(text: str) -> list | None:
    """The ``[lo, hi]`` lines ``boxcert propagate`` prints, or None if they do not parse."""
    try:
        return [tuple(float(t) for t in line.strip()[1:-1].split(", ")) for line in text.splitlines()]
    except ValueError:
        return None


class Run:
    """One workload run: set-up, rounds of main work and checks, and what they measured."""

    def __init__(self, workload: str, seed: int, seconds: float, size: Size,
                 tracer: Tracer | None, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tracer = tracer
        self.workdir = workdir
        self.tally = Tally()
        self.sha256: dict[str, str] = {}
        self.setup_s: list[float] = []
        self.build_s: dict[Case, list[float]] = defaultdict(list)
        self.boxes = 0
        self.campaign_s = 0.0
        self.call_ms: list[float] = []
        self.rounds = {True: 0, False: 0}  # traced / untraced rounds begun
        # Main-work seconds of each kind of step, in traced / untraced rounds.
        self.step_s = {True: defaultdict(list), False: defaultdict(list)}
        self.served: dict[int, Served] = {}
        self.checked: set[int] = set()  # build cases outside the served ones, once campaigned
        self.pool: dict[int, list] = {}
        self.next_call: dict[int, int] = {}
        self.rngs = {p: random.Random(f"{seed}/{p}") for p in ("verify", "check", "points")}

    def phase(self, name: str, traced: bool = True):
        return self.tracer.phase(name, traced) if self.tracer else contextlib.nullcontext()

    def op(self) -> None:
        if self.tracer:
            self.tracer.operation()

    # --- operations -------------------------------------------------------

    def build(self, case: Case, f) -> Served:
        """Build and serialize one case, timing both; check the document is the first one's."""
        from boxcert import construct, netio
        self.op()
        started = time.perf_counter()
        net, report = construct.build_certified_network(f, case.delta, construct.BuildBudget())
        doc = netio.serialize(net)
        self.build_s[case].append(time.perf_counter() - started)
        digest = hashlib.sha256(doc.encode()).hexdigest()
        first = self.sha256.setdefault(case.label, digest)
        self.tally.record(digest == first, f"build {case.label}: document differs from the first build")
        if self.tracer and self.tracer.enabled:
            self.tracer.counts["grids.candidates"] += report.candidate_rects
            self.tracer.counts["slicing.slices"] += report.slice_count
            self.tracer.counts["gadgets.bumps"] += sum(report.bumps_per_slice)
        return Served(case, f, net, doc)

    def campaign(self, s: Served, boxes: int, rng: random.Random, timed: bool = True) -> None:
        """One seeded verify_network campaign; every box must hold and none be inconclusive.
        An untimed campaign is a check only and does not count in verify_boxes_per_s."""
        from boxcert import verify
        self.op()
        config = verify.RunConfig(boxes=boxes, seed=rng.randrange(2**31))
        started = time.perf_counter()
        report = verify.verify_network(s.net, s.f, config)
        if timed:
            self.campaign_s += time.perf_counter() - started
            self.boxes += len(report.records)
        for i, r in enumerate(report.records):
            self.tally.record(
                not r.failed and not r.inconclusive,
                f"verify {s.case.label} seed {config.seed} box {i}: "
                f"lower {r.lower_status} upper {r.upper_status}",
            )

    def write_net(self, j: int) -> None:
        s = self.served[j]
        s.path = str(self.workdir / f"net{j}.net")
        with open(s.path, "w", encoding="utf-8") as fh:
            fh.write(s.doc)

    def add_to_pool(self, j: int) -> None:
        """Pool seeded sub-boxes of network ``j``'s domain, each with the interval
        check_box accepts for it (None where it accepts none)."""
        from boxcert import verify
        from boxcert.intervals import BoxRegion
        s = self.served[j]
        if not s.path:
            self.write_net(j)
        rng = random.Random(f"{self.seed}/pool/{j}")
        config = verify.RunConfig(boxes=1, seed=0)
        fd = s.f.with_domain(verify.network_domain(s.net))
        entries = []
        for _ in range(self.size.pool_per_net):
            pairs = []
            for lo, hi in s.case.domain:
                p, q = rng.uniform(lo, hi), rng.uniform(lo, hi)
                pairs.append((min(p, q), max(p, q)))
            self.op()
            r = verify.check_box(s.net, fd, BoxRegion.from_pairs(pairs),
                                 verify.network_delta(s.net), config)
            ok = not r.failed and not r.inconclusive
            self.tally.record(ok, f"check_box {_box_text(pairs)} on {s.case.label}: "
                                  f"lower {r.lower_status} upper {r.upper_status}")
            entries.append((pairs, (r.propagated.lo, r.propagated.hi) if ok else None))
        self.pool[j] = entries
        self.next_call[j] = 0

    def calls(self, j: int, count: int) -> None:
        """``boxcert propagate`` through cli.main on the next ``count`` pooled boxes of network ``j``."""
        from boxcert import cli
        s = self.served[j]
        for _ in range(count):
            pairs, want = self.pool[j][self.next_call[j] % len(self.pool[j])]
            self.next_call[j] += 1
            argv = ["propagate", "--net", s.path, "--box", _box_text(pairs)]
            out = io.StringIO()
            self.op()
            started = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            self.call_ms.append((time.perf_counter() - started) * 1e3)
            ok = code == 0 and want is not None and _printed_intervals(out.getvalue()) == [want]
            self.tally.record(ok, f"boxcert {' '.join(argv)} exited {code}, printed "
                                  f"{out.getvalue().strip()!r}, check_box accepted {want}")

    def check_points(self) -> None:
        """Point boxes (domain corners and seeded points) propagate to eval_concrete exactly."""
        from boxcert import network
        from boxcert.intervals import BoxRegion
        rng = self.rngs["points"]
        for s in self.served.values():
            points = [list(c) for c in itertools.product(*s.case.domain)]
            points += [[rng.uniform(lo, hi) for lo, hi in s.case.domain]
                       for _ in range(self.size.points)]
            for x in points:
                self.op()
                want = network.eval_concrete(s.net, x)
                got = network.eval_abstract(s.net, BoxRegion.point(x)).bounds
                ok = len(got) == len(want) and all(b.lo == c == b.hi for b, c in zip(got, want))
                self.tally.record(ok, f"point {x} on {s.case.label}: {got} != {want}")

    # --- rounds -----------------------------------------------------------

    def steps(self, index: int, funcs) -> list:
        """The (kind, main work, checks) steps of round ``index``; ``index`` cycles the rebuilt case."""
        n = len(self.size.served_cases)
        j = index % n
        if self.workload == "build":
            return [(k, partial(self.build_case, k, funcs[k]), partial(self.check_built, k))
                    for k in self.size.build_order]
        if self.workload == "verify":
            return [("round", self.verify_all, partial(self.verify_checks, j, funcs[j]))]
        return [("round", self.propagate_all, partial(self.propagate_checks, j, funcs[j]))]

    def build_case(self, k: int, f) -> None:
        s = self.build(self.size.build_cases[k], f)
        self.served.setdefault(k, s)

    def check_built(self, k: int) -> None:
        s = self.served[k]
        if s.case in self.size.served_cases:
            if k not in self.pool:
                self.add_to_pool(k)
        elif k not in self.checked:
            # The campaigns below cover only the served networks; a rebuild of
            # this case yields the same document, so one campaign covers it.
            self.checked.add(k)
            self.campaign(s, self.size.check_boxes, self.rngs["check"], timed=False)
        # Once every served network is built, each build is followed by the
        # same campaigns and calls on all three, as the other workloads make
        # them: the samples of verify_boxes_per_s and propagate_ms are then
        # spread over the whole run, in the same mix of networks.
        if len(self.pool) == len(self.size.served_cases):
            for j in self.pool:
                self.campaign(self.served[j], self.size.check_boxes, self.rngs["check"])
                self.calls(j, self.size.check_calls)

    def verify_all(self) -> None:
        for s in self.served.values():
            self.campaign(s, self.size.verify_boxes, self.rngs["verify"])

    def propagate_all(self) -> None:
        for _ in range(self.size.pool_per_net):
            for j in self.pool:
                self.calls(j, 1)

    def verify_checks(self, j: int, f) -> None:
        self.build(self.served[j].case, f)
        for i in self.pool:
            self.calls(i, self.size.check_calls)

    def propagate_checks(self, j: int, f) -> None:
        self.build(self.served[j].case, f)
        for s in self.served.values():
            self.campaign(s, self.size.check_boxes, self.rngs["check"])

    def execute(self) -> None:
        from boxcert.expr import parse_func
        from boxcert.intervals import BoxRegion
        w = self.workload
        cases = self.size.build_cases if w == "build" else self.size.served_cases
        with self.phase("setup"):
            for _ in range(self.size.setup_reps):
                started = time.perf_counter()
                funcs = [parse_func(c.expr, len(c.domain), BoxRegion.from_pairs(c.domain))
                         for c in cases]
                if w != "build":
                    self.served = {j: self.build(c, f) for j, (c, f) in enumerate(zip(cases, funcs))}
                    if w == "propagate":
                        for j in self.served:
                            self.write_net(j)
                self.setup_s.append(time.perf_counter() - started)
        if w != "build":
            with self.phase("check"):
                for j in self.served:
                    self.add_to_pool(j)

        # The run stops at the first step that ends past the deadline, except
        # that the first round, which makes every case and network at least
        # once, and a traced round, whose per-layer counts must not depend on
        # the machine's speed, are always finished.
        deadline = time.perf_counter() + self.seconds
        for index in itertools.count():
            traced = (self.tracer is not None and index % 2 == 0
                      and self.rounds[True] < TRACED_ROUNDS[w])
            self.rounds[traced] += 1
            for kind, main, check in self.steps(index, funcs):
                with self.phase("timed", traced):
                    started = time.perf_counter()
                    main()
                    self.step_s[traced][kind].append(time.perf_counter() - started)
                with self.phase("check", traced):
                    check()
                if index > 0 and not traced and time.perf_counter() >= deadline:
                    break
            if time.perf_counter() >= deadline:
                break
        with self.phase("check"):
            while len(self.call_ms) < self.size.min_calls:
                for j in self.pool:
                    self.calls(j, 1)
            self.check_points()

    # --- results ----------------------------------------------------------

    def build_seconds(self, dim: int) -> float:
        """Sum over this workload's cases of one dimension of each case's median build time."""
        return sum(statistics.median(t) for c, t in self.build_s.items() if len(c.domain) == dim)

    def end_to_end(self, import_s: float) -> dict:
        from boxcert import network
        counts = [network.stats(s.net) for s in self.served.values()]
        values = {
            "setup_s": import_s + statistics.median(self.setup_s),
            "build_1d_s": self.build_seconds(1),
            "build_2d_s": self.build_seconds(2),
            "verify_boxes_per_s": self.boxes / self.campaign_s,
            "propagate_ms.p50": statistics.median(self.call_ms),
            "propagate_ms.p95": statistics.quantiles(self.call_ms, n=20)[18],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "net_relus": sum(c["relu_count"] for c in counts),
            "net_nodes": sum(c["node_count"] for c in counts),
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    def samples(self) -> dict:
        return {
            "setup_reps": len(self.setup_s),
            "builds_per_case": {c.label: len(t) for c, t in self.build_s.items()},
            "verified_boxes": self.boxes,
            "propagate_calls": len(self.call_ms),
            "rounds": self.rounds[True] + self.rounds[False],
            "traced_rounds": self.rounds[True],
        }

    def overhead(self) -> dict:
        """Main-work seconds of a round, traced against untraced: the sum of the
        median seconds of each kind of step made both traced and untraced."""
        traced, plain = self.step_s[True], self.step_s[False]
        kinds = sorted(set(traced) & set(plain), key=str)
        if not kinds:
            return {}
        t = sum(statistics.median(traced[k]) for k in kinds)
        p = sum(statistics.median(plain[k]) for k in kinds)
        return {"round_main_s": {"traced": t, "untraced": p, "relative_change": t / p - 1.0,
                                 "steps": len(kinds)}}


def _import_seconds() -> float:
    """Wall time of ``import boxcert`` in a fresh interpreter, as each user command pays it."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import boxcert; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("build", "verify", "propagate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the loop of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny networks and counts, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "boxcert" / "__init__.py").is_file():
        print(f"error: boxcert sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import boxcert
    import numpy
    if Path(boxcert.__file__).resolve().parent != (SRC / "boxcert").resolve():
        print(f"error: imported boxcert from {boxcert.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        size = SMOKE if args.smoke else FULL
        run = Run(args.workload, args.seed, args.seconds, size, tracer, Path(workdir))
        run.execute()

    tally = run.tally
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_share": tally.failed / tally.attempted,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.notes,
        "samples": run.samples(),
        "sha256": run.sha256,
        "src_lines": _src_lines(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        metrics, absent = tracer.layer_metrics()
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        info.update({
            "overhead": run.overhead(),
            "coverage": tracer.coverage(),
            "absent": absent,
            "skipped_targets": tracer.skipped,
            "spans_file": str(spans_file.relative_to(BENCH.parent)),
        })
    else:
        # Imports are timed in fresh interpreters after the run, so that each
        # is a cold import like a user's command and none overlaps the run.
        import_s = statistics.median(_import_seconds() for _ in range(size.setup_reps))
        metrics = run.end_to_end(import_s)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
