#!/usr/bin/env python3
"""Exact-verification benchmark for nilform.

    python3 bench/run.py --workload catalog-check --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
process runs the workload's steps one after another (a closed loop with a
single caller).  A run repeats whole cycles over the workload's step list
while another cycle still fits in ``--seconds`` (at least one), then checks
every output against exact truth outside the timed region.  Every reported
time is normalized to a fixed reference machine speed (see ``speed.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced cycle and reports per-layer metrics; spans go to
``bench/out/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any correctness gate fails.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


@dataclass
class Cycle:
    wall: float                  # normalized to reference speed, like latencies
    latencies: list
    raw_wall: float
    factor: float
    outputs: list | None = None
    attempted: int = 0
    failures: list = field(default_factory=list)


@dataclass
class Result:
    cycles: list
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)
    tracer: object = None

    @property
    def attempted(self):
        return sum(c.attempted for c in self.cycles)

    @property
    def failures(self):
        return [f for c in self.cycles for f in c.failures]

    @property
    def failed(self):
        return len(self.failures)


class StepError:
    """Output of a step that raised; every item of the step counts as failed."""

    def __init__(self, text):
        self.text = text


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it.

    Below twenty samples no percentile above the median qualifies, so the
    tail is the slowest item (p100).
    """
    return int(100 * (n - 10) / n) if n >= 20 else 100


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def run_cycle(wl, probe, marks, tracer=None):
    """One pass over the steps, timed on the probe-free clock.

    Each item's latency is normalized by the probes around it; the cycle's
    wall time is the sum over its items.
    """
    outputs, spans = [], []
    probe.probe()                                # a probe near the first item
    for step in wl.steps:
        marks.clear()
        close = tracer.root(step.label) if tracer else None
        s0 = probe.clock()
        try:
            out = step.run()
        except Exception:
            out = StepError(traceback.format_exc())
        s1 = probe.clock()
        if close:
            close()
        stamps = [s0] + marks[:-1] + [s1] if step.suite and marks else [s0, s1]
        spans.extend(zip(stamps, stamps[1:]))
        outputs.append(out)
    latencies = [(b - a) * probe.factor(a, b) for a, b in spans]
    raw_wall = sum(b - a for a, b in spans)
    wall = sum(latencies)
    return Cycle(wall, latencies, raw_wall, wall / raw_wall, outputs)


def timed_cycles(wl, seconds, probe, marks, tracer=None, max_cycles=None):
    """Whole cycles while another one still fits in `seconds` (at least one).

    Untraced cycles are checked as they finish, so outputs are not kept.
    """
    cycles = []
    start = time.perf_counter()
    while True:
        cycles.append(run_cycle(wl, probe, marks, tracer))
        if tracer is None:
            check_cycle(wl, cycles[-1])
        if max_cycles is not None and len(cycles) >= max_cycles:
            return cycles
        if time.perf_counter() - start + cycles[-1].raw_wall > seconds:
            return cycles


def check_cycle(wl, cycle):
    """Gate one cycle's outputs against exact truth, then drop them."""
    for step, out in zip(wl.steps, cycle.outputs):
        if isinstance(out, StepError):
            reasons = [f"{step.label} raised: {out.text.strip().splitlines()[-1]}"] * step.rows
        else:
            try:
                reasons = step.check(out)
            except Exception:
                reasons = [f"{step.label} check raised: {traceback.format_exc()}"] * step.rows
        cycle.attempted += len(reasons)
        cycle.failures += [r for r in reasons if r is not None]
    cycle.outputs = None


def measure(wl, seconds, trace=False, setup_samples=()):
    """Run one workload in this process and gate its outputs."""
    from nilform import reports

    marks = []
    original_add = reports.Report.add
    with SpeedProbe() as probe:

        def add(self, *args, **kwargs):
            original_add(self, *args, **kwargs)
            marks.append(probe.clock())

        reports.Report.add = add
        try:
            if trace:
                import tracing

                untraced = timed_cycles(wl, seconds, probe, marks, max_cycles=1)
                tracer = tracing.Tracer(probe.clock)
                with tracing.instrument(tracer):
                    traced = timed_cycles(wl, seconds, probe, marks, tracer, max_cycles=1)
                cycles = untraced + traced
            else:
                cycles = timed_cycles(wl, seconds, probe, marks)
        finally:
            reports.Report.add = original_add
    if trace:
        check_cycle(wl, traced[0])

    result = Result(cycles)
    if trace:
        result.metrics = tracer.layer_metrics(traced[0].factor)
        result.metrics["trace.overhead_ratio"] = (traced[0].wall / untraced[0].wall, "ratio")
        result.tracer = tracer
        return result
    latencies = [x for c in cycles for x in c.latencies]
    # At least the percentile one cycle supports: a second cycle of a
    # 10-item workload must not turn its p100 tail into a p50.
    q = max(tail_percentile(len(latencies)), tail_percentile(len(cycles[0].latencies)))
    result.metrics = {
        "wall_s": (statistics.median(c.wall for c in cycles), "s"),
        "item_ms.p50": (1000 * statistics.median(latencies), "ms"),
        "item_ms.tail": (1000 * percentile(latencies, q), "ms"),
        "setup_s": (statistics.median(setup_samples), "s") if setup_samples else (None, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    result.notes.update(tail_percentile=q, samples=len(latencies), cycles=len(cycles))
    return result


def setup_probe_samples(args):
    """Process start to first item on fresh interpreters, normalized by
    reference probes taken just before and after each one."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--small"] if args.small else [])
    probe = SpeedProbe()
    samples = []
    for _ in range(SETUP_PROBES):
        since = len(probe.durations)
        for _ in range(5):
            probe.probe()
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        took = json.loads(proc.stdout.strip().splitlines()[-1])["ready"] - start
        for _ in range(5):
            probe.probe()
        samples.append(took * probe.factor_since(since))
    return samples


def git_commit():
    """Commit of the checkout from .git, or 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    from nilform.rational import Rational

    return {
        "backend": f"{Rational.__module__}.{Rational.__qualname__}",
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": git_commit(),
    }


def report(args, wl, result):
    env = environment(args.seed)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    ratio = result.failed / result.attempted if result.attempted else 1.0
    print(f"{wl.name}: {len(result.cycles)} cycle(s), {result.attempted} items attempted, "
          f"{result.failed} failed, fail_ratio={ratio}")
    for reason in result.failures[:20]:
        print(f"  FAIL {reason}")
    print("cycles: raw wall s " + " ".join(f"{c.raw_wall:.3f}" for c in result.cycles)
          + ", speed factor " + " ".join(f"{c.factor:.3f}" for c in result.cycles))
    for name, (value, unit) in result.metrics.items():
        extra = ""
        if name == "item_ms.tail":
            extra = f" (p{result.notes['tail_percentile']} of {result.notes['samples']} samples)"
        print(f"{name} = {value} {unit}{extra}")

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.dump(OUT / f"{stem}-spans.jsonl")
    record = {
        "workload": wl.name, "env": env, "seconds": args.seconds, "small": args.small,
        "attempted": result.attempted, "failed": result.failed, "fail_ratio": ratio,
        "failures": result.failures[:100],
        "cycle_walls_s": [c.wall for c in result.cycles],
        "cycle_raw_walls_s": [c.raw_wall for c in result.cycles],
        "cycle_speed_factors": [c.factor for c in result.cycles],
        "notes": result.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": record["metrics"],
    }))
    return 0 if result.failed == 0 else 1


def run_all(args, names):
    code = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--small"] if args.small else [])
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="catalog-check, conjugate-invariants, paper-tables or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nilform" / "__init__.py").is_file():
        print(f"error: no nilform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, small=args.small)
    if args.setup_probe:
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    setup = [] if args.trace else setup_probe_samples(args)
    result = measure(wl, args.seconds, trace=bool(args.trace), setup_samples=setup)
    return report(args, wl, result)


if __name__ == "__main__":
    sys.exit(main())
