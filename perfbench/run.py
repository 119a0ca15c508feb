"""deltamag benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload demo05 --seed 12 --seconds 30 --trace 0

Runs from the root of a source checkout and imports deltamag from its
``src/``. One client drives the public entry points in this process, one op
at a time (a closed loop, no extra threads). ``--trace 0`` times the ops
and prints the end-to-end metrics, in host-adjusted seconds (see
REF_KERNEL_S). ``--trace 1`` runs each input untraced and then traced, back
to back, checks that both give the same output, and prints the per-layer
metrics. Human-readable lines come first; the last line of stdout is one
JSON object with the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 15
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import deltamag; "
    "print(time.perf_counter() - t)"
)


# On a shared 2-vCPU host the same code runs in a fast and a slow state
# (about 1.6x apart) that switch several times a second, and the share of
# time spent slow differs from run to run by more than any change worth
# measuring.
# A fixed reference kernel, timed right before and right after every op,
# measures the state the op ran in; op times are reported scaled to the
# kernel's fast-state time REF_KERNEL_S ("host-adjusted" seconds). The
# kernel mixes small numpy arrays with a pure-Python loop, like deltamag
# itself, and touches no deltamag code. Raw wall times are printed too.
REF_KERNEL_S = 0.0035


def _reference_kernel():
    acc = 0.0
    for _ in range(100):
        x = np.linspace(1.0, 2.0, 200)
        acc += float((np.log(x) * x + 1.0 / x).sum())
    slots = {}
    for i in range(20000):
        acc += (i * i) % 7
        if i % 3 == 0:
            slots[i % 97] = acc
    return acc


def kernel_s() -> float:
    t0 = time.perf_counter()
    _reference_kernel()
    return time.perf_counter() - t0


class Adjusted:
    """Wall times of a sequence of ops, each with its host-adjusted twin."""

    def __init__(self):
        self.wall, self.adjusted = [], []
        self._k_prev = kernel_s()

    def add(self, wall_s):
        k_next = kernel_s()
        self.wall.append(wall_s)
        self.adjusted.append(wall_s * REF_KERNEL_S / (0.5 * (self._k_prev + k_next)))
        self._k_prev = k_next


def measure_setup_s() -> Adjusted:
    """Import times of deltamag from src/, each in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_PROBE]
    # the first import compiles bytecode; users pay that once
    subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True, timeout=60)
    samples = Adjusted()
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                             text=True, check=True, timeout=60)
        samples.add(float(out.stdout.strip().splitlines()[-1]))
    return samples


def tail(times):
    """(percentile, value, count beyond): highest percentile with >= 10 ops beyond it."""
    n = len(times)
    if n <= 10:
        return 0.0, max(times), 0
    pct = math.floor(1000.0 * (n - 10) / n) / 10.0
    rank = max(math.ceil(pct / 100.0 * n), 1)   # nearest rank, 1-based
    ordered = sorted(times)
    return pct, ordered[rank - 1], n - rank


class Runner:
    """Runs ops of one workload, checks each, and keeps the first outputs."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.reference = {}   # input -> output bytes of its first op
        self.first = {}       # input -> parsed output of its first good op
        self.problems = []
        self.tracer = None    # set during the traced phase; ops tag their spans

    def run_one(self, i):
        """One op on input ``i``; returns its wall time in seconds."""
        self.wl.prepare_op(i)
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = self.wl.op(i)
            dt = time.perf_counter() - t0
            out, problems, parsed = self.wl.observe(i, raw)
        except Exception as exc:  # a crashing op or an unreadable output fails the op
            self._fail(i, [f"raised {type(exc).__name__}: {exc}"])
            return time.perf_counter() - t0
        if i in self.reference:
            if out != self.reference[i]:
                problems.append("output differs from an earlier op on the same input")
        else:
            self.reference[i] = out
            if not problems:
                self.first[i] = parsed
        if problems:
            self._fail(i, problems)
        return dt

    def _fail(self, i, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"input {i}: " + "; ".join(problems))

    def timed(self, budget_s):
        """Cycle through the inputs until ``budget_s`` of wall time has passed."""
        times, points = Adjusted(), 0
        start = time.perf_counter()
        k = 0
        while not times.wall or time.perf_counter() - start < budget_s:
            times.add(self.run_one(k % self.wl.n_inputs))
            points += self.wl.points
            k += 1
        return times, points


def run_untraced(wl, args, runner):
    setup = measure_setup_s()
    gc.collect()
    ops, points = runner.timed(args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def summary(setup_times, op_times):
        pct, tail_s, beyond = tail(op_times)
        return {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_s_p50": (statistics.median(op_times), "s"),
            "op_s_tail": (tail_s, "s"),
            "points_per_s": (points / sum(op_times), "1/s"),
        }, pct, beyond

    metrics, pct, beyond = summary(setup.adjusted, ops.adjusted)
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    wall, _, _ = summary(setup.wall, ops.wall)
    notes = [
        f"ops timed: {len(ops.wall)}; op_s_tail is p{pct:g} with {beyond} ops beyond it",
        f"points per op: {wl.points}; timed wall time {sum(ops.wall):.3f} s",
        "times are host-adjusted to a reference-kernel time of "
        f"{REF_KERNEL_S} s; raw wall-clock values: "
        + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in wall.items()),
    ]
    return metrics, notes, True


LAYER_METRICS = [
    # (metric, unit, source) with source a counter "layer.counter",
    # or ("total"|"self", layer) for span time
    ("special.digamma.calls", "count/op", "special.digamma.calls"),
    ("special.digamma.s", "s/op", ("total", "special.digamma")),
    ("special.digamma.points", "count/op", "special.digamma.points"),
    ("models.wl_perp_shape.calls", "count/op", "models.wl_perp_shape.calls"),
    ("models.wl_perp_shape.s", "s/op", ("total", "models.wl_perp_shape")),
    ("fit.levmar.calls", "count/op", "fit.levmar.calls"),
    ("fit.levmar.s", "s/op", ("total", "fit.levmar")),
    ("fit.levmar.iterations", "count/op", "fit.levmar.iterations"),
    ("fit.levmar.nfev", "count/op", "fit.levmar.nfev"),
    ("fit.fit_wl_difference.calls", "count/op", "fit.fit_wl_difference.calls"),
    ("fit.fit_wl_difference.s", "s/op", ("total", "fit.fit_wl_difference")),
    ("collapse.dispersion.calls", "count/op", "collapse.dispersion.calls"),
    ("collapse.dispersion.s", "s/op", ("total", "collapse.dispersion")),
    ("collapse.collapse_teff.calls", "count/op", "collapse.collapse_teff.calls"),
    ("collapse.collapse_teff.s", "s/op", ("total", "collapse.collapse_teff")),
    ("collapse.collapse_teff.self_s", "s/op", ("self", "collapse.collapse_teff")),
    ("collapse.isolate_aa.s", "s/op", ("total", "collapse.isolate_aa")),
    ("pipeline.run_analysis.s", "s/op", ("total", "pipeline.run_analysis")),
    ("pipeline.run_analysis.self_s", "s/op", ("self", "pipeline.run_analysis")),
    ("pipeline.load_datasets.s", "s/op", ("total", "pipeline.load_datasets")),
    ("hall.density_from_hall.s", "s/op", ("total", "hall.density_from_hall")),
    ("sweepio.parse_sweep_csv.calls", "count/op", "sweepio.parse_sweep_csv.calls"),
    ("sweepio.parse_sweep_csv.s", "s/op", ("total", "sweepio.parse_sweep_csv")),
    ("sweepio.parse_sweep_csv.bytes", "B/op", "sweepio.parse_sweep_csv.bytes"),
    ("sweepio.write_plot_csv.calls", "count/op", "sweepio.write_plot_csv.calls"),
    ("sweepio.write_plot_csv.s", "s/op", ("total", "sweepio.write_plot_csv")),
    ("sweepio.write_plot_csv.bytes", "B/op", "sweepio.write_plot_csv.bytes"),
    ("pipeline.write_report.s", "s/op", ("total", "pipeline.write_report")),
    ("pipeline.Report.to_json.s", "s/op", ("total", "pipeline.Report.to_json")),
    ("cli.main.s", "s/op", ("total", "cli.main")),
    ("cli.main.self_s", "s/op", ("self", "cli.main")),
]


def run_traced(wl, args, runner):
    """Each input runs untraced and then traced, back to back.

    Pairing the two ops of one input in time keeps host-speed drift out of
    the tracing overhead, and checks each traced output against the
    untraced one. Whole passes over the inputs run while the next still
    fits in ``--seconds``; every pass must repeat the same counts.
    """
    from tracer import Tracer

    n = wl.n_traced
    tracer = Tracer()
    untraced, traced, snapshots = [], [], []
    first_op = runner.attempted + 1  # the traced op on input 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i in range(n):
            untraced.append(runner.run_one(i))
            tracer.install()
            runner.tracer = tracer
            try:
                traced.append(runner.run_one(i))
            finally:
                tracer.uninstall()
                runner.tracer = None
        snapshots.append(Counter(tracer.counts))
        now = time.perf_counter()
        if now - start + (now - t0) > args.seconds:
            break
    ops = len(traced)
    ok = True
    notes = [f"traced ops: {ops} in {len(snapshots)} passes of {n}; "
             f"untraced ops: {len(untraced)}"]

    # each pass runs the same inputs, so its counts must repeat exactly
    per_pass = [snapshots[0]] + [b - a for a, b in zip(snapshots, snapshots[1:])]
    if any(c != per_pass[0] for c in per_pass[1:]):
        ok = False
        notes.append("COUNT MISMATCH between passes over the same inputs")
    missing = [layer for layer in wl.required_layers
               if tracer.counts[f"{layer}.calls"] == 0]
    if missing:
        ok = False
        notes.append("COVERAGE: no calls recorded for " + ", ".join(missing))
    if tracer.missing_sites:
        notes.append("sites not found: " + ", ".join(tracer.missing_sites))

    metrics = {}
    for name, unit, source in LAYER_METRICS:
        if isinstance(source, tuple):
            kind, layer = source
            total = (tracer.total_s if kind == "total" else tracer.self_s)[layer]
        else:
            total = tracer.counts[source]
        metrics[name] = (total / ops, unit)
    lm_calls = tracer.counts["fit.levmar.calls"]
    metrics["fit.levmar.converged_frac"] = (
        tracer.counts["fit.levmar.converged"] / lm_calls if lm_calls else 0.0, "ratio")
    inside = tracer.calls_under("collapse.dispersion", "collapse.collapse_teff")
    metrics["collapse.dispersion.calls_in_collapse_teff"] = (inside / ops, "count/op")
    overhead = statistics.median(t / u for t, u in zip(traced, untraced)) - 1.0
    metrics["trace.overhead"] = (overhead, "ratio")

    if tracer.counts["collapse.dispersion.calls"]:
        inside0 = tracer.calls_under("collapse.dispersion", "collapse.collapse_teff",
                                     op=first_op)
        all0 = sum(1 for s in tracer.spans
                   if s[0] == first_op and s[3] == "collapse.dispersion")
        notes.append(f"input 0: {inside0} dispersion calls inside collapse_teff "
                     f"+ {all0 - inside0} outside it")
    notes.append(f"tracing overhead: {overhead:+.1%} (median over {ops} input pairs; "
                 f"op p50 untraced {statistics.median(untraced):.4g} s, "
                 f"traced {statistics.median(traced):.4g} s)")
    trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    notes.append(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
    return metrics, notes, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "deltamag" / "__init__.py").is_file():
        print(f"perfbench: no deltamag sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import deltamag

    if Path(deltamag.__file__).resolve().parent != SRC / "deltamag":
        print(f"perfbench: imported deltamag from {deltamag.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import ACCURACY_UNITS, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workdir = OUT / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(wl)
        runner.run_one(0)  # warm-up: lazy imports and first-call costs
        run = run_traced if args.trace else run_untraced
        metrics, notes, ok = run(wl, args, runner)
        accuracy = wl.accuracy(runner.first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print("  " + note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    for name, value in accuracy.items():
        print(f"  {name:44s} {value:.6g} {ACCURACY_UNITS[name]}  (accuracy, "
              f"{len(runner.first)} inputs)")
    print(f"  {'fail_frac':44s} {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} ops)")
    for p in runner.problems:
        print("  FAILED " + p)

    result = {
        "correct": ok and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
