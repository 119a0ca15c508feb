"""Paired benchmark runs of two commits, written as a BENCH_*.json file.

    python3 tools/bench_pairs.py --parent HEAD^ --change HEAD --out BENCH_x.json \
        --workdir /tmp/bench --seeds 1001 --claim wl_batch:op_s_p50

Each commit is exported with ``git archive`` into its own fresh directory
under ``--workdir``, so the runs see the committed files only. For each
workload of BENCHMARK.json, pair i of 10 runs ``python3 perfbench/run.py
--workload W --seed S --seconds N --trace 0`` once in each copy, one run at
a time, with seed S = --seeds + i and N the benchmark's ``run_seconds``;
the side that runs first alternates from pair to pair. Traced runs
(``--trace 1``, 20 s) follow, one per side and traced seed. The output
holds every run's end-to-end metrics, their medians, quartiles (linear
interpolation) and pairs won, the ``setup_s`` spread, and every traced
per-op metric. It is rewritten after every pair, so an interrupted series
leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
TRACED_SECONDS = 20.0
# perfbench notes kept with each run: missing coverage, counts or tracer sites
FLAGGED_NOTES = ("COVERAGE", "COUNT MISMATCH", "sites not found")


def git(*args) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` to the empty directory ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=tar)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as tf:
            tf.extractall(dest, filter="data")


def run_bench(copy: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``copy``: its final JSON line plus its notes."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=copy, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{copy.name} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["notes"] = [ln.strip() for ln in lines[:-1] if any(b in ln for b in FLAGGED_NOTES)]
    return result


def quantile(sorted_values, q: float) -> float:
    """Quantile by linear interpolation between order statistics."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(runs) -> dict:
    s = sorted(runs)
    return {
        "q1": round(quantile(s, 0.25), 8), "median": round(quantile(s, 0.5), 8),
        "q3": round(quantile(s, 0.75), 8), "min": round(s[0], 8), "max": round(s[-1], 8),
        "runs": [round(v, 8) for v in runs],
    }


def metric_table(runs: dict, end_to_end) -> dict:
    """Per metric: both sides' summaries, the median change and the pairs won."""
    table = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        won = tied = 0
        for a, b in zip(vals["parent"], vals["change"]):
            won += (b < a) if lower else (b > a)
            tied += b == a
        par, chg = summary(vals["parent"]), summary(vals["change"])
        table[name] = {
            "unit": spec["unit"], "better": spec["better"], "parent": par, "change": chg,
            "change_vs_parent": round(chg["median"] / par["median"] - 1.0, 4),
            "pairs_won_by_change": won, "pairs_tied": tied,
            "parent_iqr": round(par["q3"] - par["q1"], 8),
        }
    return table


def claim_met(table: dict, pairs: int) -> bool:
    """Won on at least 9 of 10 pairs, and the medians differ, in the better
    direction, by more than the parent's interquartile distance."""
    lower = table["better"] == "lower"
    gain = table["parent"]["median"] - table["change"]["median"]
    gain = gain if lower else -gain
    return table["pairs_won_by_change"] >= math.ceil(0.9 * pairs) and gain > table["parent_iqr"]


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {"vcpus": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD^", help="commit measured as the parent")
    ap.add_argument("--change", default="HEAD", help="commit measured as the change")
    ap.add_argument("--out", required=True, type=Path, help="BENCH_*.json file to write")
    ap.add_argument("--workdir", required=True, type=Path,
                    help="directory for the two exported copies (emptied first)")
    ap.add_argument("--seeds", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--traced-seeds", type=int, nargs="*", default=[501],
                    help="seeds of the traced runs, one run per side each")
    ap.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--description", default="", help="what the change does, one sentence")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = bench["end_to_end"]
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    commits = {side: git("rev-parse", rev) for side, rev in zip(SIDES, (args.parent, args.change))}
    copies = {side: args.workdir / side for side in SIDES}
    for side in SIDES:
        export(commits[side], copies[side])

    out = {
        "change": args.description,
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "traced_command": f"python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {TRACED_SECONDS:g} --trace 1",
        "method": "each commit in its own fresh git-archive copy; parent and change alternate "
                  "within each pair, first side alternating by pair; one run at a time; metrics "
                  "are perfbench's host-adjusted values; quartiles by linear interpolation",
        "seconds_per_run": seconds,
        "machine": machine(),
        "workloads": {},
        "traced": {"seeds": args.traced_seeds, "seconds_per_run": TRACED_SECONDS, "runs": {}},
        "setup_s_spread": {},
    }
    if args.claim:
        wl, metric = args.claim.split(":")
        out["claim"] = {
            "workload": wl, "metric": metric,
            "rule": "change wins >= 9/10 pairs and |median change - median parent| > parent IQR",
        }

    def save():
        args.out.write_text(json.dumps(out, indent=2) + "\n")

    for wl in workloads:
        runs = {side: [] for side in SIDES}
        seeds, first = [], []
        for i in range(PAIRS):
            seed = args.seeds + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(copies[side], wl, seed, seconds, 0))
            seeds.append(seed)
            first.append(order[0])
            table = metric_table(runs, end_to_end)
            out["workloads"][wl] = {
                "pairs": i + 1, "seeds": seeds, "first_side": first,
                "correct_all": all(r["correct"] for s in SIDES for r in runs[s]),
                "failed_ops": {s: sum(r["failed"] for r in runs[s]) for s in SIDES},
                "attempted_ops": {s: sum(r["attempted"] for r in runs[s]) for s in SIDES},
                "metrics": table,
            }
            out["setup_s_spread"][wl] = {
                s: [table["setup_s"][s]["min"], table["setup_s"][s]["max"]] for s in SIDES
            }
            if args.claim and wl == out["claim"]["workload"]:
                out["claim"]["met"] = claim_met(table[out["claim"]["metric"]], i + 1)
            save()
            print(f"{wl} pair {i + 1}/{PAIRS} seed {seed}: op_s_p50 "
                  f"{runs['parent'][-1]['metrics']['op_s_p50']['value']:.6g} -> "
                  f"{runs['change'][-1]['metrics']['op_s_p50']['value']:.6g} s", flush=True)

    for wl in workloads:
        for k, seed in enumerate(args.traced_seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for side in order:
                r = run_bench(copies[side], wl, seed, TRACED_SECONDS, 1)
                entry = {"correct": r["correct"], "failed": r["failed"], "notes": r["notes"]}
                entry.update({key: round(m["value"], 8) for key, m in r["metrics"].items()})
                out["traced"]["runs"].setdefault(wl, {}).setdefault(str(seed), {})[side] = entry
                save()
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
