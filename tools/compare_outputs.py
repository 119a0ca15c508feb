"""Byte comparison of every output two commits write on the benchmark inputs.

    python3 tools/compare_outputs.py --parent HEAD^ --change HEAD \
        --seeds 501 777 --workdir /tmp/compare

Each commit is exported with ``git archive`` into its own fresh directory
under ``--workdir``. For every seed, each copy writes the ``Demo05`` and
``HallSurvey`` inputs of that seed with the parent copy's
``perfbench/workloads.py`` (sweep CSVs and truth JSONs), and the curves of
its ``WlBatch`` inputs as .npy arrays, so the synthetic data of the two
commits are compared. Each copy then runs ``deltamag report`` on every
``demo05`` input, ``deltamag hall`` on every ``hall_survey`` input and
``fit_wl_difference`` on every ``wl_batch`` input, all on the parent copy's
inputs, and keeps the report JSONs, the plot CSVs, each command's stdout,
the exit codes and the ``WlBatch.observe`` bytes of each fit (values,
stderrs, residual norm and iterations). Every file of the two sides is
compared byte for byte; each differing or missing file is printed with its
first differing line, and the fits are counted one by one. The exit status
is 1 if any file differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, export, git

# Runs in one copy with its own src/ on the path: argv is the workloads.py to
# load, the seed, the inputs directory, and whether to write the inputs there
# ("write") or to analyze the inputs found there ("run"). The cwd is the
# side's output directory, so printed paths are equal on both sides.
PRODUCE = r"""
import contextlib, importlib.util, io, json, sys
from pathlib import Path
import numpy as np
import deltamag.cli

workloads_py, seed, inputs, step = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
spec = importlib.util.spec_from_file_location("parent_workloads", workloads_py)
wl = importlib.util.module_from_spec(spec)
spec.loader.exec_module(wl)
if step == "write":
    inputs.mkdir()
    wl.Demo05(seed, inputs)
    wl.HallSurvey(seed, inputs)
    batch = wl.WlBatch(seed, inputs)
    np.save(inputs / "wl_batch_B.npy", batch.B)
    np.save(inputs / "wl_batch_inputs.npy", [[l_mfp, n, *y] for y, l_mfp, n, _, _ in batch.inputs])
    sys.exit(0)
Path("stdout").mkdir()
codes = {}
for csv in sorted(inputs.glob("*_sweeps.csv")):
    name = csv.name[: -len("_sweeps.csv")]
    cmd = ["report", str(csv), "--out", f"report/{name}"]
    if name.startswith("hall_"):
        cmd = ["hall", str(csv)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes[name] = deltamag.cli.main(cmd)
    Path("stdout", f"{name}.txt").write_text(buf.getvalue())
Path("exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
B = np.load(inputs / "wl_batch_B.npy")
fits = wl.WlBatch.__new__(wl.WlBatch)  # observe reads only the fit it is given
observed = [
    fits.observe(i, deltamag.fit_wl_difference(B, row[2:], float(row[0]), float(row[1])))[0]
    for i, row in enumerate(np.load(inputs / "wl_batch_inputs.npy"))
]
np.save("wl_batch_observed.npy", np.frombuffer(b"".join(observed)).reshape(len(observed), -1))
"""


def produce(copy: Path, workloads_py: Path, seed: int, inputs: Path, out: Path, step: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PRODUCE, str(workloads_py), str(seed), str(inputs), step],
        cwd=out, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{copy.name} seed {seed} {step}: exit {proc.returncode}\n{proc.stderr}")


def first_difference(a: bytes, b: bytes) -> str:
    """The first differing line of two files, numbered from 1."""
    la, lb = a.splitlines(), b.splitlines()
    for k, (x, y) in enumerate(zip(la, lb), 1):
        if x != y:
            x, y = x.decode(errors="replace"), y.decode(errors="replace")
            return f"line {k}:\n    parent: {x}\n    change: {y}"
    k = min(len(la), len(lb)) + 1
    return f"line {k}: one side ends ({len(la)} against {len(lb)} lines, or a line ending differs)"


def compare(parent: Path, change: Path) -> tuple:
    """(files compared, messages for the differing ones) of two output trees."""
    names = sorted(
        {p.relative_to(root) for root in (parent, change) for p in root.rglob("*") if p.is_file()}
    )
    messages = []
    for name in names:
        a, b = parent / name, change / name
        if not (a.is_file() and b.is_file()):
            messages.append(f"{name}: only in {'parent' if a.is_file() else 'change'}")
        elif a.read_bytes() != b.read_bytes():
            messages.append(f"{name}: {first_difference(a.read_bytes(), b.read_bytes())}")
    return len(names), messages


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD^", help="commit compared as the parent")
    ap.add_argument("--change", default="HEAD", help="commit compared as the change")
    ap.add_argument("--seeds", type=int, nargs="+", default=[501, 777], help="workload seeds")
    ap.add_argument("--workdir", required=True, type=Path,
                    help="directory for the exported copies and their outputs (emptied first)")
    args = ap.parse_args(argv)

    workdir = args.workdir.resolve()
    copies = {side: workdir / side for side in SIDES}
    for side, rev in zip(SIDES, (args.parent, args.change)):
        export(git("rev-parse", rev), copies[side])
    workloads_py = copies["parent"] / "perfbench" / "workloads.py"
    total, messages = 0, []
    for seed in args.seeds:
        outs = {side: workdir / "out" / str(seed) / side for side in SIDES}
        for side in SIDES:
            shutil.rmtree(outs[side], ignore_errors=True)
            outs[side].mkdir(parents=True)
            produce(copies[side], workloads_py, seed, Path("inputs"), outs[side], "write")
        for side in SIDES:
            produce(copies[side], workloads_py, seed, outs["parent"] / "inputs", outs[side], "run")
        n, diff = compare(outs["parent"], outs["change"])
        total += n
        messages += [f"seed {seed}: {m}" for m in diff]
        fits = [np.load(outs[side] / "wl_batch_observed.npy") for side in SIDES]
        fits_differ = sum(a.tobytes() != b.tobytes() for a, b in zip(*fits))
        print(f"seed {seed}: {n} files compared, {len(diff)} differ; "
              f"{fits_differ} of {len(fits[0])} wl_batch fits differ", flush=True)
    for m in messages:
        print(m)
    print(f"{total} files compared, {len(messages)} differ")
    return 1 if messages else 0


if __name__ == "__main__":
    sys.exit(main())
