"""The benchmark's seeded workloads: inputs, one op, output checks, accuracy.

Every workload makes its inputs from the seed alone, runs one op at a time
in this process, and turns each op's result into (output bytes, problems).
The bytes are what a repeat of the op on the same input must reproduce
exactly; a non-empty problem list fails the op.

Why these three:

* ``demo05``: ``deltamag report`` on demo-05-shaped datasets, the
  reference interactive analysis. Collapse dominates and it is the only
  workload that writes files. Its cost depends strongly on the noise
  realization (the collapse makes 600 to 2100 ``dispersion`` calls), so a
  run cycles through many realizations; realization 0 uses the seed itself
  as the noise seed, which makes seed 12 the dataset of demos/05.
* ``wl_batch``: ``fit_wl_difference`` on 1%-noise difference curves of
  the ten reference layers. It runs special, models and fit and bypasses
  collapse, so a collapse change should leave it unchanged.
* ``hall_survey``: ``deltamag hall`` to stdout on many small samples. It
  prints only the Hall section, so stage selection and per-dataset fixed
  costs show here and nowhere else.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

import deltamag
import deltamag.cli
from deltamag.sweepio import write_sweep_csv
from deltamag.synth import SynthConfig, generate_dataset, write_truth_json


def _derived_seeds(seed: int, count: int):
    """``count`` noise seeds drawn from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


def _synth_config(sample_id, noise_seed, *, temps, num, sigma, t_sat):
    return SynthConfig.from_dict(
        {
            "sample_id": sample_id,
            "sample": {
                "n_2d_cm2": 2.14e13,
                "mobility_cm2_Vs": 38.9,
                "delta_nm": 0.42,
                "F": 0.5,
            },
            "l_phi_law": {"amplitude_nm": 35.5, "exponent": -0.31},
            "t_sat_K": t_sat,
            "noise": {"relative_sigma": sigma, "seed": noise_seed},
            "sweep_plan": [
                {"T_bath_K": T, "theta_deg": th,
                 "B_T": {"start": -2.0, "stop": 2.0, "num": num}}
                for T in temps
                for th in (0.0, 90.0)
            ],
        }
    )


def _numbers_finite(obj, where, problems):
    """Every number finite and every 'value' present, anywhere in ``obj``."""
    if isinstance(obj, dict):
        if "value" in obj and not isinstance(obj["value"], (int, float)):
            problems.append(f"{where}.value is {obj['value']!r}")
        for k, v in obj.items():
            _numbers_finite(v, f"{where}.{k}", problems)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _numbers_finite(v, f"{where}[{i}]", problems)
    elif isinstance(obj, float) and not math.isfinite(obj):
        problems.append(f"{where} is {obj!r}")


def _rel(est, true):
    return abs(est / true - 1.0)


def _median(values):
    return statistics.median(values) if values else math.nan


class Demo05:
    """``deltamag report <csv> --out <dir>`` on demo-05-shaped datasets."""

    name = "demo05"
    n_inputs = 24      # realizations per run; a 30 s run reaches about 22
    n_traced = 8       # realizations in one pass of the traced run
    required_layers = (
        "special.digamma", "models.wl_perp_shape", "fit.levmar",
        "fit.fit_wl_difference", "collapse.dispersion",
        "collapse.collapse_teff", "collapse.isolate_aa",
        "sweepio.parse_sweep_csv", "sweepio.write_plot_csv",
        "hall.density_from_hall", "pipeline.run_analysis",
        "pipeline.load_datasets", "pipeline.write_report",
        "pipeline.Report.to_json", "cli.main",
    )
    temps = (0.1, 0.2, 0.4, 0.7, 1.0)

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "demo05_out"
        self.csvs, self.truths = [], []
        noise_seeds = [seed] + _derived_seeds(seed, self.n_inputs - 1)
        for j, ns in enumerate(noise_seeds):
            cfg = _synth_config("DEMO1", ns, temps=self.temps, num=81,
                                sigma=0.002, t_sat=0.25)
            csv = workdir / f"demo05_{j:02d}_sweeps.csv"
            truth = workdir / f"demo05_{j:02d}_truth.json"
            write_sweep_csv(csv, generate_dataset(cfg))
            write_truth_json(cfg, truth)
            self.csvs.append(str(csv))
            self.truths.append(json.loads(truth.read_text(encoding="utf-8")))
        self.points = len(self.temps) * 2 * 81

    def prepare_op(self, i):
        shutil.rmtree(self.out, ignore_errors=True)

    def op(self, i):
        with contextlib.redirect_stdout(io.StringIO()):
            return deltamag.cli.main(["report", self.csvs[i], "--out", str(self.out)])

    def observe(self, i, code):
        problems = [] if code == 0 else [f"exit code {code}"]
        digest = hashlib.sha256()
        report = None
        for path in sorted(self.out.iterdir()) if self.out.is_dir() else []:
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data + b"\0")
            if path.name.endswith("_report.json"):
                report = json.loads(data)
            else:
                for cell in data.decode().splitlines()[2:]:
                    if not all(math.isfinite(float(v)) for v in cell.split(",")):
                        problems.append(f"{path.name}: non-finite cell")
                        break
        if report is None:
            return digest.digest(), problems + ["no report JSON written"], None
        for stage in ("hall", "wl", "powerlaw", "collapse"):
            status = report["stages"][stage].get("status")
            if status != "ok":
                problems.append(f"stage {stage} is {status}")
        for f in report["stages"]["wl"].get("per_temperature", []):
            if not f["converged"]:
                problems.append(f"WL fit at {f['T_bath_K']} K not converged")
        _numbers_finite(report["stages"], "stages", problems)
        return digest.digest(), problems, report

    def accuracy(self, reports):
        n_err, lphi_err, delta_err, f_err, teff_err = [], [], [], [], []
        for i, rep in reports.items():
            truth = self.truths[i]
            st = rep["stages"]
            teff_true = {float(k): v for k, v in truth["t_eff_K"].items()}
            n_err.append(_rel(st["hall"]["n_2d_m2"]["value"], truth["n_2d_m2"]))
            for f in st["wl"]["per_temperature"]:
                true_lphi = truth["l_phi_amplitude_m"] * teff_true[f["T_bath_K"]] ** truth["l_phi_exponent"]
                lphi_err.append(_rel(f["l_phi_m"]["value"], true_lphi))
            delta_err.append(_rel(st["wl"]["delta_m"]["value"], truth["delta_m"]))
            col = st["collapse"]
            f_err.append(abs(col["F"]["value"] - truth["F"]))
            anchor = col["anchor_T_bath_K"]
            fitted = {t["T_bath_K"]: t["T_eff_K"] for t in col["temperatures"]}
            for tb, te in fitted.items():
                if tb != anchor:
                    ratio = te / fitted[anchor]
                    teff_err.append(_rel(ratio, teff_true[tb] / teff_true[anchor]))
        return {
            "n_rel_err": _median(n_err),
            "lphi_rel_err": _median(lphi_err),
            "delta_rel_err": _median(delta_err),
            "F_abs_err": _median(f_err),
            "teff_rel_err": _median(teff_err),
        }


class WlBatch:
    """One ``fit_wl_difference`` call per op on a reference-layer curve."""

    name = "wl_batch"
    draws = 20         # noise draws per reference layer
    required_layers = (
        "special.digamma", "models.wl_perp_shape", "fit.levmar",
        "fit.fit_wl_difference",
    )

    def __init__(self, seed: int, workdir: Path):
        from deltamag import (REFERENCE_LAYERS, InPlaneParams, WlParams,
                              gamma_param, wl_inplane, wl_perp)

        self.B = np.linspace(-2.0, 2.0, 100)
        self.inputs = []   # (d_sigma, l_mfp, n_2d, true l_phi, true delta)
        for k in range(self.draws):
            for row, rec in enumerate(REFERENCE_LAYERS):
                n, l_mfp = rec.si("n_2d"), rec.si("l_mfp")
                l_phi, delta = rec.si("l_phi"), rec.si("delta")
                gam = gamma_param(delta, n, l_phi, l_mfp)
                clean = wl_perp(np.abs(self.B), WlParams(l_phi, l_mfp)) - wl_inplane(
                    self.B, InPlaneParams(gam)
                )
                rng = np.random.default_rng((seed, row, k))
                y = clean * (1.0 + 0.01 * rng.standard_normal(self.B.size))
                self.inputs.append((y, l_mfp, n, l_phi, delta))
        self.n_inputs = self.n_traced = len(self.inputs)
        self.points = self.B.size

    def prepare_op(self, i):
        pass

    def op(self, i):
        y, l_mfp, n, _, _ = self.inputs[i]
        return deltamag.fit_wl_difference(self.B, y, l_mfp, n)

    def observe(self, i, res):
        values = np.array([
            res.l_phi.value, res.l_phi.stderr, res.gamma.value, res.gamma.stderr,
            res.delta.value, res.delta.stderr, res.fit.residual_norm,
            res.fit.iterations,
        ])
        problems = []
        if not res.fit.converged:
            problems.append("fit not converged")
        if not np.all(np.isfinite(values)):
            problems.append("non-finite fit output")
        return values.tobytes(), problems, (res.l_phi.value, res.delta.value)

    def accuracy(self, fitted):
        lphi = [_rel(fitted[i][0], self.inputs[i][3]) for i in fitted]
        delta = [_rel(fitted[i][1], self.inputs[i][4]) for i in fitted]
        return {"lphi_rel_err": _median(lphi), "delta_rel_err": _median(delta)}


class HallSurvey:
    """``deltamag hall <csv>`` to stdout, rotating over small samples."""

    name = "hall_survey"
    n_samples = 20
    required_layers = (
        "cli.main", "pipeline.load_datasets", "sweepio.parse_sweep_csv",
        "pipeline.run_analysis", "hall.density_from_hall",
    )
    temps = (0.4, 0.7, 1.2)

    def __init__(self, seed: int, workdir: Path):
        self.csvs, self.truths = [], []
        for j, ns in enumerate(_derived_seeds(seed, self.n_samples)):
            cfg = _synth_config(f"H{j:02d}", ns, temps=self.temps, num=41,
                                sigma=0.01, t_sat=0.0)
            csv = workdir / f"hall_{j:02d}_sweeps.csv"
            write_sweep_csv(csv, generate_dataset(cfg))
            self.csvs.append(str(csv))
            self.truths.append(cfg.n_2d)
        self.n_inputs = self.n_traced = self.n_samples
        self.points = len(self.temps) * 2 * 41

    def prepare_op(self, i):
        pass

    def op(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = deltamag.cli.main(["hall", self.csvs[i]])
        return code, buf.getvalue()

    def observe(self, i, result):
        code, text = result
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            view = json.loads(text)
        except json.JSONDecodeError:
            return text.encode(), problems + ["stdout is not one JSON object"], None
        if view["hall"].get("status") != "ok":
            problems.append(f"stage hall is {view['hall'].get('status')}")
        _numbers_finite(view["hall"], "hall", problems)
        return text.encode(), problems, view["hall"]["n_2d_m2"]["value"]

    def accuracy(self, n_values):
        return {"n_rel_err": _median([_rel(n, self.truths[i]) for i, n in n_values.items()])}


WORKLOADS = {w.name: w for w in (Demo05, WlBatch, HallSurvey)}

ACCURACY_UNITS = {
    "n_rel_err": "1",
    "lphi_rel_err": "1",
    "delta_rel_err": "1",
    "F_abs_err": "1",
    "teff_rel_err": "1",
}
