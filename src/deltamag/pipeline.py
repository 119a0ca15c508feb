"""Staged analysis: Hall -> WL difference fits -> power law -> collapse.

Each stage returns its report section and a typed result; later stages and
the plot tables read those results, so every quantity is derived once. Only
the requested sections and their upstream stages run. A failed stage is
reported and everything downstream is marked skipped, so a partial dataset
still yields a partial report. Reports render to JSON deterministically
(sorted keys, 6 significant digits), with input hashes and the
configuration echoed for provenance.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import models
from ._version import __version__
from .collapse import OrientedCurve, WlFitTable, collapse_teff, isolate_aa
from .constants import G0, Quantity, _number, _pair, from_si, to_si
from .fit import Measured, WlDifferenceFit, fit_coherence_power_law, fit_wl_difference
from .hall import Geometry, KAPPA_DEFAULT, SamplePhysics, characterize, density_from_hall
from .sweepio import SweepRecord, parse_sweep_csv, write_plot_csv

SIGMA0_METHOD = "quadratic extrapolation of the three lowest-|B| points"


class MissingDataError(ValueError):
    """The dataset lacks the sweeps a stage needs (degradation, not failure)."""


@dataclass
class AnalysisConfig:
    """Analysis options with their defaults.

    kappa is in m^-1 and the geometry in m internally; the JSON schema and
    CLI take nm^-1 and um.
    """

    g_factor: float = 2.0
    T_c: float = 0.3                 # K, power-law validity floor
    h_min: float = 3.0               # reduced-field floor of the log branch
    fit_window: Tuple[float, float] = (0.0, 2.0)  # T, on |B|
    kappa: float = KAPPA_DEFAULT     # m^-1
    anchor_T: Optional[float] = None  # K; None picks the highest T_bath
    geometry: Geometry = field(default_factory=lambda: Geometry(200e-6, 20e-6))
    extrapolate_l_phi: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisConfig":
        """Parse the JSON schema; unknown keys and wrong types raise ValueError."""
        unknown = sorted(set(d) - set(cls().to_dict()))
        if unknown:
            raise ValueError(f"unknown analysis config key {unknown[0]!r}")
        kwargs = {}
        for key, name in (("g", "g_factor"), ("T_c_K", "T_c"), ("h_min", "h_min")):
            if key in d:
                kwargs[name] = _number(key, d[key])
        if "fit_window_T" in d:
            kwargs["fit_window"] = _pair("fit_window_T", d["fit_window_T"])
        if "kappa_nm" in d:
            kappa = Quantity(_number("kappa_nm", d["kappa_nm"]), "nm^-1")
            kwargs["kappa"] = to_si(kappa).value
        if d.get("anchor_T_K") is not None:
            kwargs["anchor_T"] = _number("anchor_T_K", d["anchor_T_K"])
        if "geometry_um" in d:
            L, W = (to_si(Quantity(x, "um")).value for x in _pair("geometry_um", d["geometry_um"]))
            kwargs["geometry"] = Geometry(L, W)
        if "extrapolate_l_phi" in d:
            if not isinstance(d["extrapolate_l_phi"], bool):
                raise ValueError("config key 'extrapolate_l_phi' must be true or false")
            kwargs["extrapolate_l_phi"] = d["extrapolate_l_phi"]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "g": self.g_factor,
            "T_c_K": self.T_c,
            "h_min": self.h_min,
            "fit_window_T": list(self.fit_window),
            "kappa_nm": from_si(Quantity(self.kappa, "m^-1"), "nm^-1").value,
            "anchor_T_K": self.anchor_T,
            "geometry_um": [
                from_si(Quantity(x, "m"), "um").value
                for x in (self.geometry.L, self.geometry.W)
            ],
            "extrapolate_l_phi": self.extrapolate_l_phi,
        }


@dataclass
class Dataset:
    """All sweeps of one sample plus the analysis options.

    The Hall-bar geometry is ``config.geometry``.
    """

    sample_id: str
    sweeps: List[SweepRecord]
    config: AnalysisConfig
    sources: List[Tuple[str, str]] = field(default_factory=list)  # (name, sha256)

    def __post_init__(self):
        for s in self.sweeps:
            if s.sample_id != self.sample_id:
                raise ValueError("sweep sample_id differs from dataset sample_id")
            if s.theta_deg not in (0.0, 90.0):
                raise ValueError(
                    f"unsupported orientation theta = {s.theta_deg} deg "
                    "(only 0 and 90 are measured)"
                )


def load_datasets(paths: Sequence, config: AnalysisConfig) -> List[Dataset]:
    """Parse sweep files and group them into per-sample datasets."""
    sources = []
    records: List[SweepRecord] = []
    for p in paths:
        raw = Path(p).read_bytes()
        sources.append((Path(p).name, hashlib.sha256(raw).hexdigest()))
        records.extend(parse_sweep_csv(p))
    by_sample: Dict[str, List[SweepRecord]] = {}
    for r in records:
        by_sample.setdefault(r.sample_id, []).append(r)
    return [
        Dataset(sample_id=sid, sweeps=sw, config=config, sources=sources)
        for sid, sw in sorted(by_sample.items())
    ]


def _sigma0_quadratic(B, R_xx, squares: float) -> float:
    """Zero-field conductivity from the three lowest-|B| points (Lagrange)."""
    B = np.asarray(B, dtype=float)
    if B.size < 3:
        raise ValueError("need at least 3 points to extrapolate sigma0")
    idx = np.argsort(np.abs(B), kind="stable")[:3]
    b = B[idx]
    if len(set(b.tolist())) < 3:
        raise ValueError("degenerate field values near B = 0")
    with np.errstate(divide="ignore"):
        s = squares / np.asarray(R_xx, dtype=float)[idx]
    if not np.all(np.isfinite(s) & (s > 0.0)):
        raise ValueError("non-finite or non-positive conductivity near B = 0 (R_xx = 0?)")
    total = 0.0
    for i in range(3):
        li = 1.0
        for j in range(3):
            if j != i:
                li *= (0.0 - b[j]) / (b[i] - b[j])
        total += s[i] * li
    return float(total)


def _sigma0_per_sweep(ds: Dataset) -> list:
    """Each sweep's sigma0, or the ValueError its extrapolation raised.

    The error is kept, not raised: only a stage that needs that sweep fails
    on it, and the sigma0 plot leaves the sweep out.
    """
    out = []
    for s in ds.sweeps:
        try:
            out.append(_sigma0_quadratic(s.B, s.R_xx, ds.config.geometry.squares))
        except ValueError as exc:
            out.append(ValueError(f"T_bath = {s.T_bath:g} K, theta = {s.theta_deg:g} deg: {exc}"))
    return out


def _checked(sigma0):
    """One entry of ``_sigma0_per_sweep``, raising it if it is an error."""
    if isinstance(sigma0, ValueError):
        raise sigma0
    return sigma0


def _measured(m: Measured) -> dict:
    return {"value": m.value, "stderr": m.stderr}


def _hall_stage(ds: Dataset, sigma0: list) -> Tuple[dict, SamplePhysics]:
    hall_sweeps = [
        (s, s0) for s, s0 in zip(ds.sweeps, sigma0) if s.R_xy is not None and len(s.B) >= 3
    ]
    if not hall_sweeps:
        raise ValueError("no sweep with Hall data (R_xy)")
    sweep, s0 = max(hall_sweeps, key=lambda p: (p[0].T_bath, len(p[0].B)))
    n = density_from_hall(sweep.B, sweep.R_xy)
    sigma_xx = _checked(s0)
    phys = characterize(n.value, sigma_xx, ds.config.kappa)
    rel_n = n.stderr / n.value
    section = {
        "T_K": sweep.T_bath,
        "n_points": int(len(sweep.B)),
        "n_2d_m2": _measured(n),
        "sigma_xx_S": {"value": sigma_xx, "stderr": None},
        "mobility_m2_Vs": _measured(Measured(phys.mu, phys.mu * rel_n)),
        "k_f_m1": _measured(Measured(phys.k_f, 0.5 * phys.k_f * rel_n)),
        "l_mfp_m": _measured(Measured(phys.l_mfp, 0.5 * phys.l_mfp * rel_n)),
        "kf_l": {"value": phys.kf_l, "stderr": None},
        "r_s": _measured(Measured(phys.r_s, 0.5 * phys.r_s * rel_n)),
    }
    return section, phys


def _difference_curve(perp: SweepRecord, inpl: SweepRecord, squares: float):
    """Perpendicular minus in-plane conductivity on the shared field grid."""
    key_p = {round(float(b), 9): i for i, b in enumerate(perp.B)}
    key_i = {round(float(b), 9): i for i, b in enumerate(inpl.B)}
    common = sorted(set(key_p) & set(key_i))
    B = np.array(common, dtype=float)
    with np.errstate(divide="ignore"):
        d = np.array(
            [
                squares * (1.0 / perp.R_xx[key_p[b]] - 1.0 / inpl.R_xx[key_i[b]])
                for b in common
            ]
        )
    return B, d


@dataclass
class WlTemperature:
    """One temperature's difference curve on the shared field grid, and its fit."""

    T_bath: float
    B: np.ndarray
    d_sigma: np.ndarray
    fit: WlDifferenceFit


def _wl_stage(ds: Dataset, sigma0: list, phys: SamplePhysics) -> Tuple[dict, List[WlTemperature]]:
    lo, hi = ds.config.fit_window

    by_T: Dict[float, Dict[float, SweepRecord]] = {}
    for s in ds.sweeps:
        by_T.setdefault(round(s.T_bath, 9), {}).setdefault(s.theta_deg, s)

    fitted: List[WlTemperature] = []
    rows = []
    skipped = []
    for T_key in sorted(by_T):
        pair = by_T[T_key]
        if 0.0 not in pair or 90.0 not in pair:
            skipped.append({"T_bath_K": T_key, "reason": "missing orientation pair"})
            continue
        B, d = _difference_curve(pair[0.0], pair[90.0], ds.config.geometry.squares)
        keep = (np.abs(B) >= lo) & (np.abs(B) <= hi)
        if int(keep.sum()) < 10:
            skipped.append(
                {"T_bath_K": T_key, "reason": "fewer than 10 shared points in window"}
            )
            continue
        bad = ~np.isfinite(d[keep])
        if bad.any():
            raise ValueError(
                f"T_bath = {T_key:g} K: non-finite difference conductivity "
                f"at B = {B[keep][bad][0]:g} T (R_xx = 0?)"
            )
        res = fit_wl_difference(B[keep], d[keep], phys.l_mfp, phys.n_2d)
        fitted.append(WlTemperature(T_key, B, d, res))
        rows.append(
            {
                "T_bath_K": T_key,
                "n_points": int(keep.sum()),
                "l_phi_m": _measured(res.l_phi),
                "gamma_T2": _measured(res.gamma),
                "delta_m": _measured(res.delta),
                "converged": bool(res.fit.converged),
                "iterations": int(res.fit.iterations),
                "nfev": res.fit.nfev,
                "reason": res.fit.reason,
                "residual_norm": res.fit.residual_norm,
            }
        )
    if not fitted:
        raise MissingDataError(
            "no temperature has both orientations with enough shared points"
        )

    good = [t.fit.delta for t in fitted if t.fit.fit.converged]
    dvals = np.array([m.value for m in good])
    derrs = np.array([m.stderr for m in good])
    if good and np.all(derrs > 0.0):
        w = 1.0 / derrs**2
        pooled = Measured(float(np.sum(w * dvals) / np.sum(w)), float(np.sqrt(1.0 / np.sum(w))))
    elif good:
        pooled = Measured(float(dvals.mean()), 0.0)
    else:
        pooled = Measured(math.nan, math.nan)
    section = {
        "per_temperature": rows,
        "skipped": skipped,
        "delta_m": _measured(pooled),
    }
    return section, fitted


def _powerlaw_stage(ds: Dataset, sigma0: list, wl: List[WlTemperature]):
    T_c = ds.config.T_c
    pts = [(t.T_bath, t.fit.l_phi.value) for t in wl if t.fit.fit.converged and t.T_bath > T_c]
    if len(pts) < 3:
        raise MissingDataError(f"need at least 3 converged fits above T_c = {T_c:g} K")
    T = np.array([p[0] for p in pts])
    lp = np.array([p[1] for p in pts])
    res = fit_coherence_power_law(T, lp)
    section = {
        "T_c_K": T_c,
        "n_points": int(len(pts)),
        "exponent": _measured(res.exponent),
        "amplitude_m": _measured(res.amplitude),
    }
    return section, res


def _collapse_stage(ds: Dataset, sigma0: list, wl: List[WlTemperature], phys: SamplePhysics):
    fits = [t for t in wl if t.fit.fit.converged]
    if len(fits) < 3:
        raise MissingDataError("need WL fits at 3 or more temperatures")
    table = WlFitTable(
        T=np.array([t.T_bath for t in fits]),
        l_phi=np.array([t.fit.l_phi.value for t in fits]),
        gamma=np.array([max(t.fit.gamma.value, 0.0) for t in fits]),
        l_mfp=phys.l_mfp,
    )
    # measured Delta sigma(B) per sweep, baseline removed per sweep
    squares = ds.config.geometry.squares
    curves = [
        OrientedCurve(
            T_bath=s.T_bath,
            theta_deg=s.theta_deg,
            B=s.B,
            delta_sigma=squares / s.R_xx - _checked(s0),
        )
        for s, s0 in zip(ds.sweeps, sigma0)
        if len(s.B) >= 3
    ]
    aa = isolate_aa(curves, table, extrapolate=ds.config.extrapolate_l_phi)
    if len(aa) < 3:
        raise MissingDataError("need interaction residues at 3 or more temperatures")

    anchor = None
    if ds.config.anchor_T is not None:
        anchor = int(
            np.argmin([abs(c.T_bath - ds.config.anchor_T) for c in aa])
        )
    result = collapse_teff(
        aa,
        anchor,
        g_factor=ds.config.g_factor,
        h_min=ds.config.h_min,
    )
    section = {
        "anchor_T_bath_K": float(result.t_bath[result.anchor]),
        "dispersion": result.dispersion,
        "dispersion_at_bath": result.dispersion_at_bath,
        "h_min": ds.config.h_min,
        "F": _measured(result.F),
        "intercept_check": result.intercept_check,
        "converged": result.converged,
        "iterations": result.iterations,
        "nfev": result.nfev,
        "reasons": result.reasons,
        "temperatures": [
            {"T_bath_K": float(tb), "T_eff_K": float(te), "T_eff_stderr_K": float(se)}
            for tb, te, se in zip(result.t_bath, result.t_eff, result.t_eff_stderr)
        ],
    }
    return section, result


@dataclass
class Report:
    """Analysis output: stage results plus provenance, JSON-renderable."""

    sample: str
    stages: dict
    provenance: dict
    plots: dict = field(default_factory=dict, repr=False)  # not serialized

    def to_json(self) -> str:
        body = {
            "sample": self.sample,
            "stages": self.stages,
            "provenance": self.provenance,
        }
        return json.dumps(_round_floats(body), sort_keys=True, indent=2) + "\n"


def _round_floats(obj):
    """Round every float to 6 significant digits; NaN and inf become null."""
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return None
        return float(f"{x:.6g}")
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


# (name, stage, upstream stages), upstream first. A stage takes the dataset, its sigma0
# per sweep and the upstream typed results; it returns (section, typed result).
STAGE_TABLE = (
    ("hall", _hall_stage, ()),
    ("wl", _wl_stage, ("hall",)),
    ("powerlaw", _powerlaw_stage, ("wl",)),
    ("collapse", _collapse_stage, ("wl", "hall")),
)
STAGES = tuple(name for name, _, _ in STAGE_TABLE)


def run_analysis(ds: Dataset, sections: Sequence[str] = STAGES) -> Report:
    """Run the stages that ``sections`` names and the stages upstream of them.

    Only those stages appear in ``Report.stages``; the default runs all
    four. A stage whose upstream stages are not all ok is skipped, naming
    the first one that is not. Within a stage, MissingDataError marks it
    skipped and any other ValueError marks it an error.
    """
    if not set(sections) <= set(STAGES):
        raise ValueError(f"unknown section in {tuple(sections)}; the stages are {STAGES}")
    wanted = set(sections)
    for name, _, upstream in reversed(STAGE_TABLE):
        if name in wanted:
            wanted.update(upstream)
    sigma0 = _sigma0_per_sweep(ds)
    stages: dict = {}
    results: dict = {}
    for name, stage, upstream in (row for row in STAGE_TABLE if row[0] in wanted):
        down = [u for u in upstream if u not in results]
        if down:
            stages[name] = {"status": "skipped", "reason": f"{down[0]} stage unavailable"}
            continue
        try:
            section, results[name] = stage(ds, sigma0, *(results[u] for u in upstream))
            stages[name] = {"status": "ok", **section}
        except MissingDataError as exc:
            stages[name] = {"status": "skipped", "reason": str(exc)}
        except ValueError as exc:
            stages[name] = {"status": "error", "message": str(exc)}

    provenance = {
        "inputs": [{"name": n, "sha256": h} for n, h in ds.sources],
        "config": ds.config.to_dict(),
        "version": __version__,
        "sigma0_method": SIGMA0_METHOD,
    }
    return Report(
        sample=ds.sample_id,
        stages=stages,
        provenance=provenance,
        plots=_plot_tables(ds, sigma0, results),
    )


def _plot_tables(ds: Dataset, sigma0: list, results: dict) -> dict:
    """Column tables for the standard figures; keys become CSV file names."""
    plots = {}

    if "wl" in results:
        wl = results["wl"]
        l_mfp = results["hall"].l_mfp
        unit = G0 / math.pi
        # the model on each full shared grid, not only the fit window
        model = [
            unit * models.wl_perp_shape(np.abs(t.B), t.fit.l_phi.value, l_mfp)
            - unit * np.log1p(t.fit.gamma.value * t.B * t.B)
            for t in wl
        ]
        plots["wl_difference"] = [
            ("T_bath_K", np.concatenate([np.full(t.B.size, t.T_bath) for t in wl])),
            ("B_T", np.concatenate([t.B for t in wl])),
            ("d_sigma_S", np.concatenate([t.d_sigma for t in wl])),
            ("d_sigma_fit_S", np.concatenate(model)),
        ]

        T_fit = np.array([t.T_bath for t in wl])
        lp_fit = np.array([t.fit.l_phi.value for t in wl])
        pl = results.get("powerlaw")
        if pl is not None:
            lp_model = pl.amplitude.value * T_fit**pl.exponent.value
        else:
            lp_model = np.full_like(T_fit, math.nan)
        plots["l_phi"] = [
            ("T_bath_K", T_fit),
            ("l_phi_m", lp_fit),
            ("l_phi_powerlaw_m", lp_model),
        ]

    ok = [(s, s0) for s, s0 in zip(ds.sweeps, sigma0) if not isinstance(s0, ValueError)]
    if ok:
        plots["sigma0"] = [
            ("T_bath_K", np.array([s.T_bath for s, _ in ok])),
            ("theta_deg", np.array([s.theta_deg for s, _ in ok])),
            ("sigma0_S", np.array([s0 for _, s0 in ok])),
        ]

    if "collapse" in results:
        col = results["collapse"]
        plots["aa_collapse"] = [
            ("T_bath_K", col.t_bath[col.point_curve]),
            ("B_T", col.point_B),
            ("ln_h_bath", col.ln_h_bath),
            ("ln_h_eff", col.ln_h_eff),
            ("d_sigma_aa_S", col.delta_sigma),
        ]
        plots["aa_master"] = [
            ("ln_h", col.master_curve[:, 0]),
            ("d_sigma_S", col.master_curve[:, 1]),
        ]
    return plots


def write_report(report: Report, outdir) -> Path:
    """Write the JSON report and the plot-data CSVs; returns the JSON path."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    json_path = outdir / f"{report.sample}_report.json"
    json_path.write_text(report.to_json(), encoding="utf-8")
    for key, columns in report.plots.items():
        write_plot_csv(outdir / f"{report.sample}_{key}.csv", key.replace("_", " "), columns)
    return json_path
