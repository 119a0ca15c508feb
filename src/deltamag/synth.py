"""Synthetic sweep generation from ground-truth layer parameters.

The generator is the exact forward image of the analysis: the total
conductivity correction is evaluated at the effective electron temperature,
converted to resistances through the Hall-bar geometry, and dressed with
multiplicative Gaussian noise. Every inverse step in the pipeline is tested
against data produced here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from .constants import E_CHARGE, Quantity, _number, to_si
from .hall import Geometry, mean_free_path
from .models import AaParams, InPlaneParams, WlParams, gamma_param, total_delta_sigma
from .sweepio import SweepRecord, check_sample_id

B_MAX_APPARATUS = 2.0   # T, vector-magnet envelope
T_MIN_APPARATUS = 0.03  # K, cryostat base temperature


def _get(parent, key: str, default=None, kind=float):
    """``parent[key]`` as a number, or checked to be a ``kind`` (dict or list).

    ``parent`` must be a JSON object; a key without a ``default`` is required.
    """
    if not isinstance(parent, dict):
        raise ValueError(f"synth config: expected a JSON object, got {parent!r}")
    if key not in parent:
        if default is None:
            raise ValueError(f"synth config is missing key {key!r}")
        return default
    if kind is float:
        return _number(key, parent[key])
    if not isinstance(parent[key], kind):
        raise ValueError(f"config key {key!r} has the wrong type, got {parent[key]!r}")
    return parent[key]


def _known(obj: dict, keys: str) -> None:
    """Raise for a key of ``obj`` that is not one of the blank-separated ``keys``."""
    for key in obj:
        if key not in keys.split():
            raise ValueError(f"unknown synth config key {key!r}")


def effective_temperature(T_bath: float, t_sat: float) -> float:
    """Electron temperature with low-T saturation, sqrt(T_bath^2 + t_sat^2).

    Smooth crossover with the right asymptotes: T_bath when T_bath >> t_sat,
    t_sat as T_bath -> 0. t_sat = 0 is allowed and means no saturation.
    """
    if not T_bath > 0.0:
        raise ValueError("T_bath must be positive")
    if not t_sat >= 0.0:
        raise ValueError("t_sat must be nonnegative")
    return math.hypot(T_bath, t_sat)


@dataclass
class SweepPlanEntry:
    """One planned sweep: bath temperature, orientation, field grid."""

    T_bath: float
    theta_deg: float
    B: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        if self.theta_deg not in (0.0, 90.0):
            raise ValueError("theta_deg must be 0 or 90")
        if not self.T_bath >= T_MIN_APPARATUS:
            raise ValueError(f"T_bath below the {T_MIN_APPARATUS} K base temperature")
        if np.any(np.abs(self.B) > B_MAX_APPARATUS):
            raise ValueError(f"|B| exceeds the {B_MAX_APPARATUS} T apparatus range")


@dataclass
class SynthConfig:
    """Ground truth and measurement plan for one synthetic sample.

    All quantities in SI; ``from_dict`` accepts the practical units of the
    JSON schema (cm^-2, cm^2/Vs, nm, um).
    """

    sample_id: str
    n_2d: float            # m^-2
    mobility: float        # m^2/(V s)
    delta: float           # m, 0 means an ideally thin layer
    F: float
    l_phi_amplitude: float  # m at 1 K
    l_phi_exponent: float
    t_sat: float           # K
    relative_sigma: float
    seed: int
    sweep_plan: List[SweepPlanEntry] = field(default_factory=list)
    geometry: Geometry = field(default_factory=lambda: Geometry(200e-6, 20e-6))
    current: float = 1e-9
    g_factor: float = 2.0

    def __post_init__(self):
        check_sample_id(self.sample_id)
        if not (self.n_2d > 0.0 and self.mobility > 0.0):
            raise ValueError("n_2d and mobility must be positive")
        if not self.delta >= 0.0:
            raise ValueError("delta must be nonnegative")
        if not self.l_phi_amplitude > 0.0:
            raise ValueError("l_phi amplitude must be positive")
        if not self.l_phi_exponent < 0.0:
            raise ValueError("l_phi exponent must be negative (coherence grows on cooling)")
        if not self.t_sat >= 0.0:
            raise ValueError("t_sat must be nonnegative")
        if not self.relative_sigma >= 0.0:
            raise ValueError("relative_sigma must be nonnegative")

    @property
    def sigma0(self) -> float:
        """Zero-field sheet conductivity n e mu, S per square."""
        return self.n_2d * E_CHARGE * self.mobility

    @property
    def l_mfp(self) -> float:
        return mean_free_path(self.n_2d, self.mobility)

    def l_phi_at(self, T_eff: float) -> float:
        return self.l_phi_amplitude * T_eff**self.l_phi_exponent

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        """Parse the JSON schema; a missing or unknown key or a wrong type raises ValueError."""
        sample, law = _get(d, "sample", kind=dict), _get(d, "l_phi_law", kind=dict)
        noise, geo = _get(d, "noise", {}, dict), _get(d, "geometry", {}, dict)
        _known(d, "sample_id sample l_phi_law t_sat_K noise sweep_plan geometry current_A g_factor")
        _known(sample, "n_2d_cm2 mobility_cm2_Vs delta_nm F")
        _known(law, "amplitude_nm exponent")
        _known(noise, "relative_sigma seed")
        _known(geo, "L_um W_um")
        plan = []
        for entry in _get(d, "sweep_plan", [], list):
            spec = _get(entry, "B_T", kind=(dict, list))
            _known(entry, "T_bath_K theta_deg B_T")
            if isinstance(spec, dict):
                _known(spec, "start stop num")
                B = np.linspace(_get(spec, "start"), _get(spec, "stop"), int(_get(spec, "num")))
            else:
                B = np.array([_number("B_T", b) for b in spec])
            plan.append(SweepPlanEntry(_get(entry, "T_bath_K"), _get(entry, "theta_deg"), B))
        return cls(
            sample_id=str(d.get("sample_id", "synth")),
            n_2d=to_si(Quantity(_get(sample, "n_2d_cm2"), "cm^-2")).value,
            mobility=to_si(Quantity(_get(sample, "mobility_cm2_Vs"), "cm^2/Vs")).value,
            delta=to_si(Quantity(_get(sample, "delta_nm", 0.0), "nm")).value,
            F=_get(sample, "F", 0.0),
            l_phi_amplitude=to_si(Quantity(_get(law, "amplitude_nm"), "nm")).value,
            l_phi_exponent=_get(law, "exponent"),
            t_sat=_get(d, "t_sat_K", 0.0),
            relative_sigma=_get(noise, "relative_sigma", 0.0),
            seed=int(_get(noise, "seed", 0)),
            sweep_plan=plan,
            geometry=Geometry(
                to_si(Quantity(_get(geo, "L_um", 200.0), "um")).value,
                to_si(Quantity(_get(geo, "W_um", 20.0), "um")).value,
            ),
            current=_get(d, "current_A", 1e-9),
            g_factor=_get(d, "g_factor", 2.0),
        )

    @classmethod
    def from_json(cls, path) -> "SynthConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def generate_sweep(cfg: SynthConfig, entry: SweepPlanEntry, index: int) -> SweepRecord:
    """Generate one sweep; deterministic for a given (seed, sweep index)."""
    rng = np.random.default_rng((cfg.seed, index))
    T_eff = effective_temperature(entry.T_bath, cfg.t_sat)
    l_phi = cfg.l_phi_at(T_eff)
    l_mfp = cfg.l_mfp
    wl = WlParams(l_phi=l_phi, l_mfp=l_mfp)
    gamma = (
        gamma_param(cfg.delta, cfg.n_2d, l_phi, l_mfp) if cfg.delta > 0.0 else 0.0
    )
    ip = InPlaneParams(gamma)
    aa = AaParams(F=cfg.F, g_factor=cfg.g_factor)
    d_sigma = total_delta_sigma(np.abs(entry.B), entry.theta_deg, T_eff, wl, ip, aa)
    sigma = cfg.sigma0 + d_sigma
    if np.any(sigma <= 0.0):
        raise ValueError("unphysical configuration: sigma_xx <= 0 on the grid")
    R_xx = cfg.geometry.squares / sigma
    R_xy: Optional[np.ndarray] = None
    if entry.theta_deg == 0.0:
        R_xy = entry.B / (cfg.n_2d * E_CHARGE)

    if cfg.relative_sigma > 0.0:
        R_xx = R_xx * (1.0 + cfg.relative_sigma * rng.standard_normal(R_xx.size))
        if R_xy is not None:
            R_xy = R_xy * (1.0 + cfg.relative_sigma * rng.standard_normal(R_xy.size))

    return SweepRecord(
        sample_id=cfg.sample_id,
        T_bath=entry.T_bath,
        theta_deg=entry.theta_deg,
        B=entry.B.copy(),
        R_xx=R_xx,
        R_xy=R_xy,
        current=cfg.current,
    )


def generate_dataset(cfg: SynthConfig) -> List[SweepRecord]:
    """All sweeps of the plan, each with its own (seed, index) generator."""
    return [generate_sweep(cfg, entry, i) for i, entry in enumerate(cfg.sweep_plan)]


def write_truth_json(cfg: SynthConfig, path) -> None:
    """Record the ground truth next to generated data, for later comparison."""
    truth = {
        "sample_id": cfg.sample_id,
        "n_2d_m2": cfg.n_2d,
        "mobility_m2_Vs": cfg.mobility,
        "sigma0_S": cfg.sigma0,
        "l_mfp_m": cfg.l_mfp,
        "delta_m": cfg.delta,
        "F": cfg.F,
        "l_phi_amplitude_m": cfg.l_phi_amplitude,
        "l_phi_exponent": cfg.l_phi_exponent,
        "t_sat_K": cfg.t_sat,
        "t_eff_K": {
            str(e.T_bath): effective_temperature(e.T_bath, cfg.t_sat)
            for e in cfg.sweep_plan
        },
    }
    Path(path).write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n")
