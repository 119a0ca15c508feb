"""Carrier density, mobility and derived sample parameters from Hall sweeps.

A single high-temperature sweep with both resistance components determines
everything in the first block of the sample table: the Hall slope gives the
sheet density, the zero-field longitudinal resistance gives the sheet
conductivity, and the rest (mobility, Fermi wavevector, mean free path,
k_F l, r_s) follows algebraically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, HBAR
from .fit import Measured, linear_fit

# Interaction-strength constant kappa = g_v / a_B for these layers, m^-1.
# Single configurable number; the default maps the density range of the
# reference samples onto r_s = 1.4 to 5.5.
KAPPA_DEFAULT = 3.37e9


@dataclass(frozen=True)
class Geometry:
    """Hall-bar geometry: length and width of the current path, m."""

    L: float
    W: float

    def __post_init__(self):
        if not (self.L > self.W > 0.0):
            raise ValueError("expected a Hall bar with L > W > 0")

    @property
    def squares(self) -> float:
        return self.L / self.W


@dataclass
class SamplePhysics:
    """Physical parameters of one electron layer, all in SI."""

    n_2d: float
    mu: float
    sigma_xx: float
    l_mfp: float
    k_f: float
    kf_l: float
    r_s: float

    def __post_init__(self):
        sigma_def = self.n_2d * E_CHARGE * self.mu
        if abs(self.sigma_xx - sigma_def) > 1e-12 * abs(sigma_def):
            raise ValueError("sigma_xx inconsistent with n_2d * e * mu")
        if abs(self.kf_l - self.k_f * self.l_mfp) > 1e-12 * abs(self.kf_l):
            raise ValueError("kf_l inconsistent with k_f * l_mfp")


def density_from_hall(B, R_xy) -> Measured:
    """Sheet density from the linear Hall slope of R_xy(B), with standard error.

    Ordinary least squares of R_xy on B with an intercept; the intercept
    absorbs any contact offset, so adding a constant to R_xy leaves the
    density unchanged. n = 1 / (e * dR_xy/dB).
    """
    B = np.asarray(B, dtype=float)
    R_xy = np.asarray(R_xy, dtype=float)
    if B.shape != R_xy.shape or B.ndim != 1:
        raise ValueError("B and R_xy must be 1-d arrays of equal length")
    if len(B) < 3:
        raise ValueError("need at least 3 field points")
    span = float(np.max(B) - np.min(B))
    if span < 0.5:
        raise ValueError(f"field span {span:.3g} T is below the required 0.5 T")
    for name, v in (("B", B), ("R_xy", R_xy)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} contains non-finite values")
    res = linear_fit(B, R_xy)
    slope = res.slope
    if slope <= 0.0:
        raise ValueError(
            "non-positive Hall slope: carrier sign does not match the expected electrons"
        )
    n = 1.0 / (E_CHARGE * slope)
    slope_se = math.sqrt(max(res.cov[0, 0], 0.0))
    return Measured(n, n * slope_se / slope)


def mobility(n_2d: float, sigma_xx: float) -> float:
    """Drude mobility mu = sigma / (n e), m^2/(V s)."""
    if not (n_2d > 0.0 and sigma_xx > 0.0):
        raise ValueError("n_2d and sigma_xx must be positive")
    return sigma_xx / (n_2d * E_CHARGE)


def fermi_wavevector(n_2d: float) -> float:
    """k_F = sqrt(2 pi n), the spin-degenerate single-valley convention.

    This is the convention under which k_F l reproduces the reference table
    from its density and mean-free-path columns.
    """
    if not n_2d > 0.0:
        raise ValueError("n_2d must be positive")
    return math.sqrt(2.0 * math.pi * n_2d)


def mean_free_path(n_2d: float, mu: float) -> float:
    """Elastic mean free path l = hbar k_F mu / e, m."""
    if not (n_2d > 0.0 and mu > 0.0):
        raise ValueError("n_2d and mu must be positive")
    return HBAR * fermi_wavevector(n_2d) * mu / E_CHARGE


def interaction_rs(n_2d: float, kappa: float = KAPPA_DEFAULT) -> float:
    """Interaction strength r_s = kappa / sqrt(pi n), dimensionless."""
    if not (n_2d > 0.0 and kappa > 0.0):
        raise ValueError("n_2d and kappa must be positive")
    return kappa / math.sqrt(math.pi * n_2d)


def characterize(n_2d: float, sigma_xx: float, kappa: float = KAPPA_DEFAULT) -> SamplePhysics:
    """Assemble a SamplePhysics record from measured density and conductivity."""
    mu = mobility(n_2d, sigma_xx)
    k_f = fermi_wavevector(n_2d)
    l_mfp = mean_free_path(n_2d, mu)
    return SamplePhysics(
        n_2d=n_2d,
        mu=mu,
        sigma_xx=n_2d * E_CHARGE * mu,
        l_mfp=l_mfp,
        k_f=k_f,
        kf_l=k_f * l_mfp,
        r_s=interaction_rs(n_2d, kappa),
    )
