"""Forward models for the magnetoconductance corrections of a 2D layer.

Three additive channels are modeled, all as conductivity corrections per
square relative to the zero-field value:

* ``wl_perp``: weak localization in a perpendicular field (digamma
  lineshape with the phase-breaking and elastic characteristic fields),
* ``wl_inplane``: the residual orbital effect of an in-plane field on a
  layer of finite thickness, log-quadratic with the single parameter gamma,
* ``zeeman_aa``: the interaction (Altshuler-Aronov) correction driven by
  Zeeman splitting, a function of the reduced field h = g mu_B B / (k_B T)
  only, and therefore isotropic in the field direction.

The total correction is the parallel-channel sum WL + Zeeman; taking the
difference of perpendicular and in-plane sweeps cancels the isotropic
Zeeman term and isolates the WL part.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import E_CHARGE, G0, HBAR, K_B, MU_B
from .special import digamma

# Crossover of the small-h quadratic onto the log branch of the Zeeman
# correction. At h = 1.3*sqrt(e) the quadratic a*h^2 that matches the value
# of ln(h/1.3) also matches its slope, so the default interpolation is C1.
H_CROSS_C1 = 1.3 * math.sqrt(math.e)


@dataclass(frozen=True)
class WlParams:
    """Weak-localization parameters: coherence length and mean free path (m)."""

    l_phi: float
    l_mfp: float

    def __post_init__(self):
        if not (self.l_phi > 0.0 and self.l_mfp > 0.0):
            raise ValueError("l_phi and l_mfp must be positive")
        if self.l_phi <= self.l_mfp:
            warnings.warn(
                "l_phi <= l_mfp: outside the diffusive WL regime",
                stacklevel=2,
            )


@dataclass(frozen=True)
class InPlaneParams:
    """In-plane orbital parameter gamma (T^-2)."""

    gamma: float

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise ValueError("gamma must be >= 0")


@dataclass(frozen=True)
class AaParams:
    """Interaction-correction parameters: Coulomb average F and g-factor."""

    F: float
    g_factor: float = 2.0

    def __post_init__(self):
        if not (math.isfinite(self.F) and math.isfinite(self.g_factor)):
            raise ValueError("F and g_factor must be finite")


def phase_breaking_field(l_phi: float) -> float:
    """B_phi = hbar / (4 e l_phi^2), the field scale set by the coherence length."""
    if not l_phi > 0.0:
        raise ValueError("l_phi must be positive")
    return HBAR / (4.0 * E_CHARGE * l_phi**2)


def elastic_field(l_mfp: float) -> float:
    """B_l = hbar / (2 e l^2), the field scale set by the mean free path."""
    if not l_mfp > 0.0:
        raise ValueError("l_mfp must be positive")
    return HBAR / (2.0 * E_CHARGE * l_mfp**2)


def wl_perp_shape(B, l_phi: float, l_mfp: float):
    """Dimensionless perpendicular WL lineshape, in units of G0/pi.

    psi(1/2 + B_phi/B) - psi(1/2 + B_l/B) + ln(2 l_phi^2 / l^2), with the
    B = 0 limit returned analytically as 0. Fitting code calls this directly
    to avoid rebuilding parameter records in inner loops.
    """
    arr = np.asarray(B, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("wl_perp requires B >= 0; pass |B| for signed sweeps")
    b_phi = phase_breaking_field(l_phi)
    b_l = elastic_field(l_mfp)
    log_sat = math.log(2.0 * l_phi**2 / l_mfp**2)

    scalar = arr.ndim == 0
    work = np.atleast_1d(arr)
    out = np.zeros_like(work)
    nz = work > 0.0
    if nz.any():
        bnz = work[nz]
        out[nz] = (
            digamma(0.5 + b_phi / bnz) - digamma(0.5 + b_l / bnz) + log_sat
        )
    return float(out[0]) if scalar else out.reshape(arr.shape)


def wl_perp(B, p: WlParams):
    """Weak-localization correction for a perpendicular field.

    Delta sigma(B) = (G0/pi) [psi(1/2 + B_phi/B) - psi(1/2 + B_l/B)
                              + ln(2 l_phi^2 / l^2)]

    The B = 0 limit is returned analytically as 0; the two digamma terms
    cancel the log offset there because B_phi/B_l = l^2/(2 l_phi^2). For
    B >> B_l the curve saturates at (G0/pi) ln(2 l_phi^2/l^2).

    Parameters
    ----------
    B : float or array_like
        Field magnitude, T. Must be >= 0; callers fold signed sweeps with |B|.
    p : WlParams

    Returns
    -------
    float or ndarray
        Correction in S per square.
    """
    return (G0 / math.pi) * wl_perp_shape(B, p.l_phi, p.l_mfp)


def wl_inplane(B, p: InPlaneParams):
    """Residual orbital correction for an in-plane field.

    Delta sigma(B) = (G0/pi) ln(1 + gamma B^2). Even in B, zero for an
    infinitely thin layer (gamma = 0).
    """
    arr = np.asarray(B, dtype=float)
    out = (G0 / math.pi) * np.log1p(p.gamma * arr * arr)
    return float(out) if arr.ndim == 0 else out


def gamma_param(delta: float, n_2d: float, l_phi: float, l_mfp: float) -> float:
    """Orbital parameter of a layer of finite thickness.

    gamma = delta^2 sqrt(4 pi / n) ((e/hbar) l_phi / sqrt(l))^2, in T^-2.

    Parameters
    ----------
    delta : float
        Layer thickness, m.
    n_2d : float
        Sheet density, m^-2.
    l_phi, l_mfp : float
        Coherence length and mean free path, m.
    """
    if not (delta > 0.0 and n_2d > 0.0 and l_phi > 0.0 and l_mfp > 0.0):
        raise ValueError("gamma_param requires positive inputs")
    return (
        delta**2
        * math.sqrt(4.0 * math.pi / n_2d)
        * (E_CHARGE / HBAR * l_phi / math.sqrt(l_mfp)) ** 2
    )


def thickness_from_gamma(gamma: float, n_2d: float, l_phi: float, l_mfp: float) -> float:
    """Invert ``gamma_param`` for the layer thickness (m).

    Exact algebraic inverse; gamma = 0 maps to delta = 0.
    """
    if not (gamma >= 0.0 and n_2d > 0.0 and l_phi > 0.0 and l_mfp > 0.0):
        raise ValueError("thickness_from_gamma requires gamma >= 0 and positive inputs")
    scale = math.sqrt(4.0 * math.pi / n_2d) * (E_CHARGE / HBAR * l_phi) ** 2 / l_mfp
    return math.sqrt(gamma / scale)


def reduced_field(B, T: float, g_factor: float = 2.0):
    """Reduced magnetic field h = g mu_B B / (k_B T), dimensionless."""
    if not T > 0.0:
        raise ValueError("reduced_field requires T > 0")
    arr = np.asarray(B, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("reduced_field requires B >= 0")
    out = g_factor * MU_B * arr / (K_B * T)
    return float(out) if arr.ndim == 0 else out


def zeeman_aa(B, T: float, p: AaParams, *, h_cross: float = H_CROSS_C1):
    """Zeeman-driven interaction correction, isotropic in field direction.

    For h = g mu_B |B| / (k_B T) >= h_cross this is the asymptotic form

        Delta sigma(h) = -(G0 / 2 pi) F ln(h / 1.3),

    valid for h >> 1. Below h_cross a quadratic a h^2 matched to the log
    branch at h_cross carries the curve smoothly to 0 at B = 0 (the
    asymptotic form would diverge there). At the default h_cross =
    1.3 sqrt(e) the match is C1; other crossover choices are continuous in
    value only.

    Parameters
    ----------
    B : float or array_like
        Field, T; the sign is irrelevant (Zeeman coupling is even in B).
    T : float
        Electron temperature, K.
    p : AaParams
    h_cross : float, keyword only
        Crossover reduced field, must be > 1.3.
    """
    if not h_cross > 1.3:
        raise ValueError("h_cross must exceed the reference constant 1.3")
    arr = np.asarray(B, dtype=float)
    h = reduced_field(np.abs(arr), T, p.g_factor)
    h = np.atleast_1d(np.asarray(h, dtype=float))
    a = math.log(h_cross / 1.3) / h_cross**2
    out = np.where(
        h >= h_cross,
        np.log(np.maximum(h, h_cross) / 1.3),
        a * h * h,
    )
    out *= -G0 / (2.0 * math.pi) * p.F
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def total_delta_sigma(
    B,
    theta: float,
    T: float,
    wl: WlParams,
    ip: InPlaneParams,
    aa: AaParams,
):
    """Total correction, WL and Zeeman channels added in parallel.

    Parameters
    ----------
    B : float or array_like
        Field magnitude, T.
    theta : float
        Angle from the layer normal, radians. Only 0 (perpendicular) and
        pi/2 (in-plane), the two measured orientations, are supported.
    T : float
        Electron temperature, K.

    Returns
    -------
    float or ndarray
        wl_perp(B) + zeeman_aa(B, T) at theta = 0, or
        wl_inplane(B) + zeeman_aa(B, T) at theta = pi/2. The Zeeman term is
        orientation independent, so the perpendicular minus in-plane
        difference is the pure WL difference for any F and T.
    """
    if math.isclose(theta, 0.0, abs_tol=1e-12):
        orbital = wl_perp(B, wl)
    elif math.isclose(theta, math.pi / 2.0, abs_tol=1e-12):
        orbital = wl_inplane(B, ip)
    else:
        raise ValueError("theta must be 0 or pi/2")
    return orbital + zeeman_aa(B, T, aa)
