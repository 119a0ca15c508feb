"""Forward models for the magnetoconductance corrections of a 2D layer.

Three additive channels are modeled, all as conductivity corrections per
square relative to the zero-field value:

* ``wl_perp``: weak localization in a perpendicular field (digamma
  lineshape with the phase-breaking and elastic characteristic fields),
* ``wl_inplane``: the residual orbital effect of an in-plane field on a
  layer of finite thickness, log-quadratic with the single parameter gamma,
* ``zeeman_aa``: the interaction (Altshuler-Aronov) correction driven by
  Zeeman splitting, proportional to the crossover function ``g2`` of the
  reduced field h = g mu_B B / (k_B T) only, and therefore isotropic in the
  field direction. g2 sums the ten-step digamma lift of ``special`` in
  real arithmetic; only its asymptotic tails are complex.

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
from .special import _TAIL_COEFFS, digamma

EULER_GAMMA = 0.5772156649015329
# zeta(3), zeta(5), ..., zeta(31)
_ZETA_ODD = (
    1.2020569031595942, 1.03692775514337, 1.008349277381923, 1.0020083928260821,
    1.0004941886041194, 1.0001227133475785, 1.000030588236307, 1.0000076371976379,
    1.0000019082127165, 1.0000004769329869, 1.000000119219926, 1.0000000298035034,
    1.0000000074507118, 1.0000000018626598, 1.0000000004656628,
)
# c^2 sum_n (-c^2)^n a_n with c = h/2pi: the Taylor series of g2 and of h dg2/dh,
# the a_n of both side by side
_G2_SERIES = np.array(
    [[[(2 * n + 3) * z], [(2 * n + 2) * (2 * n + 3) * z]] for n, z in enumerate(_ZETA_ODD)]
)
# the psi, psi1 and psi2 tails of ``special`` side by side: B_2n/2n, B_2n, B_2n (2n + 1)
_G2_TAILS = np.array([[[a], [2 * n * a], [(2 * n + 1) * 2 * n * a]] for n, a in enumerate(_TAIL_COEFFS, 1)])
_K = np.arange(1.0, 11.0)  # the lift terms k = 1..10
_K2 = (_K * _K)[:, None]


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
    low = arr.min() if arr.size else 0.0
    if not low >= 0.0:  # also NaN
        why = ", got NaN" if math.isnan(low) else "; pass |B| for signed sweeps"
        raise ValueError(f"wl_perp requires B >= 0{why}")
    b_phi = phase_breaking_field(l_phi)
    b_l = elastic_field(l_mfp)
    log_sat = math.log(2.0 * l_phi**2 / l_mfp**2)
    # psi(1/2 + B_phi/B) and psi(1/2 + B_l/B) from one lift of the stacked rows
    if arr.ndim == 1 and low > 0.0:
        psi = digamma(0.5 + np.array([[b_phi], [b_l]]) / arr)
        return psi[0] - psi[1] + log_sat

    scalar = arr.ndim == 0
    work = np.atleast_1d(arr)
    out = np.zeros_like(work)
    nz = work > 0.0
    if nz.any():
        psi = digamma(0.5 + np.array([[b_phi], [b_l]]) / work[nz])
        out[nz] = psi[0] - psi[1] + log_sat
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


def reduced_field(B, T, g_factor: float = 2.0):
    """Reduced magnetic field h = g mu_B B / (k_B T), dimensionless; T is one
    temperature or one per point, shaped like B."""
    T = np.asarray(T, dtype=float)
    if T.size and not T.min() > 0.0:  # also NaN
        raise ValueError("reduced_field requires T > 0" + (", got NaN" if np.isnan(T).any() else ""))
    arr = np.asarray(B, dtype=float)
    if arr.size and not arr.min() >= 0.0:  # also NaN
        raise ValueError("reduced_field requires B >= 0" + (", got NaN" if np.isnan(arr).any() else ""))
    out = g_factor * MU_B * arr / (K_B * T)
    return float(out) if arr.ndim == 0 else out


def g2_with_log_slope(h):
    """g2(h) and h dg2/dh = c (-2 Im psi1(z) - c Re psi2(z)) as arrays shaped
    like h, with c and z as in ``g2``. For c >= 0.25 the ten lift terms of psi,
    psi1 and psi2 are summed in real arithmetic, with q = 1/(k^2 + c^2):
    Re 1/(k + ic) = kq, Im 1/(k + ic)^2 = -2ckq^2, Re 1/(k + ic)^3 = k(k^2 - 3c^2)q^3."""
    arr = np.asarray(h, dtype=float)
    c = arr.reshape(-1) / (2.0 * math.pi)
    g, slope = np.empty_like(c), np.empty_like(c)
    small = c < 0.25  # there 15 terms are exact to rounding; the closed form cancels gamma_E
    if small.any():
        c2 = c[small] ** 2
        neg_c2, acc = -c2, np.repeat(_G2_SERIES[-1], c2.size, axis=1)
        for a in _G2_SERIES[-2::-1]:  # in place: the same rounding, no temporaries
            acc *= neg_c2
            acc += a
        g[small], slope[small] = c2 * acc
    big = ~small
    if big.any():
        cb = c[big]
        cc = cb * cb
        q = 1.0 / (_K2 + cc)
        q2 = q * q
        w = 11.0 + 1j * cb  # z + 10, where the psi, psi1 and psi2 tails are summed at once
        z = 1.0 / (w * w)
        t = 0.0
        for a in _G2_TAILS[::-1]:
            t = (t + a) * z
        re_psi = (np.log(w) - 0.5 / w - t[0]).real - _K @ q
        im_psi1 = ((1.0 + 0.5 / w + t[1]) / w).imag - 2.0 * cb * (_K @ q2)
        re_psi2 = (-(1.0 + 1.0 / w + t[2]) * z).real - 2.0 * (_K @ (q2 * q * (_K2 - 3.0 * cc)))
        g[big] = EULER_GAMMA + re_psi - cb * im_psi1
        slope[big] = cb * (-2.0 * im_psi1 - cb * re_psi2)
    return g.reshape(arr.shape), slope.reshape(arr.shape)


def g2(h):
    """Zeeman crossover function of the interaction correction.

    g2(h) = int_0^inf dW [d^2/dW^2 W/(e^W - 1)] ln|1 - h^2/W^2|
    (Lee & Ramakrishnan, Rev. Mod. Phys. 57, 287 (1985), eq. 4.23), summed
    in closed form over the Matsubara poles of W/(e^W - 1): with c = h/2pi
    and z = 1 + ic,

        g2 = gamma_E + Re psi(z) - c Im psi1(z).

    It rises as 3 zeta(3) h^2 / 4 pi^2 = 0.0913 h^2 for h << 1 and tends to
    ln(h/2pi) + gamma_E + 1 = ln(h/1.298) for h >> 1; g2(1) = 0.0881,
    g2(3) = 0.617. Takes h >= 0; scalar in, scalar out.
    """
    g = g2_with_log_slope(h)[0]
    return float(g) if g.ndim == 0 else g


def zeeman_aa(B, T: float, p: AaParams):
    """Zeeman-driven interaction correction, isotropic in field direction.

        Delta sigma(B, T) = -(G0 / 2 pi) F g2(h),  h = g mu_B |B| / (k_B T).

    This F is Lee and Ramakrishnan's F~sigma: their -(e^2/hbar)(F~sigma/4pi^2) g2
    equals -(G0/2pi) F~sigma g2, since G0 = e^2/h = e^2/(2 pi hbar).

    Parameters
    ----------
    B : float or array_like
        Field, T; the sign is irrelevant (Zeeman coupling is even in B).
    T : float
        Electron temperature, K.
    p : AaParams
    """
    h = reduced_field(np.abs(np.asarray(B, dtype=float)), T, p.g_factor)
    return -G0 / (2.0 * math.pi) * p.F * g2(h)


def orbital_delta_sigma(B, theta_deg: float, l_phi: float, l_mfp: float, gamma: float):
    """Orbital (WL) correction of one orientation at field magnitude B >= 0, S:
    (G0/pi) ``wl_perp_shape`` at theta = 0 (perpendicular), ``wl_inplane`` at
    theta = 90 deg (in-plane), the two measured orientations."""
    if theta_deg == 0.0:
        return (G0 / math.pi) * wl_perp_shape(B, l_phi, l_mfp)
    if theta_deg == 90.0:
        return wl_inplane(B, InPlaneParams(gamma))
    raise ValueError("theta_deg must be 0 or 90")


def total_delta_sigma(
    B, theta_deg: float, T: float, wl: WlParams, ip: InPlaneParams, aa: AaParams
):
    """Total correction, WL and Zeeman channels added in parallel, S.

    ``orbital_delta_sigma`` at B (field magnitude, T) and theta_deg (0 or 90,
    degrees from the layer normal) plus ``zeeman_aa`` at the electron
    temperature T (K). The Zeeman term is orientation independent, so the
    perpendicular minus in-plane difference is the pure WL difference for
    any F and T.
    """
    orbital = orbital_delta_sigma(B, theta_deg, wl.l_phi, wl.l_mfp, ip.gamma)
    return orbital + zeeman_aa(B, T, aa)
