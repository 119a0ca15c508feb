"""Least-squares machinery and the transport inverse problems.

The generic pieces are ``linear_fit`` (ordinary least squares with
intercept) and ``levmar`` (Levenberg-Marquardt with box projection). On top
of them sit the three model inversions: the two-parameter weak-localization
difference fit, the coherence-length power law, and the interaction-slope
fit that yields the Coulomb parameter F.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .constants import E_CHARGE, G0, HBAR
from .models import elastic_field, phase_breaking_field, thickness_from_gamma, wl_perp_shape
from .special import trigamma


class Measured(NamedTuple):
    """A value with its one-sigma standard error."""

    value: float
    stderr: float


@dataclass
class LinearFit:
    """Slope/intercept fit with covariance (order: slope, intercept)."""

    slope: float
    intercept: float
    cov: np.ndarray


def linear_fit(x, y) -> LinearFit:
    """Ordinary least squares of y on x with an intercept.

    The covariance is (X^T X)^-1 scaled by chi^2 / dof with dof = n - 2,
    so exact data yields a zero covariance. Two points are allowed (exact
    line, dof clamped to 1).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 points")
    xm = x.mean()
    dx = x - xm
    sxx = float(dx @ dx)
    if sxx <= 0.0:
        raise ValueError("x values are all identical")
    slope = float(dx @ y) / sxx
    intercept = float(y.mean() - slope * xm)
    resid = y - (slope * x + intercept)
    chi2 = float(resid @ resid)
    dof = max(n - 2, 1)
    s2 = chi2 / dof
    # cov in the centered basis, then shift the intercept back to x = 0
    cov = s2 * np.array(
        [[1.0 / sxx, -xm / sxx], [-xm / sxx, 1.0 / n + xm * xm / sxx]]
    )
    return LinearFit(slope, intercept, cov)


@dataclass
class Residual:
    """Residual mapping for ``levmar``.

    ``evaluate`` maps a parameter vector to the residual vector and
    ``jacobian`` to its exact derivative, one column per parameter.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


@dataclass
class FitResult:
    params: np.ndarray
    covariance: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool
    bounds_active: np.ndarray
    jacobian: np.ndarray  # at ``params``
    residual: np.ndarray  # at ``params``
    reason: str  # the stopping test met; see ``levmar``
    nfev: int  # residual evaluations


class ResidualError(ValueError):
    """Raised when a residual evaluation turns non-finite mid-iteration.

    Carries the last finite state so callers can inspect where the
    optimizer was before the failure.
    """

    def __init__(self, message, last_params=None, last_residual=None):
        super().__init__(message)
        self.last_params = last_params
        self.last_residual = last_residual


def _sandwich_covariance(J, r, x_scale):
    """Heteroscedasticity-consistent covariance from squared residuals.

    (J'J)^-1 J' diag(r^2) J (J'J)^-1 with the m/(m-k) small-sample
    correction, from the Jacobian ``J`` and residual ``r`` at the optimum;
    reduces to the usual estimate when the residual variance is uniform.
    """
    J = J * np.asarray(x_scale, dtype=float)[None, :]  # dimensionless params
    m, k = J.shape
    bread = np.linalg.pinv(J.T @ J, hermitian=True)
    meat = J.T @ (J * (r * r)[:, None])
    cov_u = bread @ meat @ bread * (m / max(m - k, 1))
    S = np.outer(x_scale, x_scale)
    cov = cov_u * S
    return 0.5 * (cov + cov.T)


def levmar(
    residual,
    init,
    bounds=None,
    *,
    x_scale=None,
    gtol=1e-10,
    xtol=1e-12,
    max_iter=200,
) -> FitResult:
    """Levenberg-Marquardt least squares with box projection.

    Starts with undamped Gauss-Newton steps (so linear problems finish in
    one accepted step). The damping rises when a step fails or gains less
    than a quarter of the model's predicted decrease, and falls otherwise.
    Candidate steps are projected onto the box. The stopping tests follow
    MINPACK (Moré 1978) and do not depend on the residual's units;
    ``FitResult.reason`` names the one met:

    - ``"gtol"``: max_j |J_j'r| / (|J_j| |r|) <= gtol over the free columns;
    - ``"ftol"``: the actual and predicted cost decreases of an accepted
      step, or the predicted one of an undamped Gauss-Newton step, are at
      most 1e-10 of the cost;
    - ``"xtol"``: a step moves no parameter by xtol in units of x_scale;
    - ``"max_iter"`` (max_iter iterations passed) and ``"damping"`` (the
      damping overflowed) met no test, and ``converged`` is False.

    Parameters
    ----------
    residual : Residual
        Residual mapping with its exact Jacobian.
    init : array_like
        Start point, must lie inside the bounds.
    bounds : (lo, hi) pair of arrays, optional
    x_scale : array_like, optional
        Characteristic parameter magnitudes: steps are solved and their
        size tested in these units. Defaults to |init| (1 for zero entries).

    Returns
    -------
    FitResult
        With covariance (J^T J)^-1 scaled by the reduced chi-square at the
        optimum, ``reason`` as above and ``nfev`` the number of residual
        evaluations.
    """
    p = np.asarray(init, dtype=float).copy()
    k = p.size
    if bounds is None:
        lo = np.full(k, -np.inf)
        hi = np.full(k, np.inf)
    else:
        lo, hi = (np.asarray(b, dtype=float).copy() for b in bounds)
    if np.any(lo > hi):
        raise ValueError("lower bound exceeds upper bound")
    if np.any(p < lo) or np.any(p > hi):
        raise ValueError("init lies outside the bounds")
    if x_scale is None:
        scale = np.where(np.abs(p) > 0.0, np.abs(p), 1.0)
    else:
        scale = np.asarray(x_scale, dtype=float)
    scale2 = np.outer(scale, scale)

    def evaluate(q, last_p, last_r):
        r = np.asarray(residual.evaluate(q), dtype=float)
        if not np.all(np.isfinite(r)):
            raise ResidualError(
                "residual became non-finite during iteration",
                last_params=None if last_p is None else last_p.copy(),
                last_residual=None if last_r is None else last_r.copy(),
            )
        return r

    r = evaluate(p, None, None)
    nfev = 1
    m = r.size
    if m < k:
        raise ValueError("residual must have at least as many entries as parameters")
    cost = 0.5 * float(r @ r)
    # normal matrix and gradient in units of x_scale; raw parameter
    # magnitudes can differ by many orders and would wreck the conditioning
    J = np.asarray(residual.jacobian(p), dtype=float)
    A_s = (J.T @ J) * scale2
    g_s = (J.T @ r) * scale

    lam = 0.0
    iterations = 0
    reason = "max_iter"
    while iterations < max_iter:
        # Coordinates pressed against a bound by the gradient are frozen for
        # this step, otherwise the clipped step keeps fighting the box
        # instead of optimizing the free directions.
        at_lo = (p - lo) <= 1e-8 * scale
        at_hi = (hi - p) <= 1e-8 * scale
        free = ~((at_lo & (g_s > 0.0)) | (at_hi & (g_s < 0.0)))
        A_f = A_s[np.ix_(free, free)]
        d = np.diag(A_f)
        # the cosine of the angle between r and each free column of J
        if np.all(np.abs(g_s[free]) <= gtol * math.sqrt(2.0 * cost) * np.sqrt(d)):
            reason = "gtol"
            break

        iterations += 1
        D = np.maximum(d, 1e-32 * d.max())  # relative, so free of residual units
        try:
            du_f = np.linalg.solve(A_f + lam * np.diag(D), -g_s[free])
        except np.linalg.LinAlgError:
            lam = 1e-3 if lam == 0.0 else 10.0 * lam
            if lam > 1e32:
                reason = "damping"
                break
            continue
        du = np.zeros(k)
        du[free] = du_f
        dp = du * scale
        p_new = np.clip(p + dp, lo, hi)
        step = p_new - p
        if not np.any(step):
            # damping has already shrunk the step below float resolution;
            # raising it further cannot reopen a direction
            reason = "xtol"
            break
        step_s = step / scale
        predicted = -(g_s @ step_s + 0.5 * step_s @ (A_s @ step_s))
        small = 1e-10 * cost  # MINPACK's ftol
        # an undamped full Gauss-Newton step whose own model predicts no
        # meaningful decrease means we are at the optimum up to rounding;
        # a box-clipped step says nothing of the sort
        if lam == 0.0 and predicted <= small and np.array_equal(step, dp):
            reason = "ftol"
            break
        nfev += 1
        r_new = evaluate(p_new, p, r)
        cost_new = 0.5 * float(r_new @ r_new)
        actual = cost - cost_new
        if actual >= 0.0:
            p, r, cost = p_new, r_new, cost_new
            J = np.asarray(residual.jacobian(p), dtype=float)
            A_s = (J.T @ J) * scale2
            g_s = (J.T @ r) * scale
            if actual <= small and predicted <= small:
                reason = "ftol"
                break
            # a model that overstated the gain shortens the next step, which
            # ends the slow creep of large-residual problems
            if actual < 0.25 * predicted:
                lam = 1e-3 if lam == 0.0 else 2.0 * lam
            else:
                lam = 0.0 if lam < 1e-12 else lam / 3.0
        else:
            lam = 1e-3 if lam == 0.0 else 10.0 * lam
        # a rejected step below xtol means the damping has reached the
        # attainable minimum (typically the noise floor): convergence, not
        # failure. No cap on lam short of overflow: every tenfold raise
        # shrinks the trial step tenfold, so this exit comes in a bounded
        # number of rejections.
        if np.max(np.abs(step_s)) < xtol:
            reason = "xtol"
            break
        if lam > 1e32:
            reason = "damping"
            break

    dof = max(m - k, 1)
    chi2_red = 2.0 * cost / dof
    cov_u = np.linalg.pinv(A_s, hermitian=True)
    cov = cov_u * scale2 * chi2_red
    cov = 0.5 * (cov + cov.T)
    bounds_active = ((p - lo) <= 1e-8 * scale) | ((hi - p) <= 1e-8 * scale)
    return FitResult(
        params=p,
        covariance=cov,
        residual_norm=math.sqrt(2.0 * cost),
        iterations=iterations,
        converged=reason not in ("max_iter", "damping"),
        bounds_active=bounds_active,
        jacobian=J,
        residual=r,
        reason=reason,
        nfev=nfev,
    )


@dataclass
class WlDifferenceFit:
    """Result of the two-parameter weak-localization difference fit."""

    l_phi: Measured
    gamma: Measured
    delta: Measured
    covariance: np.ndarray  # (l_phi, gamma)
    fit: FitResult


def fit_wl_difference(
    B,
    d_sigma,
    l_mfp: float,
    n_2d: float,
    *,
    sigma=None,
    l_phi_max: float = 10e-6,
) -> WlDifferenceFit:
    """Fit the perpendicular-minus-in-plane conductance difference.

    The model is wl_perp(B; l_phi, l) - wl_inplane(B; gamma) with the mean
    free path held fixed at its Hall value, so exactly two parameters are
    free: l_phi and gamma. No prefactor multiplies the digamma lineshape.
    The fitted gamma is converted to the layer thickness delta.

    Parameters
    ----------
    B : array_like
        Fields, T; signs are folded with |B|.
    d_sigma : array_like
        Measured difference curve, S per square.
    l_mfp : float
        Mean free path from the Hall analysis, m.
    n_2d : float
        Sheet density, m^-2 (needed for the gamma -> delta conversion).
    sigma : array_like, optional
        Per-point uncertainties used as weights; unit weights if omitted.
    l_phi_max : float
        Upper bound of the coherence-length search window (default 10 um).
    """
    B = np.abs(np.asarray(B, dtype=float))
    y = np.asarray(d_sigma, dtype=float)
    if B.shape != y.shape or B.ndim != 1:
        raise ValueError("B and d_sigma must be 1-d arrays of equal length")
    if B.size < 5:
        raise ValueError("need at least 5 points for a 2-parameter fit")
    if not (0.0 < l_mfp < math.inf and 0.0 < n_2d < math.inf):
        raise ValueError(f"l_mfp = {l_mfp:g} m and n_2d = {n_2d:g} m^-2 must be finite and > 0")
    if B.size < 10:
        warnings.warn("fewer than 10 field points; fit may be poorly constrained")

    unit = G0 / math.pi
    yn = y / unit
    wn = None if sigma is None else np.asarray(sigma, dtype=float) / unit

    def resid(p):
        lphi, gam = p
        r = wl_perp_shape(B, lphi, l_mfp) - np.log1p(gam * B * B) - yn
        return r if wn is None else r / wn

    nz = B > 0.0

    def jacobian(p):
        lphi, gam = p
        # d/d l_phi of psi(1/2 + B_phi/B) + ln(2 l_phi^2/l^2), B_phi ~ l_phi^-2;
        # the lineshape is identically 0 at B = 0
        x = phase_breaking_field(lphi) / B[nz]
        J = np.zeros((B.size, 2))
        J[nz, 0] = (2.0 - 2.0 * x * trigamma(0.5 + x)) / lphi
        J[:, 1] = -B * B / (1.0 + gam * B * B)
        return J if wn is None else J / wn[:, None]

    # Low-field curvature start for l_phi: for small B the difference curve
    # is quadratic, yn/B^2 ~ 1/(24 B_phi^2) - 1/(24 B_l^2) - gamma.
    b_l = elastic_field(l_mfp)
    pos = np.flatnonzero(nz)
    if pos.size == 0:
        raise ValueError("all field values are zero")
    k_small = pos[np.argsort(B[pos])][: max(3, B.size // 10)]
    curv = float(np.median(yn[k_small] / B[k_small] ** 2))
    c = curv + 1.0 / (24.0 * b_l**2)
    if c > 0.0:
        b_phi0 = math.sqrt(1.0 / (24.0 * c))
        l_phi0 = math.sqrt(HBAR / (4.0 * E_CHARGE * b_phi0))
    else:
        l_phi0 = 5.0 * l_mfp
    l_phi0 = min(max(l_phi0, 1.000001 * l_mfp), 0.999999 * l_phi_max)
    gamma0 = 1e-4

    lo = np.array([l_mfp, 0.0])
    hi = np.array([l_phi_max, 1.0])
    x_scale = np.array([l_phi0, 1e-4])
    result = levmar(
        Residual(resid, jacobian),
        np.array([l_phi0, gamma0]),
        bounds=(lo, hi),
        x_scale=x_scale,
    )
    l_phi_hat, gamma_hat = result.params

    if wn is None:
        # Without per-point errors the noise scale must come from the
        # residuals themselves, and measured curves are usually noisier
        # where the signal is larger; the sandwich estimator stays honest
        # under that heteroscedasticity where the plain chi-square
        # covariance does not.
        cov = _sandwich_covariance(result.jacobian, result.residual, x_scale)
    else:
        cov = result.covariance
    l_phi_se = math.sqrt(max(cov[0, 0], 0.0))
    gamma_se = math.sqrt(max(cov[1, 1], 0.0))

    if gamma_hat > 0.0:
        delta_hat = thickness_from_gamma(gamma_hat, n_2d, l_phi_hat, l_mfp)
        jac_d = np.array([-delta_hat / l_phi_hat, delta_hat / (2.0 * gamma_hat)])
        var_d = float(jac_d @ cov @ jac_d)
        delta_se = math.sqrt(max(var_d, 0.0))
    else:
        delta_hat = 0.0
        # slope of sqrt at 0 is infinite; quote the thickness a 1-sigma
        # gamma would imply instead
        delta_se = (
            thickness_from_gamma(gamma_se, n_2d, l_phi_hat, l_mfp)
            if gamma_se > 0.0
            else 0.0
        )

    return WlDifferenceFit(
        l_phi=Measured(float(l_phi_hat), l_phi_se),
        gamma=Measured(float(gamma_hat), gamma_se),
        delta=Measured(float(delta_hat), delta_se),
        covariance=cov,
        fit=result,
    )


@dataclass
class PowerLawFit:
    """Power-law fit l_phi = amplitude * T^exponent."""

    exponent: Measured
    amplitude: Measured  # meters at 1 K
    cov: np.ndarray  # (exponent, ln amplitude)


def fit_coherence_power_law(T, l_phi) -> PowerLawFit:
    """Fit l_phi(T) = A T^x by linear regression in log-log space.

    Callers are expected to pass only temperatures above the saturation
    floor; nothing here filters them.
    """
    T = np.asarray(T, dtype=float)
    lp = np.asarray(l_phi, dtype=float)
    if T.shape != lp.shape or T.ndim != 1:
        raise ValueError("T and l_phi must be 1-d arrays of equal length")
    if T.size < 3:
        raise ValueError("need at least 3 temperatures")
    if np.any(T <= 0.0):
        raise ValueError("temperatures must be positive")
    if np.any(lp <= 0.0):
        raise ValueError("coherence lengths must be positive")
    res = linear_fit(np.log(T), np.log(lp))
    amp = math.exp(res.intercept)
    return PowerLawFit(
        exponent=Measured(res.slope, math.sqrt(max(res.cov[0, 0], 0.0))),
        amplitude=Measured(amp, amp * math.sqrt(max(res.cov[1, 1], 0.0))),
        cov=res.cov,
    )


@dataclass
class AaSlopeFit:
    """Interaction slope fit on the asymptotic log branch."""

    F: Measured
    intercept_check: float  # implied reference constant, expected 1.3
    cov: np.ndarray  # (slope, intercept) of d_sigma vs ln h
    n_points: int


def fit_aa_slope(h, d_sigma, h_min: float = 3.0) -> AaSlopeFit:
    """Extract the Coulomb parameter F from Delta sigma vs ln h.

    Only points with h >= h_min enter (the log form holds for h >> 1);
    F = -slope * 2 pi / G0. The fitted intercept implies a reference
    constant exp(-intercept/slope), reported as a consistency check
    against the expected 1.3.
    """
    h = np.asarray(h, dtype=float)
    y = np.asarray(d_sigma, dtype=float)
    if h.shape != y.shape or h.ndim != 1:
        raise ValueError("h and d_sigma must be 1-d arrays of equal length")
    keep = h >= h_min
    if int(keep.sum()) < 3:
        raise ValueError(f"need at least 3 points with h >= {h_min:g}")
    res = linear_fit(np.log(h[keep]), y[keep])
    f_val = -res.slope * 2.0 * math.pi / G0
    f_se = 2.0 * math.pi / G0 * math.sqrt(max(res.cov[0, 0], 0.0))
    if res.slope != 0.0:
        ref = math.exp(-res.intercept / res.slope)
    else:
        ref = math.nan
    return AaSlopeFit(
        F=Measured(f_val, f_se),
        intercept_check=ref,
        cov=res.cov,
        n_points=int(keep.sum()),
    )
