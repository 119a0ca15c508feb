"""Interaction-channel isolation and the B/T scaling collapse.

The measured magnetoconductance is WL plus an isotropic Zeeman interaction
term. Subtracting the fitted WL model per orientation leaves the
interaction residue; plotted against ln h with h = g mu_B B / (k_B T) the
residues of all temperatures should fall on one curve. At low bath
temperature they only do so once the electron temperature is allowed to
float, which is how T_eff is measured: one least-squares fit puts the
pooled points on the Zeeman law -(G0/2pi) F g2(h), jointly over F and
every ln T_eff. The crossover of g2 from h^2 to ln h near h ~ 1-5 fixes the
absolute h scale, so no temperature is pinned. ``dispersion`` scores, free
of any model, how well the curves fall on one monotone curve at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fit import Measured, Residual, levmar
from .models import g2, g2_with_log_slope, reduced_field, wl_inplane, wl_perp_shape, InPlaneParams
from .constants import G0


@dataclass
class OrientedCurve:
    """Measured conductivity correction vs field at one (T_bath, theta)."""

    T_bath: float
    theta_deg: float
    B: np.ndarray
    delta_sigma: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        self.delta_sigma = np.asarray(self.delta_sigma, dtype=float)
        if self.B.shape != self.delta_sigma.shape or self.B.ndim != 1:
            raise ValueError("B and delta_sigma must be 1-d arrays of equal length")
        if self.theta_deg not in (0.0, 90.0):
            raise ValueError("theta_deg must be 0 or 90")
        if not self.T_bath > 0.0:
            raise ValueError("T_bath must be positive")


@dataclass
class AaCurve:
    """Interaction residue vs field at one bath temperature."""

    T_bath: float
    B: np.ndarray
    delta_sigma: np.ndarray

    def __post_init__(self):
        self.B = np.asarray(self.B, dtype=float)
        self.delta_sigma = np.asarray(self.delta_sigma, dtype=float)
        if self.B.shape != self.delta_sigma.shape or self.B.ndim != 1:
            raise ValueError("B and delta_sigma must be 1-d arrays of equal length")
        if not self.T_bath > 0.0:
            raise ValueError("T_bath must be positive")
        order = np.argsort(self.B, kind="stable")
        self.B = self.B[order]
        self.delta_sigma = self.delta_sigma[order]


@dataclass
class WlFitTable:
    """Fitted WL parameters per temperature, interpolable in T.

    l_phi is interpolated linearly in log-log (power-law behavior between
    nodes); gamma likewise, since gamma scales as l_phi^2 at fixed layer
    geometry. Temperatures outside the node range raise unless
    ``extrapolate`` is set, in which case the edge slope is extended.
    """

    T: np.ndarray
    l_phi: np.ndarray
    gamma: np.ndarray
    l_mfp: float

    def __post_init__(self):
        self.T = np.asarray(self.T, dtype=float)
        self.l_phi = np.asarray(self.l_phi, dtype=float)
        self.gamma = np.asarray(self.gamma, dtype=float)
        if not (self.T.shape == self.l_phi.shape == self.gamma.shape) or self.T.ndim != 1:
            raise ValueError("T, l_phi, gamma must be 1-d arrays of equal length")
        if self.T.size == 0:
            raise ValueError("empty fit table")
        if np.any(self.T <= 0.0) or np.any(self.l_phi <= 0.0) or np.any(self.gamma < 0.0):
            raise ValueError("T and l_phi must be positive, gamma nonnegative")
        order = np.argsort(self.T)
        self.T = self.T[order]
        self.l_phi = self.l_phi[order]
        self.gamma = self.gamma[order]

    def params_at(self, T: float, extrapolate: bool = False):
        """Interpolated (l_phi, gamma) at temperature T."""
        if not T > 0.0:
            raise ValueError("T must be positive")
        x = math.log(T)
        xs = np.log(self.T)
        if (x < xs[0] - 1e-12 or x > xs[-1] + 1e-12) and not extrapolate:
            raise ValueError(
                f"T = {T:g} K outside the fitted range "
                f"[{self.T[0]:g}, {self.T[-1]:g}] K; pass extrapolate=True to extend"
            )
        l_phi = math.exp(_interp_line(x, xs, np.log(self.l_phi)))
        if np.all(self.gamma > 0.0):
            gamma = math.exp(_interp_line(x, xs, np.log(self.gamma)))
        else:
            gamma = max(_interp_line(x, xs, self.gamma), 0.0)
        return l_phi, gamma


def _interp_line(x, xs, ys):
    """np.interp with linear extension beyond the end nodes."""
    if xs.size == 1:
        return float(ys[0])
    if x < xs[0]:
        s = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return float(ys[0] + s * (x - xs[0]))
    if x > xs[-1]:
        s = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return float(ys[-1] + s * (x - xs[-1]))
    return float(np.interp(x, xs, ys))


def isolate_aa(
    curves: Sequence[OrientedCurve],
    table: WlFitTable,
    *,
    extrapolate: bool = False,
    merge: bool = True,
):
    """Subtract the fitted WL model from measured curves, leaving the residue.

    Perpendicular curves lose the digamma WL term, in-plane curves the
    log-quadratic orbital term; what remains is the isotropic interaction
    correction in both cases, so both orientations at one bath temperature
    merge into a single AaCurve (set ``merge=False`` to keep one AaCurve
    per input curve, e.g. for isotropy checks).

    Returns AaCurve list sorted by T_bath.
    """
    residues = []
    for c in curves:
        l_phi, gamma = table.params_at(c.T_bath, extrapolate)
        if c.theta_deg == 0.0:
            model = (G0 / math.pi) * wl_perp_shape(np.abs(c.B), l_phi, table.l_mfp)
        else:
            model = wl_inplane(c.B, InPlaneParams(gamma))
        residues.append((c.T_bath, c.B, c.delta_sigma - model))

    if not merge:
        return [AaCurve(T, B, r) for T, B, r in residues]

    groups = {}
    for T, B, r in residues:
        key = round(T, 9)
        if key in groups:
            B0, r0 = groups[key]
            groups[key] = (np.concatenate([B0, B]), np.concatenate([r0, r]))
        else:
            groups[key] = (B, r)
    out = [AaCurve(T, B, r) for T, (B, r) in groups.items()]
    out.sort(key=lambda c: c.T_bath)
    return out


def _pooled_points(curves, t_eff, g_factor):
    """ln h, residue, curve index and signed B of every nonzero-field point."""
    xs, ys, ids, Bs = [], [], [], []
    for i, c in enumerate(curves):
        absB = np.abs(c.B)
        keep = absB > 0.0
        if not keep.any():
            continue
        h = reduced_field(absB[keep], t_eff[i], g_factor)
        xs.append(np.log(h))
        ys.append(c.delta_sigma[keep])
        ids.append(np.full(int(keep.sum()), i))
        Bs.append(c.B[keep])
    if len(xs) < 2:
        raise ValueError("need at least 2 curves with nonzero-field points")
    return tuple(np.concatenate(a) for a in (xs, ys, ids, Bs))


def _bin_index(x, n_bins):
    """Index of the equal-width bin over [min x, max x] holding each x."""
    edges = np.linspace(x.min(), x.max(), n_bins + 1)
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)


def _pava_sse(means, weights, increasing):
    """Weighted isotonic regression by pool-adjacent-violators; returns SSE."""
    y = means if increasing else -means
    sums = []   # sum of w*y per block
    wts = []    # sum of w per block
    lens = []   # tied-point count per block
    for v, w in zip(y.tolist(), weights.tolist()):  # float arithmetic beats numpy scalars
        s, ww, ln = v * w, w, 1
        while sums and sums[-1] * ww >= s * wts[-1]:
            s += sums.pop()
            ww += wts.pop()
            ln += lens.pop()
        sums.append(s)
        wts.append(ww)
        lens.append(ln)
    fitted = np.repeat(
        np.array(sums) / np.array(wts), np.array(lens, dtype=int)
    )
    return float(np.sum(weights * (y - fitted) ** 2))


def dispersion(
    curves: Sequence[AaCurve],
    t_eff=None,
    *,
    g_factor: float = 2.0,
    n_bins: int = 40,
    min_shared_bins: int = 3,
) -> float:
    """Mean squared deviation of pooled points from one monotone master curve.

    Points from all curves are placed at x = ln h using each curve's
    candidate T_eff (its T_bath by default), pooled, and fit by exact
    isotonic regression; ties in x are forced to share a fitted value, so
    the result is zero exactly when all points lie on a single monotone
    curve. Both monotone directions are tried and the smaller deviation
    kept. Deterministic and invariant under curve reordering.
    """
    if t_eff is None:
        t_eff = [c.T_bath for c in curves]
    t_eff = np.asarray(t_eff, dtype=float)
    if t_eff.shape != (len(curves),):
        raise ValueError("t_eff must provide one temperature per curve")
    x, y, ids, _ = _pooled_points(curves, t_eff, g_factor)

    span = float(x.max() - x.min())
    if span <= 0.0:
        raise ValueError("all points share one h value; no curve to collapse onto")
    pairs = np.unique(_bin_index(x, n_bins) * len(curves) + ids)  # (bin, curve) codes
    shared = int(np.sum(np.bincount(pairs // len(curves), minlength=n_bins) >= 2))
    if shared < min_shared_bins:
        raise ValueError(
            f"curves overlap in only {shared} of {n_bins} bins "
            f"(need {min_shared_bins}); no collapse constraint exists"
        )

    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    ux, inv = np.unique(xs, return_inverse=True)
    counts = np.bincount(inv).astype(float)
    tie_means = np.bincount(inv, weights=ys) / counts
    within = float(np.sum((ys - tie_means[inv]) ** 2))
    between = min(
        _pava_sse(tie_means, counts, increasing=True),
        _pava_sse(tie_means, counts, increasing=False),
    )
    return (within + between) / x.size


@dataclass
class CollapseResult:
    """Collapse output: effective temperatures, F, and the points fitted.

    The pooled points are the nonzero-field points the fit used, one array
    entry per point.
    """

    t_bath: np.ndarray
    t_eff: np.ndarray
    t_eff_stderr: np.ndarray
    at_bound: np.ndarray  # T_eff on its 0.75x or 30x bound: the data do not fix it
    h_max: np.ndarray  # largest reduced field of each curve at its T_eff
    dispersion: float  # at t_eff
    dispersion_at_bath: float
    point_curve: np.ndarray  # index into t_bath and t_eff
    point_B: np.ndarray  # signed field, T
    ln_h_bath: np.ndarray
    ln_h_eff: np.ndarray
    delta_sigma: np.ndarray  # interaction residue, S
    master_curve: np.ndarray  # binned pooled points, rows of (ln h, delta_sigma)
    F: Measured
    converged: bool
    iterations: int
    nfev: int  # residual evaluations
    reason: str  # levmar's stopping test


def collapse_teff(
    curves: Sequence[AaCurve], *, g_factor: float = 2.0, n_bins: int = 40
) -> CollapseResult:
    """Fit F and every T_eff to the pooled residues by the Zeeman law.

    ``levmar`` puts the residues (in G0/pi) on -(F/2) g2(h), with
    h = g mu_B |B| / (k_B T_eff), over every theta = ln(T_eff/T_bath) in
    [ln 0.75, ln 30] and A = F exp(-2 mean theta). Below the crossover the
    data fix only F/T_eff^2; A, unlike F, stays put along that valley. The
    covariance gives the T_eff standard errors and, by the delta method,
    F's. g2 and its slope are computed once per ``levmar`` point, on the
    distinct (curve, |B|) points only. The result also holds the pooled
    points, the dispersion at the bath and at the fitted temperatures, and
    the residues binned in ln h.
    """
    if len(curves) < 3:
        raise ValueError("need at least 3 temperatures to collapse")
    t_bath = np.array([c.T_bath for c in curves], dtype=float)
    n = len(curves)
    x_bath, y, ids, B = _pooled_points(curves, t_bath, g_factor)  # x = ln h at T_bath
    if y.size <= n + 1:
        raise ValueError(f"{y.size} nonzero-field points cannot fix {n + 1} unknowns")
    # raises early if the curves share no h support
    at_bath = dispersion(curves, t_bath, g_factor=g_factor, n_bins=n_bins)

    yn = y / (G0 / math.pi)  # G0/pi units; the fit sees them only through rounding
    in_curve = ids[:, None] == np.arange(n)
    # g2 runs on the distinct (curve, ln h) points: both orientations and field
    # signs share each |B|; equal h of two curves part once their theta differ
    keys, inverse = np.unique(ids + 1j * x_bath, return_inverse=True)  # axis=0 sorts 10x slower
    u_ids, u_x = keys.real.astype(int), keys.imag
    kept = [None, None, None]  # p, g2 and h dg2/dh of the last evaluation

    def keep_g2(p):
        g, slope = g2_with_log_slope(np.exp(u_x - p[:n][u_ids]))
        kept[:] = p.copy(), g[inverse], slope[inverse]

    def evaluate(p):
        keep_g2(p)
        return -0.5 * p[n] * math.exp(2.0 * p[:n].mean()) * kept[1] - yn

    def jacobian(p):
        if not np.array_equal(p, kept[0]):  # levmar always asks at its last evaluation
            keep_g2(p)
        _, g, slope = kept
        w = math.exp(2.0 * p[:n].mean())
        d_theta = 0.5 * p[n] * w * (in_curve * slope[:, None] - (2.0 / n) * g[:, None])
        return np.column_stack([d_theta, -0.5 * w * g])

    g_bath = g2(np.exp(u_x))[inverse]
    a0 = -2.0 * float(g_bath @ yn) / float(g_bath @ g_bath)
    lo, hi = np.full(n, math.log(0.75)), np.full(n, math.log(30.0))
    bounds = (np.append(lo, -np.inf), np.append(hi, np.inf))
    scale = np.append(np.ones(n), abs(a0) if a0 != 0.0 else 1.0)
    fit = levmar(Residual(evaluate, jacobian), np.append(np.zeros(n), a0), bounds, x_scale=scale)

    theta, w = fit.params[:n], math.exp(2.0 * fit.params[:n].mean())
    F = fit.params[n] * w
    grad = np.append(np.full(n, 2.0 * F / n), w)  # dF / d(theta, A)
    t_eff = t_bath * np.exp(theta)
    best = dispersion(curves, t_eff, g_factor=g_factor, n_bins=n_bins)

    x = _pooled_points(curves, t_eff, g_factor)[0]
    h_max = np.zeros(n)
    np.maximum.at(h_max, ids, np.exp(x))
    bins = _bin_index(x, n_bins)
    filled, counts = np.unique(bins, return_counts=True)
    # bin means in both coordinates, not bin centers
    master = np.column_stack([np.bincount(bins, weights=v)[filled] / counts for v in (x, y)])

    return CollapseResult(
        t_bath=t_bath,
        t_eff=t_eff,
        t_eff_stderr=t_eff * np.sqrt(np.maximum(np.diag(fit.covariance)[:n], 0.0)),
        at_bound=fit.bounds_active[:n],
        h_max=h_max,
        dispersion=best,
        dispersion_at_bath=at_bath,
        point_curve=ids,
        point_B=B,
        ln_h_bath=x_bath,
        ln_h_eff=x,
        delta_sigma=y,
        master_curve=master,
        F=Measured(float(F), math.sqrt(max(float(grad @ fit.covariance @ grad), 0.0))),
        converged=fit.converged,
        iterations=fit.iterations,
        nfev=fit.nfev,
        reason=fit.reason,
    )
