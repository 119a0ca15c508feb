"""Interaction-channel isolation and the B/T scaling collapse.

The measured magnetoconductance is WL plus an isotropic Zeeman interaction
term. Subtracting, per orientation, the WL model fitted at the same
temperature leaves the interaction residue; plotted against ln h with
h = g mu_B B / (k_B T) the residues of all temperatures should fall on one
curve. At low bath temperature they only do so once the electron
temperature is allowed to float, which is how T_eff is measured: one
least-squares fit puts the pooled points on the Zeeman law
-(G0/2pi) F g2(h), jointly over F and every ln T_eff. The crossover of g2
from h^2 to ln h near h ~ 1-5 fixes the absolute h scale, so no
temperature is pinned. ``dispersion`` scores, free of any model, how well
the curves fall on one monotone curve at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .fit import FitResult, Measured, Residual, levmar
from .models import g2_with_log_slope, orbital_delta_sigma, reduced_field
from .constants import G0

N_BINS = 40  # equal-width ln h bins of the overlap guard and the master curve
MIN_SHARED_BINS = 3  # bins holding points of 2 or more curves that dispersion needs


def _curve_arrays(B, delta_sigma):
    """B and delta_sigma as finite 1-d float arrays of equal length."""
    B, delta_sigma = np.asarray(B, dtype=float), np.asarray(delta_sigma, dtype=float)
    if B.shape != delta_sigma.shape or B.ndim != 1:
        raise ValueError("B and delta_sigma must be 1-d arrays of equal length")
    if not (np.isfinite(B).all() and np.isfinite(delta_sigma).all()):
        raise ValueError("B and delta_sigma must be finite")
    return B, delta_sigma


@dataclass
class AaCurve:
    """Interaction residue vs field at one bath temperature."""

    T_bath: float
    B: np.ndarray
    delta_sigma: np.ndarray

    def __post_init__(self):
        self.B, self.delta_sigma = _curve_arrays(self.B, self.delta_sigma)
        if not self.T_bath > 0.0:
            raise ValueError("T_bath must be positive")
        order = np.argsort(self.B, kind="stable")
        self.B = self.B[order]
        self.delta_sigma = self.delta_sigma[order]


def isolate_aa(
    T_bath: float, sweeps: Sequence[Tuple[float, np.ndarray, np.ndarray]],
    l_phi: float, gamma: float, l_mfp: float,
) -> AaCurve:
    """The interaction residue of one temperature's sweeps.

    ``sweeps`` holds one (theta_deg, B, delta_sigma) per sweep, and
    (l_phi, gamma) is the WL fit of that temperature. Each perpendicular
    sweep loses the digamma WL term, each in-plane sweep the log-quadratic
    orbital term; what remains is the isotropic interaction correction in
    both cases, so the sweeps, in the given order, merge into one AaCurve.
    Each sweep's B and delta_sigma are checked before the model sees them.
    """
    Bs, residues = [], []
    for theta_deg, B, delta_sigma in sweeps:
        B, delta_sigma = _curve_arrays(B, delta_sigma)
        Bs.append(B)
        residues.append(delta_sigma - orbital_delta_sigma(np.abs(B), theta_deg, l_phi, l_mfp, gamma))
    return AaCurve(T_bath, np.concatenate(Bs), np.concatenate(residues))


def _pooled_points(curves, t_eff, g_factor):
    """ln h, residue, curve index and signed B of every nonzero-field point."""
    B = np.concatenate([c.B for c in curves] or [np.empty(0)])
    absB = np.abs(B)
    keep = absB > 0.0
    ids = np.repeat(np.arange(len(curves)), [c.B.size for c in curves])[keep]
    h = reduced_field(absB[keep], t_eff[ids], g_factor)
    if ids.size == 0 or ids[0] == ids[-1]:  # ids ascend
        raise ValueError("need at least 2 curves with nonzero-field points")
    return np.log(h), np.concatenate([c.delta_sigma for c in curves])[keep], ids, B[keep]


def _bin_index(x):
    """Index of the equal-width bin of N_BINS over [min x, max x] holding each x."""
    edges = np.linspace(x.min(), x.max(), N_BINS + 1)
    return np.clip(np.searchsorted(edges, x, side="right") - 1, 0, N_BINS - 1)


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


def dispersion(curves: Sequence[AaCurve], t_eff=None, *, g_factor: float = 2.0) -> float:
    """Mean squared deviation of pooled points from one monotone master curve.

    Points from all curves are placed at x = ln h using each curve's
    candidate T_eff (its T_bath by default), pooled, and fit by exact
    isotonic regression; ties in x are forced to share a fitted value, so
    the result is zero exactly when all points lie on a single monotone
    curve. Both monotone directions are tried and the smaller deviation
    kept. Deterministic and invariant under curve reordering. Raises when
    fewer than MIN_SHARED_BINS of N_BINS equal-width ln h bins hold points
    of two or more curves, since then no collapse constraint exists.
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
    pairs = np.unique(_bin_index(x) * len(curves) + ids)  # (bin, curve) codes
    shared = int(np.sum(np.bincount(pairs // len(curves), minlength=N_BINS) >= 2))
    if shared < MIN_SHARED_BINS:
        raise ValueError(
            f"curves overlap in only {shared} of {N_BINS} bins "
            f"(need {MIN_SHARED_BINS}); no collapse constraint exists"
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
    fit: FitResult


def collapse_teff(curves: Sequence[AaCurve], *, g_factor: float = 2.0) -> CollapseResult:
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
    at_bath = dispersion(curves, t_bath, g_factor=g_factor)

    yn = y / (G0 / math.pi)  # G0/pi units; the fit sees them only through rounding
    # g2 runs on the distinct (curve, ln h) points: both orientations and field
    # signs share each |B|; equal h of two curves part once their theta differ
    keys, inverse = np.unique(ids + 1j * x_bath, return_inverse=True)  # axis=0 sorts 10x slower
    u_ids, u_x = keys.real.astype(int), keys.imag
    kept = [None, None, None]  # theta, g2 and h dg2/dh of the last evaluation
    rows = np.arange(y.size)

    def g2_at(theta):
        # levmar asks for the Jacobian at its last evaluation, and starts at the bath
        if not np.array_equal(theta, kept[0]):
            g, slope = g2_with_log_slope(np.exp(u_x - theta[u_ids]))
            kept[:] = theta.copy(), g[inverse], slope[inverse]
        return kept[1], kept[2]

    def evaluate(p):
        return -0.5 * p[n] * math.exp(2.0 * p[:n].mean()) * g2_at(p[:n])[0] - yn

    def jacobian(p):
        g, slope = g2_at(p[:n])
        w = math.exp(2.0 * p[:n].mean())
        a, d = 0.5 * p[n] * w, -(2.0 / n) * g
        J = np.empty((y.size, n + 1))
        J[:, :n] = (a * d)[:, None]
        J[rows, ids] = a * (slope + d)
        J[:, n] = -0.5 * w * g
        return J

    g_bath = g2_at(np.zeros(n))[0]
    a0 = -2.0 * float(g_bath @ yn) / float(g_bath @ g_bath)
    lo, hi = np.full(n, math.log(0.75)), np.full(n, math.log(30.0))
    bounds = (np.append(lo, -np.inf), np.append(hi, np.inf))
    scale = np.append(np.ones(n), abs(a0) if a0 != 0.0 else 1.0)
    fit = levmar(Residual(evaluate, jacobian), np.append(np.zeros(n), a0), bounds, x_scale=scale)

    theta, w = fit.params[:n], math.exp(2.0 * fit.params[:n].mean())
    F = fit.params[n] * w
    grad = np.append(np.full(n, 2.0 * F / n), w)  # dF / d(theta, A)
    t_eff = t_bath * np.exp(theta)
    best = dispersion(curves, t_eff, g_factor=g_factor)

    x = _pooled_points(curves, t_eff, g_factor)[0]
    h_max = np.zeros(n)
    np.maximum.at(h_max, ids, np.exp(x))
    bins = _bin_index(x)
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
        fit=fit,
    )
