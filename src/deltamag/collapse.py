"""Interaction-channel isolation and the B/T scaling collapse.

The measured magnetoconductance is WL plus an isotropic Zeeman interaction
term. Subtracting the fitted WL model per orientation leaves the
interaction residue; plotted against ln h with h = g mu_B B / (k_B T) the
residues of all temperatures should fall on one curve. At low bath
temperature they only do so once the electron temperature is allowed to
float, which is how T_eff is measured: fit the pooled points with one
smooth master curve, a Chebyshev series in ln h, jointly over the
per-temperature ln T_eff, with one anchor temperature pinned to its bath
value to fix the overall scale (h only constrains ratios of temperatures).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fit import Measured, Residual, fit_aa_slope, levmar
from .models import reduced_field, wl_inplane, wl_perp_shape, InPlaneParams
from .constants import G0

# Chebyshev degrees of the master curve: the smooth coarse series pulls
# far-off curves into the right basin, the fine series removes its bias.
_COARSE_DEGREE = 10
_FINE_DEGREE = 24
# matrix entries per LAPACK call in _lstsq: OpenBLAS splits its level-2 BLAS
# calls over worker threads above 8192
_QR_CELLS = 8000


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


def _lstsq(V, Y):
    """Least-squares solution C of V C = Y for a tall V and 2-d Y.

    Row blocks of [V Y] with at most _QR_CELLS entries are replaced by
    their QR factors R until one block is left for ``np.linalg.lstsq``.
    BLAS split lstsq on all of V over worker threads, which made the
    collapse's run time depend on the load on the other cores. Householder
    QR keeps lstsq's accuracy, which the fit needs: on sparse sweeps the
    degree-24 design has a condition number near 1e9.
    """
    A = np.column_stack([V, Y])
    rows = max(_QR_CELLS // A.shape[1], 2 * A.shape[1])  # blocks must shrink
    while A.shape[0] > rows:
        A = np.concatenate([A, np.zeros((-A.shape[0] % rows, A.shape[1]))])
        A = np.linalg.qr(A.reshape(-1, rows, A.shape[1]), mode="r")
        A = A.reshape(-1, A.shape[-1])
    n = V.shape[1]
    return np.linalg.lstsq(A[:, :n], A[:, n:], rcond=None)[0]


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
    for v, w in zip(y, weights):
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
    """Collapse output: effective temperatures, master curve, F.

    The pooled points are the nonzero-field points the fit used, one array
    entry per point.
    """

    t_bath: np.ndarray
    t_eff: np.ndarray
    t_eff_stderr: np.ndarray  # 0 for the gauge-fixed anchor
    anchor: int
    dispersion: float  # at t_eff
    dispersion_at_bath: float
    point_curve: np.ndarray  # index into t_bath and t_eff
    point_B: np.ndarray  # signed field, T
    ln_h_bath: np.ndarray
    ln_h_eff: np.ndarray
    delta_sigma: np.ndarray  # interaction residue, S
    master_curve: np.ndarray  # rows of (ln h, delta_sigma)
    F: Measured
    intercept_check: float
    converged: bool  # both series fits
    iterations: int  # summed over both series fits
    nfev: int  # residual evaluations, summed over both series fits
    reasons: tuple  # levmar's stopping tests of the coarse and the fine fit


def collapse_teff(
    curves: Sequence[AaCurve],
    anchor: Optional[int] = None,
    *,
    g_factor: float = 2.0,
    h_min: float = 3.0,
    n_bins: int = 40,
) -> CollapseResult:
    """Find per-temperature T_eff by fitting all curves to one master curve.

    The anchor curve (highest bath temperature by default) keeps
    T_eff = T_bath; rescaling every T_eff by a common factor only shifts
    all curves rigidly in ln h, so without the anchor the solution would be
    defined up to that factor. ``levmar`` fits the other ln(T_eff/T_bath)
    in [ln 0.75, ln 30] jointly, putting the pooled residues (in G0/pi) on
    a Chebyshev series in ln h solved linearly at each evaluation (variable
    projection): at degree _COARSE_DEGREE from T_bath, then _FINE_DEGREE,
    whose covariance gives the T_eff standard errors.

    Returns a CollapseResult holding the pooled points and the dispersion
    at the bath and at the fitted temperatures; F comes from the slope of
    the binned master curve on h >= h_min (NaN if too few bins reach that
    regime).
    """
    if len(curves) < 3:
        raise ValueError("need at least 3 temperatures to collapse")
    t_bath = np.array([c.T_bath for c in curves], dtype=float)
    if anchor is None:
        anchor = int(np.argmax(t_bath))
    if not 0 <= anchor < len(curves):
        raise ValueError("anchor index out of range")

    # raises early if the curves share no h support
    at_bath = dispersion(curves, t_bath, g_factor=g_factor, n_bins=n_bins)

    x_bath, y, ids, B = _pooled_points(curves, t_bath, g_factor)  # x = ln h at T_bath
    yn = y / (G0 / math.pi)  # G0/pi units; the fit sees them only through rounding
    n_free = len(curves) - 1
    unknowns = _FINE_DEGREE + 1 + n_free  # series coefficients and temperatures
    if yn.size <= unknowns:
        raise ValueError(f"{yn.size} nonzero-field points cannot fix {unknowns} unknowns")

    cheb = np.polynomial.chebyshev  # imported on first use, not with deltamag
    free = np.delete(np.arange(len(curves)), anchor)

    def series(ln_ratio, degree):
        x = x_bath - np.insert(ln_ratio, anchor, 0.0)[ids]
        t = (2.0 * x - x.max() - x.min()) / np.ptp(x)
        V = cheb.chebvander(t, degree)
        return x, t, V, _lstsq(V, yn[:, None])[:, 0]

    def misfit(degree):
        def evaluate(ln_ratio):
            _, _, V, coef = series(ln_ratio, degree)
            # einsum, not @: BLAS would thread products over the tall V too
            return np.einsum("ij,j->i", V, coef) - yn

        def jacobian(ln_ratio):
            # Kaufman's variable-projection Jacobian: each curve slides along
            # the series' slope, less what refitting the coefficients absorbs.
            # J'r is the exact gradient.
            x, t, V, coef = series(ln_ratio, degree)
            slope = cheb.chebval(t, cheb.chebder(coef)) * 2.0 / np.ptp(x)
            D = -slope[:, None] * (ids[:, None] == free)
            shift = np.ascontiguousarray(_lstsq(V, D).T)  # rows keep einsum fast
            return D - np.einsum("ij,kj->ik", V, shift)

        return Residual(evaluate, jacobian)

    bounds = (np.full(n_free, math.log(0.75)), np.full(n_free, math.log(30.0)))
    scale = np.ones(n_free)
    coarse = levmar(misfit(_COARSE_DEGREE), np.zeros(n_free), bounds, x_scale=scale)
    fine = levmar(misfit(_FINE_DEGREE), coarse.params, bounds, x_scale=scale)

    t_eff = t_bath * np.exp(np.insert(fine.params, anchor, 0.0))
    var = np.insert(np.diag(fine.covariance), anchor, 0.0)
    best = dispersion(curves, t_eff, g_factor=g_factor, n_bins=n_bins)

    x = _pooled_points(curves, t_eff, g_factor)[0]
    bin_idx = _bin_index(x, n_bins)
    counts = np.bincount(bin_idx, minlength=n_bins)
    # bin means in both coordinates; using the mean x rather than the bin
    # center keeps the slope of linear data exact
    x_sums = np.bincount(bin_idx, weights=x, minlength=n_bins)
    y_sums = np.bincount(bin_idx, weights=y, minlength=n_bins)
    filled = counts > 0
    master = np.column_stack(
        [x_sums[filled] / counts[filled], y_sums[filled] / counts[filled]]
    )

    try:
        slope_fit = fit_aa_slope(np.exp(master[:, 0]), master[:, 1], h_min)
        F = slope_fit.F
        ref = slope_fit.intercept_check
    except ValueError:
        warnings.warn("too few master-curve bins above h_min; F not extracted")
        F = Measured(math.nan, math.nan)
        ref = math.nan

    return CollapseResult(
        t_bath=t_bath,
        t_eff=t_eff,
        t_eff_stderr=t_eff * np.sqrt(np.maximum(var, 0.0)),
        anchor=anchor,
        dispersion=best,
        dispersion_at_bath=at_bath,
        point_curve=ids,
        point_B=B,
        ln_h_bath=x_bath,
        ln_h_eff=x,
        delta_sigma=y,
        master_curve=master,
        F=F,
        intercept_check=ref,
        converged=coarse.converged and fine.converged,
        iterations=coarse.iterations + fine.iterations,
        nfev=coarse.nfev + fine.nfev,
        reasons=(coarse.reason, fine.reason),
    )
