import math

import numpy as np
import pytest

from deltamag import (
    AaCurve,
    AaParams,
    InPlaneParams,
    WlParams,
    collapse_teff,
    dispersion,
    gamma_param,
    isolate_aa,
    reduced_field,
    total_delta_sigma,
    wl_inplane,
    wl_perp,
    zeeman_aa,
)
from deltamag.collapse import _pooled_points

# row-7 layer values
N_2D = 2.14e17
L_MFP = 2.97e-9
DELTA = 0.42e-9
AMP = 35.5e-9


def l_phi_at(T):
    return AMP * T**-0.31


def true_fit(T):
    """The exact (l_phi, gamma) at T, as isolate_aa takes them."""
    return l_phi_at(T), gamma_param(DELTA, N_2D, l_phi_at(T), L_MFP)


def forward_sweeps(T, B, F=0.5):
    """The (theta_deg, B, delta_sigma) of both orientations at temperature T."""
    wl = WlParams(l_phi_at(T), L_MFP)
    ip = InPlaneParams(true_fit(T)[1])
    aa = AaParams(F=F)
    return [(th, B, total_delta_sigma(np.abs(B), th, T, wl, ip, aa)) for th in (0.0, 90.0)]


# ----------------------------------------------------------------- isolate_aa

def test_residue_is_exactly_the_isotropic_part():
    temps = [0.1, 0.3, 0.6]
    B = np.linspace(-2.0, 2.0, 41)
    for T in temps:
        c = isolate_aa(T, forward_sweeps(T, B), *true_fit(T), L_MFP)
        assert c.T_bath == T
        assert c.B.size == 2 * B.size  # both orientations merged
        expect = zeeman_aa(c.B, c.T_bath, AaParams(F=0.5))
        np.testing.assert_allclose(c.delta_sigma, expect, rtol=0, atol=1e-18)


def test_residue_unmerged_keeps_orientations():
    temps = [0.2, 0.4, 0.8]
    B = np.linspace(-1.0, 1.0, 11)
    for T in temps:
        for sweep in forward_sweeps(T, B):
            ac = isolate_aa(T, [sweep], *true_fit(T), L_MFP)
            np.testing.assert_array_equal(ac.B, sweep[1])
            expect = zeeman_aa(ac.B, T, AaParams(F=0.5))
            np.testing.assert_allclose(ac.delta_sigma, expect, rtol=0, atol=1e-18)


def test_thin_layer_inplane_residue_is_the_data():
    # gamma = 0 means the in-plane orbital model is identically zero
    B = np.linspace(0.0, 2.0, 21)
    y = zeeman_aa(B, 0.5, AaParams(F=0.4))
    res = isolate_aa(0.5, [(90.0, B, y)], 3e-8, 0.0, 3e-9)
    np.testing.assert_array_equal(res.delta_sigma, y)


def test_curves_reject_nonfinite_points():
    # dispersion once dropped a NaN-field point unseen, and a NaN residue
    # reached levmar as a non-finite iteration
    B = np.linspace(-2.0, 2.0, 9)
    for bad in (math.nan, math.inf, -math.inf):
        for k in (0, 1):
            arrays = [B.copy(), np.ones(9)]
            arrays[k][3] = bad
            for make in (
                lambda B, y: isolate_aa(0.3, [(0.0, B, y)], *true_fit(0.3), L_MFP),
                lambda B, y: AaCurve(0.3, B, y),
            ):
                with pytest.raises(ValueError, match="B and delta_sigma must be finite"):
                    make(*arrays)


def test_aa_curve_sorts_by_field():
    c = AaCurve(0.3, np.array([1.0, -1.0, 0.5]), np.array([10.0, 20.0, 30.0]))
    np.testing.assert_array_equal(c.B, [-1.0, 0.5, 1.0])
    np.testing.assert_array_equal(c.delta_sigma, [20.0, 30.0, 10.0])


# ----------------------------------------------------------------- dispersion

def aa_curves(temps, B, F=0.5, t_sat=0.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for T in temps:
        y = zeeman_aa(B, math.hypot(T, t_sat), AaParams(F=F))
        if noise:
            y = y + noise * np.abs(y).max() * rng.standard_normal(B.size)
        out.append(AaCurve(T, B, y))
    return out


def test_dispersion_zero_when_collapsed():
    B = np.linspace(0.05, 2.0, 50)
    curves = aa_curves([0.2, 0.4, 0.8], B)
    assert dispersion(curves) < 1e-36  # same T for data and axis: exact collapse


def test_dispersion_positive_when_mismatched():
    B = np.linspace(0.05, 2.0, 50)
    curves = aa_curves([0.2, 0.4, 0.8], B, t_sat=0.3)
    # bath temperatures misplace the saturated cold curves
    assert dispersion(curves) > 1e-14


def test_dispersion_reorder_invariant():
    B = np.linspace(0.05, 2.0, 30)
    curves = aa_curves([0.2, 0.4, 0.8], B, noise=0.05)
    a = dispersion(curves)
    b = dispersion(curves[::-1])
    assert a == b


def test_dispersion_gauge_freedom():
    # scaling every T_eff by a common factor rigidly shifts ln h and cannot
    # change the collapse quality
    B = np.linspace(0.05, 2.0, 30)
    curves = aa_curves([0.2, 0.4, 0.8], B, noise=0.05)
    t = np.array([0.25, 0.38, 0.81])
    a = dispersion(curves, t)
    b = dispersion(curves, 3.7 * t)
    assert a == pytest.approx(b, rel=1e-9)


def test_dispersion_needs_shared_support():
    B = np.linspace(0.05, 2.0, 30)
    c1 = aa_curves([0.1], B)[0]
    c2 = aa_curves([500.0], B)[0]  # reduced fields 5000x apart; no overlap
    with pytest.raises(ValueError, match="no collapse constraint"):
        dispersion([c1, c2])


def loop_shared_bins(curves):
    """Bins of 40 over the pooled ln h range holding points of 2 or more curves."""
    x = [np.log(reduced_field(c.B, c.T_bath)) for c in curves]
    edges = np.linspace(min(v.min() for v in x), max(v.max() for v in x), 41)
    members = [set() for _ in range(40)]
    for i, xi in enumerate(x):
        for b in np.clip(np.searchsorted(edges, xi, side="right") - 1, 0, 39):
            members[b].add(i)
    return sum(len(m) >= 2 for m in members)


def test_dispersion_counts_shared_bins_like_a_loop():
    B = np.linspace(0.05, 2.0, 30)
    # 15x apart in T, the two curves share only the edge of their ln h ranges
    sparse = aa_curves([0.1, 1.5], B)
    shared = loop_shared_bins(sparse)
    assert 0 < shared < 3
    with pytest.raises(ValueError, match=f"overlap in only {shared} of 40 bins"):
        dispersion(sparse)
    # 10x apart they share exactly the 3 bins needed; 3x apart, many more
    for temps, want in (([0.1, 1.0], 3), ([0.1, 0.3, 0.9], 16)):
        curves = aa_curves(temps, B)
        assert loop_shared_bins(curves) == want
        assert dispersion(curves) >= 0.0


def per_curve_pooled_points(curves, t_eff, g_factor):
    """The per-curve pooling through reduced_field that _pooled_points replaced."""
    xs, ys, ids, Bs = [], [], [], []
    for i, c in enumerate(curves):
        absB = np.abs(c.B)
        keep = absB > 0.0
        if not keep.any():
            continue
        xs.append(np.log(reduced_field(absB[keep], t_eff[i], g_factor)))
        ys.append(c.delta_sigma[keep])
        ids.append(np.full(int(keep.sum()), i))
        Bs.append(c.B[keep])
    if len(xs) < 2:
        raise ValueError("need at least 2 curves with nonzero-field points")
    return tuple(np.concatenate(a) for a in (xs, ys, ids, Bs))


def test_pooled_points_is_bitwise_the_per_curve_path():
    rng = np.random.default_rng(11)
    curves = [
        AaCurve(0.1, np.linspace(-2.0, 2.0, 41), rng.standard_normal(41)),
        AaCurve(0.4, np.zeros(3), rng.standard_normal(3)),  # no nonzero field
        AaCurve(0.7, np.r_[0.0, rng.uniform(-3.0, 3.0, 17), 0.0], rng.standard_normal(19)),
        AaCurve(1.2, np.geomspace(1e-3, 9.0, 23), rng.standard_normal(23)),
    ]
    t_eff = np.array([0.13, 0.4, 0.71, 1.19])
    for g_factor in (2.0, 0.44):
        got = _pooled_points(curves, t_eff, g_factor)
        for a, b in zip(got, per_curve_pooled_points(curves, t_eff, g_factor)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # a bad temperature fails as reduced_field fails, unless its curve has no nonzero field
    for bad, tail in ((0.0, ""), (-0.2, ""), (math.nan, ", got NaN")):
        for i in (0, 2, 3):
            t = t_eff.copy()
            t[i] = bad
            for pool in (_pooled_points, per_curve_pooled_points):
                with pytest.raises(ValueError, match=f"^reduced_field requires T > 0{tail}$"):
                    pool(curves, t, 2.0)
        t = t_eff.copy()
        t[1] = bad
        want = _pooled_points(curves, t_eff, 2.0)[0]
        assert _pooled_points(curves, t, 2.0)[0].tobytes() == want.tobytes()
    for few in ([curves[0]], curves[:2], []):
        for pool in (_pooled_points, per_curve_pooled_points):
            with pytest.raises(ValueError, match="^need at least 2 curves with nonzero-field points$"):
                pool(few, t_eff[: len(few)], 2.0)


def test_dispersion_t_eff_length_guard():
    B = np.linspace(0.05, 2.0, 30)
    curves = aa_curves([0.2, 0.4], B)
    with pytest.raises(ValueError, match="one temperature per curve"):
        dispersion(curves, np.array([0.2]))


# -------------------------------------------------------------- collapse_teff

def test_collapse_noiseless_recovers_saturation():
    temps = [0.04, 0.1, 0.2, 0.4, 0.7, 1.0]
    t_sat = 0.25
    B = np.linspace(0.02, 2.0, 120)
    curves = aa_curves(temps, B, t_sat=t_sat)
    res = collapse_teff(curves)
    true = np.hypot(temps, t_sat)
    # no gauge: the g2 crossover fixes every absolute T_eff, and F with them
    ratios = res.t_eff / res.t_eff[5]
    np.testing.assert_allclose(ratios, true / true[5], rtol=0.01)
    np.testing.assert_allclose(res.t_eff, true, rtol=1e-9)
    assert res.dispersion < 1e-18
    assert abs(res.F.value - 0.5) / 0.5 < 1e-9
    assert res.fit.converged and not res.at_bound.any()
    np.testing.assert_allclose(res.h_max, [reduced_field(2.0, t) for t in true], rtol=1e-9)
    # the result carries the dispersion at the bath temperatures and the
    # pooled points it fitted: every nonzero-field point of every curve
    assert res.dispersion_at_bath == dispersion(curves)
    assert res.point_B.size == sum(int(np.count_nonzero(c.B)) for c in curves)
    for i, c in enumerate(curves):
        mine, nz = res.point_curve == i, c.B != 0.0
        np.testing.assert_array_equal(res.point_B[mine], c.B[nz])
        np.testing.assert_array_equal(res.delta_sigma[mine], c.delta_sigma[nz])
        for ln_h, t in ((res.ln_h_bath, c.T_bath), (res.ln_h_eff, res.t_eff[i])):
            np.testing.assert_array_equal(ln_h[mine], np.log(reduced_field(np.abs(c.B[nz]), t)))


# (temps, t_sat, noise, points per curve)
THREE_TEMPS = ([0.1, 0.3, 1.0], 0.3, 0.005, 60)


@pytest.mark.parametrize(
    "temps, t_sat, noise, n_points",
    [
        pytest.param(*THREE_TEMPS, id="three-temps"),
        # three cold curves nearly coincide and must all rise 6-20x together
        pytest.param([0.03, 0.05, 0.1, 0.3, 1.0], 0.6, 0.002, 120, id="cold-coinciding"),
        # three cold curves rise 5-25x toward a warm one, and none bridges the gap
        pytest.param([0.02, 0.05, 0.1, 1.0], 0.5, 0.002, 120, id="cold-no-bridge"),
    ],
)
def test_collapse_noisy_ratios(temps, t_sat, noise, n_points):
    B = np.linspace(0.05, 2.0, n_points)
    curves = aa_curves(temps, B, t_sat=t_sat, noise=noise, seed=1)
    res = collapse_teff(curves)
    true = np.hypot(temps, t_sat)
    ratios = (res.t_eff / res.t_eff[-1]) / (true / true[-1])
    np.testing.assert_allclose(ratios, 1.0, atol=0.03)
    assert abs(res.F.value - 0.5) / 0.5 < 0.02
    # electrons never report colder than the search floor below the bath
    assert np.all(res.t_eff >= 0.75 * np.asarray(temps) - 1e-12)
    assert np.all(res.t_eff <= 30.0 * np.asarray(temps))


def test_collapse_teff_stderr_is_calibrated():
    # the ln T_eff errors of every curve and the F errors over many noise
    # draws scatter by about the reported standard errors
    temps, t_sat, noise, n_points = THREE_TEMPS
    B = np.linspace(0.05, 2.0, n_points)
    true = np.log(np.hypot(temps, t_sat))
    z, z_f = [], []
    for seed in range(40):
        res = collapse_teff(aa_curves(temps, B, t_sat=t_sat, noise=noise, seed=seed))
        z.extend((np.log(res.t_eff) - true) / (res.t_eff_stderr / res.t_eff))
        z_f.append((res.F.value - 0.5) / res.F.stderr)
    assert 0.5 <= math.sqrt(np.mean(np.square(z))) <= 2.0
    assert 0.5 <= math.sqrt(np.mean(np.square(z_f))) <= 2.0


def test_collapse_needs_more_points_than_unknowns():
    # 3 x 1 points cannot fix F plus 3 temperatures
    B = np.array([1.0])
    with pytest.raises(ValueError, match="3 nonzero-field points cannot fix 4 unknowns"):
        collapse_teff(aa_curves([0.2, 0.4, 0.8], B))


def test_collapse_identity_at_one_percent_noise():
    # no saturation: the optimizer should hand back the bath temperatures
    temps = [0.3, 0.5, 0.8, 1.2]
    B = np.linspace(0.05, 2.0, 200)
    for seed in range(5):
        curves = aa_curves(temps, B, t_sat=0.0, noise=0.01, seed=seed)
        res = collapse_teff(curves)
        np.testing.assert_allclose(res.t_eff, temps, rtol=0.01)


def test_collapse_needs_three_curves():
    B = np.linspace(0.05, 2.0, 30)
    with pytest.raises(ValueError, match="at least 3"):
        collapse_teff(aa_curves([0.2, 0.4], B))


def test_collapse_without_log_branch_still_fits_f():
    # warm curves only: reduced fields never reach the log branch, yet the
    # h^2 rise of g2 gives F
    temps = [2.0, 3.0, 4.0]
    B = np.linspace(0.05, 2.0, 40)
    res = collapse_teff(aa_curves(temps, B, noise=0.002, seed=1))
    assert np.all(res.h_max < 2.0)
    assert math.isfinite(res.F.value) and 0.0 < res.F.stderr < 0.05
    assert abs(res.F.value - 0.5) < 3.0 * res.F.stderr


def test_collapse_jacobian_matches_differences(monkeypatch):
    import deltamag.collapse
    from deltamag.fit import levmar

    problems = []

    def capture(residual, init, bounds=None, **kwargs):
        problems.append((residual, np.array(init, dtype=float)))
        return levmar(residual, init, bounds, **kwargs)

    monkeypatch.setattr(deltamag.collapse, "levmar", capture)
    B = np.linspace(-2.0, 2.0, 81)  # both signs of each |B|, and B = 0
    collapse_teff(aa_curves([0.1, 0.2, 0.4], B, t_sat=0.15, noise=0.002, seed=3))
    residual, init = problems[0]
    n = init.size - 1

    def differences(p):
        steps = np.append(np.full(n, 1e-5), 1e-5 * abs(p[n]))
        columns = []
        for i, s in enumerate(steps):
            dp = np.zeros_like(p)
            dp[i] = s
            columns.append((residual.evaluate(p + dp) - residual.evaluate(p - dp)) / (2.0 * s))
        return np.column_stack(columns)

    # the start point, evaluated last as levmar does before asking for J
    residual.evaluate(init)
    J = residual.jacobian(init)
    fd = differences(init)
    col = np.abs(fd).max(axis=0)
    np.testing.assert_allclose(J / col, fd / col, rtol=0, atol=1e-7)
    # a point other than the last one evaluated: J must not reuse stale g2
    p = init + np.append([0.4, -0.2, 0.1], 0.3 * init[n])
    fd = differences(p)
    residual.evaluate(init)
    J = residual.jacobian(p)
    col = np.abs(fd).max(axis=0)
    np.testing.assert_allclose(J / col, fd / col, rtol=0, atol=1e-7)
    residual.evaluate(p)
    np.testing.assert_array_equal(residual.jacobian(p), J)


def test_collapse_noiseless_with_coinciding_bath_fields():
    # (0.1 K, B) and (0.2 K, 2B) share one h at the bath, but their T_eff
    # move them apart: g2 must be computed per curve, not per bath h
    temps, t_sat = [0.1, 0.2, 0.4], 0.15
    B = np.linspace(-2.0, 2.0, 81)
    x = [np.log(reduced_field(np.abs(B[B != 0.0]), T)) for T in temps]
    assert np.intersect1d(x[0], x[1]).size >= 10 and np.intersect1d(x[1], x[2]).size >= 10
    res = collapse_teff(aa_curves(temps, B, t_sat=t_sat))
    np.testing.assert_allclose(res.t_eff, np.hypot(temps, t_sat), rtol=1e-9)
    assert abs(res.F.value - 0.5) / 0.5 < 1e-9
