import math

import numpy as np
import pytest

from deltamag import (
    AaCurve,
    AaParams,
    InPlaneParams,
    OrientedCurve,
    WlFitTable,
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

# row-7 layer values
N_2D = 2.14e17
L_MFP = 2.97e-9
DELTA = 0.42e-9
AMP = 35.5e-9


def l_phi_at(T):
    return AMP * T**-0.31


def true_table(temps):
    return WlFitTable(
        T=np.asarray(temps, dtype=float),
        l_phi=np.array([l_phi_at(T) for T in temps]),
        gamma=np.array([gamma_param(DELTA, N_2D, l_phi_at(T), L_MFP) for T in temps]),
        l_mfp=L_MFP,
    )


def forward_curves(temps, B, F=0.5, t_sat=0.0):
    aa = AaParams(F=F)
    out = []
    for T in temps:
        T_eff = math.hypot(T, t_sat)
        wl = WlParams(l_phi_at(T_eff), L_MFP)
        ip = InPlaneParams(gamma_param(DELTA, N_2D, l_phi_at(T_eff), L_MFP))
        for theta_deg, theta in ((0.0, 0.0), (90.0, math.pi / 2)):
            y = total_delta_sigma(np.abs(B), theta, T_eff, wl, ip, aa)
            out.append(OrientedCurve(T, theta_deg, B, y))
    return out


# ------------------------------------------------------------------ fit table

def test_table_interpolates_at_nodes():
    tab = true_table([0.1, 0.3, 1.0])
    lp, g = tab.params_at(0.3)
    assert lp == pytest.approx(l_phi_at(0.3), rel=1e-12)
    assert g == pytest.approx(gamma_param(DELTA, N_2D, l_phi_at(0.3), L_MFP), rel=1e-12)


def test_table_log_log_midpoint():
    # between nodes the interpolation is a power law, so the value at the
    # geometric-mean temperature is the geometric mean of the node values
    tab = true_table([0.1, 1.0])
    T_mid = math.sqrt(0.1 * 1.0)
    lp, _ = tab.params_at(T_mid)
    assert lp == pytest.approx(math.sqrt(l_phi_at(0.1) * l_phi_at(1.0)), rel=1e-12)
    assert lp == pytest.approx(l_phi_at(T_mid), rel=1e-12)


def test_table_range_guard_and_extrapolation():
    tab = true_table([0.2, 0.5, 1.0])
    with pytest.raises(ValueError, match="outside the fitted range"):
        tab.params_at(0.05)
    lp, _ = tab.params_at(0.05, extrapolate=True)
    assert lp == pytest.approx(l_phi_at(0.05), rel=1e-12)  # edge slope is the true law


def test_table_sorts_and_validates():
    tab = WlFitTable(
        T=np.array([1.0, 0.2]), l_phi=np.array([2e-8, 5e-8]), gamma=np.zeros(2), l_mfp=3e-9
    )
    assert tab.T[0] == 0.2
    lp, g = tab.params_at(0.2)
    assert lp == pytest.approx(5e-8, rel=1e-12)
    assert g == 0.0
    with pytest.raises(ValueError, match="empty"):
        WlFitTable(T=np.array([]), l_phi=np.array([]), gamma=np.array([]), l_mfp=3e-9)
    with pytest.raises(ValueError, match="positive"):
        WlFitTable(T=np.array([0.5]), l_phi=np.array([-1e-8]), gamma=np.zeros(1), l_mfp=3e-9)


# ----------------------------------------------------------------- isolate_aa

def test_residue_is_exactly_the_isotropic_part():
    temps = [0.1, 0.3, 0.6]
    B = np.linspace(-2.0, 2.0, 41)
    curves = forward_curves(temps, B)
    aa_curves = isolate_aa(curves, true_table(temps))
    assert len(aa_curves) == 3
    for c in aa_curves:
        assert c.B.size == 2 * B.size  # both orientations merged
        expect = zeeman_aa(c.B, c.T_bath, AaParams(F=0.5))
        np.testing.assert_allclose(c.delta_sigma, expect, rtol=0, atol=1e-18)


def test_residue_unmerged_keeps_orientations():
    temps = [0.2, 0.4, 0.8]
    B = np.linspace(-1.0, 1.0, 11)
    curves = forward_curves(temps, B)
    aa_curves = isolate_aa(curves, true_table(temps), merge=False)
    assert len(aa_curves) == len(curves)
    for oc, ac in zip(curves, aa_curves):
        assert ac.T_bath == oc.T_bath
        expect = zeeman_aa(ac.B, ac.T_bath, AaParams(F=0.5))
        np.testing.assert_allclose(ac.delta_sigma, expect, rtol=0, atol=1e-18)


def test_thin_layer_inplane_residue_is_the_data():
    # gamma = 0 means the in-plane orbital model is identically zero
    B = np.linspace(0.0, 2.0, 21)
    y = zeeman_aa(B, 0.5, AaParams(F=0.4))
    curve = OrientedCurve(0.5, 90.0, B, y)
    tab = WlFitTable(T=np.array([0.5]), l_phi=np.array([3e-8]), gamma=np.zeros(1), l_mfp=3e-9)
    (res,) = isolate_aa([curve], tab)
    np.testing.assert_array_equal(res.delta_sigma, y)


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


def test_dispersion_counts_shared_bins_like_a_loop():
    # curves 3x apart in T overlap over part of the pooled ln h range
    curves = aa_curves([0.1, 0.3, 0.9], np.linspace(0.05, 2.0, 30))
    x = [np.log(reduced_field(c.B, c.T_bath)) for c in curves]
    edges = np.linspace(min(v.min() for v in x), max(v.max() for v in x), 41)
    members = [set() for _ in range(40)]
    for i, xi in enumerate(x):
        for b in np.clip(np.searchsorted(edges, xi, side="right") - 1, 0, 39):
            members[b].add(i)
    shared = sum(len(m) >= 2 for m in members)
    assert 0 < shared < 40
    with pytest.raises(ValueError, match=f"overlap in only {shared} of 40 bins"):
        dispersion(curves, min_shared_bins=shared + 1)
    assert dispersion(curves, min_shared_bins=shared) >= 0.0


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
    # anchor gauge: the hottest curve keeps its bath temperature
    assert res.anchor == 5
    assert res.t_eff[5] == temps[5]
    ratios = res.t_eff / res.t_eff[5]
    np.testing.assert_allclose(ratios, true / true[5], rtol=0.01)
    assert res.dispersion < 1e-18
    assert abs(res.F.value - 0.5) / 0.5 < 5e-3
    # absolute T_eff carries the anchor gauge: the anchor is pinned to its
    # bath value, and that common factor surfaces in the reference constant
    assert res.intercept_check == pytest.approx(1.3 * true[5] / temps[5], rel=0.01)
    # the found temperatures are written back onto the curves
    for c, t in zip(curves, res.t_eff):
        assert c.T_eff == t


def test_collapse_alternate_anchor():
    temps = [0.1, 0.3, 1.0]
    B = np.linspace(0.05, 2.0, 60)
    curves = aa_curves(temps, B, t_sat=0.3)
    res = collapse_teff(curves, anchor=0)
    assert res.anchor == 0
    assert res.t_eff[0] == temps[0]
    with pytest.raises(ValueError, match="anchor index"):
        collapse_teff(curves, anchor=7)


def test_collapse_noisy_ratios():
    temps = [0.1, 0.3, 1.0]
    t_sat = 0.3
    B = np.linspace(0.05, 2.0, 60)
    curves = aa_curves(temps, B, t_sat=t_sat, noise=0.005, seed=1)
    res = collapse_teff(curves)
    true = np.hypot(temps, t_sat)
    ratios = (res.t_eff / res.t_eff[2]) / (true / true[2])
    np.testing.assert_allclose(ratios, 1.0, atol=0.03)
    assert abs(res.F.value - 0.5) / 0.5 < 0.02
    # electrons never report colder than the search floor below the bath
    assert np.all(res.t_eff >= 0.75 * np.asarray(temps) - 1e-12)
    assert np.all(res.t_eff <= 30.0 * np.asarray(temps))


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


def test_collapse_warns_without_log_branch():
    # warm curves only: reduced fields never reach the asymptotic regime
    temps = [2.0, 3.0, 4.0]
    B = np.linspace(0.05, 2.0, 40)
    with pytest.warns(UserWarning, match="F not extracted"):
        res = collapse_teff(aa_curves(temps, B))
    assert math.isnan(res.F.value)
