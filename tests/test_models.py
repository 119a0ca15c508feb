import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from deltamag import (
    AaParams,
    InPlaneParams,
    WlParams,
    elastic_field,
    g2,
    gamma_param,
    orbital_delta_sigma,
    phase_breaking_field,
    reduced_field,
    thickness_from_gamma,
    total_delta_sigma,
    wl_inplane,
    wl_perp,
    wl_perp_shape,
    zeeman_aa,
)
from deltamag.constants import G0
from deltamag.models import g2_with_log_slope
from deltamag.special import _TAIL_COEFFS, digamma

# row-1 layer scale: l_phi = 86 nm, l = 11.7 nm
P1 = WlParams(l_phi=86e-9, l_mfp=11.7e-9)


def wl_reference(B, l_phi, l_mfp):
    # same lineshape built on scipy's digamma, as an independent route
    hbar = 6.62607015e-34 / (2 * math.pi)
    b_phi = hbar / (4 * 1.602176634e-19 * l_phi**2)
    b_l = hbar / (2 * 1.602176634e-19 * l_mfp**2)
    psi = scipy.special.digamma
    return (G0 / math.pi) * (
        psi(0.5 + b_phi / B) - psi(0.5 + b_l / B) + math.log(2 * l_phi**2 / l_mfp**2)
    )


def test_characteristic_fields():
    assert phase_breaking_field(86e-9) == pytest.approx(0.02224891687908689, rel=1e-9)
    assert elastic_field(11.7e-9) == pytest.approx(2.40416377000112, rel=1e-9)
    with pytest.raises(ValueError):
        phase_breaking_field(0.0)
    with pytest.raises(ValueError):
        elastic_field(-1e-9)


def test_wl_perp_zero_field_is_exactly_zero():
    assert wl_perp(0.0, P1) == 0.0
    out = wl_perp(np.array([0.0, 0.5, 0.0]), P1)
    assert out[0] == 0.0 and out[2] == 0.0 and out[1] > 0.0


def test_wl_perp_matches_independent_lineshape():
    B = np.geomspace(1e-3, 2.0, 50)
    # atol floor covers the near-total cancellation of the three terms at small B
    np.testing.assert_allclose(
        wl_perp(B, P1), wl_reference(B, 86e-9, 11.7e-9), rtol=1e-12, atol=1e-12 * G0
    )


def test_wl_perp_shape_wiring():
    B = np.linspace(0.0, 2.0, 11)
    np.testing.assert_allclose(
        wl_perp(B, P1), (G0 / math.pi) * wl_perp_shape(B, 86e-9, 11.7e-9), rtol=0, atol=0
    )


def two_call_shape(B, l_phi, l_mfp):
    """The lineshape as two separate digamma lifts, one per characteristic field."""
    out = np.zeros_like(B)
    nz = B > 0.0
    out[nz] = (
        digamma(0.5 + phase_breaking_field(l_phi) / B[nz])
        - digamma(0.5 + elastic_field(l_mfp) / B[nz])
        + math.log(2.0 * l_phi**2 / l_mfp**2)
    )
    return out


@pytest.mark.parametrize(
    "B",
    [
        np.linspace(-2.0, 2.0, 101),  # contains B = 0
        np.linspace(0.3, 2.9, 57),  # inside one decade
        np.geomspace(1e-6, 1e2, 801),
    ],
    ids=["with-zero", "one-decade", "1e-6-to-1e2"],
)
def test_wl_perp_shape_is_bitwise_the_two_call_lineshape(B):
    B = np.abs(B)
    for l_phi, l_mfp in [(86e-9, 11.7e-9), (2.5e-6, 3e-9), (12e-9, 11.9e-9)]:
        np.testing.assert_array_equal(wl_perp_shape(B, l_phi, l_mfp), two_call_shape(B, l_phi, l_mfp))
    assert wl_perp_shape(float(B[1]), 86e-9, 11.7e-9) == two_call_shape(B[1:2], 86e-9, 11.7e-9)[0]


def masked_shape(B, l_phi, l_mfp):
    """The lineshape through the B > 0 mask and a scatter into zeros, which
    every grid took before grids of positive fields got their own path."""
    arr = np.asarray(B, dtype=float)
    work = np.atleast_1d(arr)
    out = np.zeros_like(work)
    nz = work > 0.0
    if nz.any():
        psi = digamma(0.5 + np.array([[phase_breaking_field(l_phi)], [elastic_field(l_mfp)]]) / work[nz])
        out[nz] = psi[0] - psi[1] + math.log(2.0 * l_phi**2 / l_mfp**2)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


@pytest.mark.parametrize(
    "B",
    [
        np.linspace(0.0, 2.0, 101),
        np.linspace(0.02, 2.0, 100),
        np.geomspace(1e-6, 1e2, 801),
        np.array([0.5, math.inf]),
        np.linspace(0.0, 2.0, 12).reshape(3, 4),
        np.linspace(0.1, 2.0, 12).reshape(3, 4),
        np.array([1.3]),
        np.array([0.0]),
        np.array([]),
        0.7,
        0.0,
    ],
    ids=["with-zero", "positive", "1e-6-to-1e2", "inf", "2d-with-zero", "2d-positive",
         "one-point", "one-zero", "empty", "scalar", "scalar-zero"],
)
def test_wl_perp_shape_positive_grid_is_bitwise_the_masked_path(B):
    for l_phi, l_mfp in [(86e-9, 11.7e-9), (2.5e-6, 3e-9)]:
        got, want = wl_perp_shape(B, l_phi, l_mfp), masked_shape(B, l_phi, l_mfp)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("B", [math.nan, np.array([0.1, math.nan, 2.0]), np.array([[math.nan]])])
def test_nan_field_is_rejected(B):
    with pytest.raises(ValueError, match="B >= 0"):
        wl_perp_shape(B, 86e-9, 11.7e-9)
    with pytest.raises(ValueError, match="B >= 0"):
        wl_perp(B, P1)
    with pytest.raises(ValueError, match="B >= 0"):
        reduced_field(B, 1.0)
    # +inf stays a field: wl_perp saturates there, and h is infinite
    assert wl_perp(math.inf, P1) == (G0 / math.pi) * math.log(2.0 * 86e-9**2 / 11.7e-9**2)
    assert reduced_field(math.inf, 1.0) == math.inf
    assert reduced_field(np.array([]), 1.0).size == 0


def test_nan_is_named_apart_from_a_negative_value():
    # both fail the same range check; only a negative field is told to pass |B|
    cases = [
        (lambda x: wl_perp_shape(x, 86e-9, 11.7e-9), "wl_perp requires B >= 0",
         "; pass |B| for signed sweeps"),
        (lambda x: reduced_field(x, 1.0), "reduced_field requires B >= 0", ""),
        (lambda x: reduced_field(0.5, x), "reduced_field requires T > 0", ""),
    ]
    for call, head, negative in cases:
        for bad, tail in ((math.nan, ", got NaN"), (-0.2, negative)):
            with pytest.raises(ValueError) as exc_info:
                call(np.array([0.1, bad]))
            assert str(exc_info.value) == head + tail


def test_wl_perp_monotone_and_saturating():
    B = np.linspace(0.0, 2.0, 400)
    y = wl_perp(B, P1)
    assert np.all(np.diff(y) > 0.0)
    # large-field saturation needs B >> B_l, so use micron-scale lengths
    p = WlParams(l_phi=3e-6, l_mfp=1.5e-6)
    sat = (G0 / math.pi) * math.log(2 * p.l_phi**2 / p.l_mfp**2)
    assert abs(wl_perp(1e6, p) - sat) < 1e-9 * G0


def test_wl_perp_rejects_negative_field():
    with pytest.raises(ValueError, match="B >= 0"):
        wl_perp(-0.1, P1)


def test_wl_params_warns_outside_diffusive_regime():
    with pytest.warns(UserWarning, match="diffusive"):
        WlParams(l_phi=5e-9, l_mfp=10e-9)


def test_wl_inplane_small_gamma_quadratic():
    p = InPlaneParams(gamma=1e-4)
    B = np.linspace(-2.0, 2.0, 41)
    np.testing.assert_allclose(
        wl_inplane(B, p), (G0 / math.pi) * np.log1p(1e-4 * B * B), rtol=0
    )
    assert wl_inplane(0.5, p) == pytest.approx((G0 / math.pi) * 1e-4 * 0.25, rel=2e-5)


def test_wl_inplane_even_and_zero_for_thin_layer():
    p = InPlaneParams(gamma=0.02)
    np.testing.assert_array_equal(wl_inplane(-1.3, p), wl_inplane(1.3, p))
    assert wl_inplane(1.7, InPlaneParams(0.0)) == 0.0
    with pytest.raises(ValueError):
        InPlaneParams(-1e-6)


def test_gamma_param_values():
    assert gamma_param(10e-9, 18.73e17, 86e-9, 11.7e-9) == pytest.approx(
        0.3779336391737595, rel=1e-9
    )
    assert gamma_param(0.42e-9, 2.14e17, 35.5e-9, 2.97e-9) == pytest.approx(
        1.3239309905622087e-3, rel=1e-9
    )


@given(
    delta=st.floats(min_value=1e-10, max_value=1e-8),
    n=st.floats(min_value=1e16, max_value=2e18),
    l_phi=st.floats(min_value=1e-8, max_value=1e-6),
    l_mfp=st.floats(min_value=1e-9, max_value=2e-8),
)
def test_thickness_gamma_round_trip(delta, n, l_phi, l_mfp):
    g = gamma_param(delta, n, l_phi, l_mfp)
    assert math.isclose(thickness_from_gamma(g, n, l_phi, l_mfp), delta, rel_tol=1e-12)


def test_thickness_from_zero_gamma():
    assert thickness_from_gamma(0.0, 1e17, 50e-9, 5e-9) == 0.0
    with pytest.raises(ValueError):
        thickness_from_gamma(-1.0, 1e17, 50e-9, 5e-9)


def test_reduced_field_value():
    assert reduced_field(2.0, 0.6) == pytest.approx(4.478092104172266, rel=1e-12)
    assert reduced_field(0.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        reduced_field(1.0, 0.0)
    # one temperature per point is the per-point scalar call
    B, T = np.array([0.0, 0.3, 2.0, 7.5]), np.array([0.1, 0.6, 0.6, 3.0])
    want = [reduced_field(b, t, 0.44) for b, t in zip(B, T)]
    assert reduced_field(B, T, 0.44).tobytes() == np.array(want).tobytes()
    for bad, tail in ((0.0, ""), (-0.1, ""), (math.nan, ", got NaN")):
        with pytest.raises(ValueError, match=f"^reduced_field requires T > 0{tail}$"):
            reduced_field(B, np.r_[T[:3], bad])
    assert reduced_field(np.empty(0), np.empty(0)).size == 0
    with pytest.raises(ValueError):
        reduced_field(-1.0, 1.0)


def test_zeeman_log_branch_value():
    # h = 13 sits on the log branch: g2(13) = 2.283049290504436 (40-digit
    # mpmath), 0.021 below the asymptote ln(13 / 1.298)
    p = AaParams(F=1.0)
    T = 0.6
    B = 13.0 * 1.380649e-23 * T / (2.0 * 9.2740100783e-24)
    assert zeeman_aa(B, T, p) == pytest.approx(-G0 * 2.283049290504436 / (2 * math.pi), rel=1e-12)


def g2_quad(h):
    """g2 by quadrature of eq. 4.23 of Lee & Ramakrishnan, split at the log singularity."""

    def d2(w):  # second derivative of w / (e^w - 1)
        if w < 0.05:
            return 1.0 / 6.0 - w * w / 60.0 + w**4 / 1008.0
        u, d = math.exp(-w), -math.expm1(-w)
        return (2.0 * w / d - 2.0 - w) * u / d**2

    def f(w):
        return d2(w) * math.log(abs(1.0 - (h / w) ** 2))

    opts = dict(limit=200, epsabs=0.0, epsrel=1e-11)
    quad = scipy.integrate.quad
    return quad(f, 0.0, h, **opts)[0] + quad(f, h, math.inf, **opts)[0]


def test_g2_matches_quadrature():
    h = np.geomspace(1e-3, 1e3, 50)
    np.testing.assert_allclose(g2(h), [g2_quad(x) for x in h], rtol=1e-8)


def test_g2_limits_and_series_join():
    zeta3 = 1.2020569031595942
    h = np.geomspace(1e-4, 1e-2, 5)
    np.testing.assert_allclose(g2(h), 3.0 * zeta3 * h**2 / (4.0 * math.pi**2), rtol=1e-4)
    h = np.geomspace(1e4, 1e6, 5)  # the asymptote is approached as 1/h^2
    asymptote = np.log(h / (2.0 * math.pi)) + 0.5772156649015329 + 1.0
    np.testing.assert_allclose(g2(h), asymptote, atol=1e-7)
    # the small-h series hands over to the closed form at c = h/2pi = 1/4
    join = math.pi / 2.0
    for f in (g2, lambda h: g2_with_log_slope(h)[1]):
        below, at = f(np.nextafter(join, 0.0)), f(join)
        assert abs(at - below) < 1e-15
    assert isinstance(g2(1.0), float) and g2(0.0) == 0.0
    assert g2(np.ones((2, 3))).shape == (2, 3)


def test_g2_log_slope_matches_central_differences():
    h = np.geomspace(1e-2, 1e3, 40)
    eps = 1e-5
    fd = (g2(h * (1.0 + eps)) - g2(h * (1.0 - eps))) / (2.0 * eps)
    g, slope = g2_with_log_slope(h)
    np.testing.assert_allclose(slope, fd, rtol=1e-8)
    np.testing.assert_array_equal(g, g2(h))


def complex_lift(z):
    """psi, psi1 and psi2 at complex z from one ten-step lift, each term a
    complex division: the path that g2_with_log_slope's real lift replaced."""
    steps = z[:, None] + np.arange(10.0)
    w = z + 10.0
    zz = 1.0 / (w * w)
    t0 = t1 = t2 = 0.0
    for n in range(len(_TAIL_COEFFS), 0, -1):  # B_2n/2n, B_2n and B_2n (2n + 1)
        c = _TAIL_COEFFS[n - 1]
        t0 = (t0 + c) * zz
        t1 = (t1 + 2 * n * c) * zz
        t2 = (t2 + (2 * n + 1) * 2 * n * c) * zz
    return (
        np.log(w) - 0.5 / w - t0 - (1.0 / steps).sum(axis=1),
        (1.0 + 0.5 / w + t1) / w + (1.0 / (steps * steps)).sum(axis=1),
        -(1.0 + 1.0 / w + t2) * zz - 2.0 * (1.0 / (steps * steps * steps)).sum(axis=1),
    )


# psi1(1 + ic) at these c, from mpmath at 30 digits
PSI1_AT_1_PLUS_IC = {
    1e-5: 1.6449340665235295 - 2.4041138059044176e-05j,
    0.25: 1.4602801851075353 - 0.5416750006713831j,
    1.0: 0.4630000966227638 - 0.7942335427593189j,
    3.7: 0.03652300791493568 - 0.2669290150483199j,
    50.0: 0.0002 - 0.019998666559969507j,
    1e4: 5e-09 - 9.999999983333333e-05j,
}


def test_complex_lift_reference_is_special_and_scipy():
    z = 1.0 + 1j * np.geomspace(1e-5, 1e4, 400)
    ref = scipy.special.psi(z)
    assert np.max(np.abs(complex_lift(z)[0] - ref) / np.abs(ref)) < 1e-14
    c = np.array(list(PSI1_AT_1_PLUS_IC))
    ref = np.array(list(PSI1_AT_1_PLUS_IC.values()))
    assert np.max(np.abs(complex_lift(1.0 + 1j * c)[1] - ref) / np.abs(ref)) < 1e-14
    x = np.geomspace(1e-3, 1e6, 400)
    ref = scipy.special.polygamma(2, x)
    assert np.max(np.abs(complex_lift(x + 0j)[2].real - ref) / np.abs(ref)) < 1e-14


def test_g2_real_lift_matches_complex_lift():
    join = 0.25 * 2.0 * math.pi  # c = h/2pi = 1/4
    h = np.concatenate([np.geomspace(1e-3, 1e4, 4001), join * (1.0 + np.linspace(-1e-6, 1e-6, 41))])
    g, slope = g2_with_log_slope(h)
    c = h / (2.0 * math.pi)
    big = c >= 0.25
    assert 0 < big.sum() < h.size
    psi, psi1, psi2 = complex_lift(1.0 + 1j * c[big])
    want_g = 0.5772156649015329 + psi.real - c[big] * psi1.imag
    want_slope = c[big] * (-2.0 * psi1.imag - c[big] * psi2.real)
    assert np.max(np.abs(g[big] / want_g - 1.0)) < 1e-14
    assert np.max(np.abs(slope[big] / want_slope - 1.0)) < 1e-14


def test_g2_with_log_slope_shapes():
    # one pass gives g2 bitwise, on both sides of the series join, in h's shape
    h = np.concatenate([[0.0], np.geomspace(1e-3, 1e3, 59)]).reshape(3, 20)
    g, slope = g2_with_log_slope(h)
    assert g.shape == slope.shape == (3, 20)
    np.testing.assert_array_equal(g, g2(h))
    assert g[0, 0] == slope[0, 0] == 0.0
    assert g2_with_log_slope(2.0)[0] == g2(2.0)


def test_zeeman_zero_field_and_even():
    p = AaParams(F=0.5)
    assert zeeman_aa(0.0, 0.3, p) == 0.0
    B = np.linspace(-2.0, 2.0, 21)
    np.testing.assert_array_equal(zeeman_aa(B, 0.3, p), zeeman_aa(-B, 0.3, p))
    assert np.all(zeeman_aa(B[B != 0], 0.3, p) < 0.0)


def test_zeeman_f_scaling():
    B = np.linspace(0.1, 2.0, 7)
    np.testing.assert_allclose(
        zeeman_aa(B, 0.3, AaParams(F=0.8)), 2.0 * zeeman_aa(B, 0.3, AaParams(F=0.4)), rtol=1e-14
    )
    assert np.all(zeeman_aa(B, 0.3, AaParams(F=0.0)) == 0.0)


@settings(max_examples=200)
@given(
    B=st.floats(min_value=1e-3, max_value=2.0),
    T=st.floats(min_value=0.05, max_value=4.0),
    c=st.floats(min_value=0.1, max_value=10.0),
)
def test_zeeman_depends_only_on_reduced_field(B, T, c):
    p = AaParams(F=0.5)
    assert math.isclose(zeeman_aa(B, T, p), zeeman_aa(c * B, c * T, p), rel_tol=1e-12)


def test_total_is_orientation_sum():
    wl = WlParams(35.5e-9, 2.97e-9)
    ip = InPlaneParams(1.3e-3)
    aa = AaParams(F=0.5)
    B = np.linspace(0.0, 2.0, 31)
    T = 0.3
    perp = total_delta_sigma(B, 0.0, T, wl, ip, aa)
    inpl = total_delta_sigma(B, 90.0, T, wl, ip, aa)
    np.testing.assert_allclose(perp - wl_perp(B, wl), zeeman_aa(B, T, aa), rtol=0, atol=1e-20)
    np.testing.assert_allclose(inpl - wl_inplane(B, ip), zeeman_aa(B, T, aa), rtol=0, atol=1e-20)
    # the orbital term of each orientation is the channel model, bit for bit
    for theta_deg, want in ((0.0, wl_perp(B, wl)), (90.0, wl_inplane(B, ip))):
        got = orbital_delta_sigma(B, theta_deg, wl.l_phi, wl.l_mfp, ip.gamma)
        assert got.tobytes() == want.tobytes()
        assert orbital_delta_sigma(0.7, theta_deg, wl.l_phi, wl.l_mfp, ip.gamma) == float(
            total_delta_sigma(0.7, theta_deg, T, wl, ip, AaParams(F=0.0))
        )
    # the isotropic term drops out of the orientation difference
    np.testing.assert_allclose(
        perp - inpl, wl_perp(B, wl) - wl_inplane(B, ip), rtol=1e-12, atol=1e-24
    )


def test_total_rejects_other_angles():
    # degrees only: pi/2 is not the in-plane orientation
    for theta in (0.3, math.pi / 2, -90.0, 180.0, math.nan):
        with pytest.raises(ValueError, match="^theta_deg must be 0 or 90$"):
            total_delta_sigma(1.0, theta, 0.5, WlParams(50e-9, 5e-9), InPlaneParams(0.0), AaParams(F=0.5))
        with pytest.raises(ValueError, match="^theta_deg must be 0 or 90$"):
            orbital_delta_sigma(1.0, theta, 50e-9, 5e-9, 0.0)
