import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from deltamag import (
    AaParams,
    InPlaneParams,
    WlParams,
    elastic_field,
    gamma_param,
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
from deltamag.models import H_CROSS_C1

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
    with pytest.raises(ValueError):
        reduced_field(-1.0, 1.0)


def test_zeeman_log_branch_value():
    # h = 13 sits on the log branch; ln(13 / 1.3) = ln 10
    p = AaParams(F=1.0)
    T = 0.6
    B = 13.0 * 1.380649e-23 * T / (2.0 * 9.2740100783e-24)
    assert zeeman_aa(B, T, p) == pytest.approx(-G0 * math.log(10.0) / (2 * math.pi), rel=1e-12)


def test_zeeman_zero_field_and_even():
    p = AaParams(F=0.5)
    assert zeeman_aa(0.0, 0.3, p) == 0.0
    B = np.linspace(-2.0, 2.0, 21)
    np.testing.assert_array_equal(zeeman_aa(B, 0.3, p), zeeman_aa(-B, 0.3, p))
    assert np.all(zeeman_aa(B[B != 0], 0.3, p) < 0.0)


def test_zeeman_crossover_continuity():
    p = AaParams(F=0.7)
    T = 0.5
    k = 1.380649e-23 * T / (2.0 * 9.2740100783e-24)  # B per unit h
    eps = 1e-10
    below = zeeman_aa((H_CROSS_C1 - eps) * k, T, p)
    above = zeeman_aa((H_CROSS_C1 + eps) * k, T, p)
    assert abs(above - below) < 1e-10 * G0
    # the default crossover matches slopes too
    eps = 1e-6
    d_below = (
        zeeman_aa((H_CROSS_C1 - eps) * k, T, p) - zeeman_aa((H_CROSS_C1 - 3 * eps) * k, T, p)
    ) / (2 * eps * k)
    d_above = (
        zeeman_aa((H_CROSS_C1 + 3 * eps) * k, T, p) - zeeman_aa((H_CROSS_C1 + eps) * k, T, p)
    ) / (2 * eps * k)
    assert d_above == pytest.approx(d_below, rel=1e-5)
    # a non-default crossover stays continuous in value
    eps = 1e-10
    lo = zeeman_aa((3.0 - eps) * k, T, p, h_cross=3.0)
    hi = zeeman_aa((3.0 + eps) * k, T, p, h_cross=3.0)
    assert abs(hi - lo) < 1e-10 * G0


def test_zeeman_crossover_validation():
    with pytest.raises(ValueError, match="1.3"):
        zeeman_aa(1.0, 0.5, AaParams(F=0.5), h_cross=1.2)


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
    inpl = total_delta_sigma(B, math.pi / 2, T, wl, ip, aa)
    np.testing.assert_allclose(perp - wl_perp(B, wl), zeeman_aa(B, T, aa), rtol=0, atol=1e-20)
    np.testing.assert_allclose(inpl - wl_inplane(B, ip), zeeman_aa(B, T, aa), rtol=0, atol=1e-20)
    # the isotropic term drops out of the orientation difference
    np.testing.assert_allclose(
        perp - inpl, wl_perp(B, wl) - wl_inplane(B, ip), rtol=1e-12, atol=1e-24
    )


def test_total_rejects_other_angles():
    with pytest.raises(ValueError, match="theta"):
        total_delta_sigma(1.0, 0.3, 0.5, WlParams(50e-9, 5e-9), InPlaneParams(0.0), AaParams(F=0.5))
