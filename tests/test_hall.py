import math

import numpy as np
import pytest

from deltamag import (
    Geometry,
    SamplePhysics,
    characterize,
    density_from_hall,
    fermi_wavevector,
    interaction_rs,
    mean_free_path,
    mobility,
)
from deltamag.constants import E_CHARGE, G0, HBAR

GEO = Geometry(200e-6, 20e-6)


def make_sweep(n_2d, n_points=50, offset=0.0, noise=None, seed=0):
    B = np.linspace(-2.0, 2.0, n_points)
    R_xy = B / (n_2d * E_CHARGE) + offset
    if noise is not None:
        rng = np.random.default_rng(seed)
        R_xy = R_xy * (1.0 + noise * rng.standard_normal(B.size))
    return B, R_xy


def test_density_noiseless_exact():
    m = density_from_hall(*make_sweep(1.18e17))
    assert m.value == pytest.approx(1.18e17, rel=1e-12)
    assert m.stderr / m.value < 1e-10


def test_density_ignores_contact_offset():
    # an antisymmetrization offset in R_xy shifts the intercept only
    a = density_from_hall(*make_sweep(2.14e17))
    b = density_from_hall(*make_sweep(2.14e17, offset=5.0))
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_density_noise_coverage():
    # 1% multiplicative noise on R_xy, 50 points: n lands within 1% almost always
    hits = 0
    for seed in range(1000):
        m = density_from_hall(*make_sweep(1.18e17, noise=0.01, seed=seed))
        if abs(m.value - 1.18e17) / 1.18e17 < 0.01:
            hits += 1
    assert hits >= 950


def test_density_rejects_wrong_carrier_sign():
    B = np.linspace(-2.0, 2.0, 20)
    with pytest.raises(ValueError, match="carrier sign"):
        density_from_hall(B, -B / (1e17 * E_CHARGE))


def test_density_needs_field_span():
    B = np.linspace(-0.1, 0.1, 20)
    with pytest.raises(ValueError, match="span"):
        density_from_hall(B, B / (1e17 * E_CHARGE))


def test_hall_sweep_validation():
    with pytest.raises(ValueError, match="equal length"):
        density_from_hall(np.arange(3.0), np.arange(4.0))


def test_density_rejects_nonfinite_r_xy():
    B = np.linspace(-1.0, 1.0, 20)
    R_xy = B / (1e17 * E_CHARGE)
    R_xy[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        density_from_hall(B, R_xy)


def test_density_rejects_nonfinite_field():
    # a NaN field once passed the span test and returned Measured(nan, nan)
    for bad in (np.nan, np.inf):
        B = np.linspace(-1.0, 1.0, 11)
        R_xy = B / (1e17 * E_CHARGE)
        B[4] = bad
        with pytest.raises(ValueError, match="B contains non-finite values"):
            density_from_hall(B, R_xy)


def test_geometry():
    assert GEO.squares == pytest.approx(10.0)
    with pytest.raises(ValueError):
        Geometry(10e-6, 20e-6)
    with pytest.raises(ValueError):
        Geometry(200e-6, 0.0)


def test_mobility_and_mean_free_path():
    n, sigma = 1.18e17, 0.67e-4
    mu = mobility(n, sigma)
    assert mu == pytest.approx(sigma / (n * E_CHARGE), rel=1e-15)
    # two routes to l: via k_F and mu, and the packaged helper
    l_direct = HBAR * fermi_wavevector(n) * mu / E_CHARGE
    assert mean_free_path(n, mu) == pytest.approx(l_direct, rel=1e-12)
    assert mean_free_path(n, mu) == pytest.approx(2.01e-9, rel=0.005)


def test_fermi_wavevector():
    n = 2.14e17
    assert fermi_wavevector(n) == pytest.approx(math.sqrt(2.0 * math.pi * n), rel=1e-15)
    with pytest.raises(ValueError):
        fermi_wavevector(0.0)


def test_disorder_parameter_equals_conductivity_ratio():
    # k_F l from lengths must equal sigma_xx / G0; two independent routes
    for n, sigma in ((18.73e17, 15.6e-4), (1.18e17, 0.67e-4)):
        sp = characterize(n, sigma)
        assert sp.kf_l == pytest.approx(sigma / G0, rel=1e-12)


def test_interaction_strength_endpoints():
    assert interaction_rs(1.18e17) == pytest.approx(5.53495, rel=1e-5)
    assert interaction_rs(18.73e17) == pytest.approx(1.38927, rel=1e-5)
    # r_s falls with density
    assert interaction_rs(18.73e17) < interaction_rs(1.18e17)


def test_characterize_fields():
    sp = characterize(2.14e17, 1.33e-4)
    assert sp.n_2d == 2.14e17
    assert sp.sigma_xx == 1.33e-4
    assert sp.mu == pytest.approx(1.33e-4 / (2.14e17 * E_CHARGE), rel=1e-12)
    assert sp.k_f == pytest.approx(fermi_wavevector(2.14e17), rel=1e-15)
    assert sp.l_mfp == pytest.approx(mean_free_path(sp.n_2d, sp.mu), rel=1e-12)
    assert sp.r_s == pytest.approx(interaction_rs(2.14e17), rel=1e-15)


def test_sample_physics_consistency_guard():
    sp = characterize(2.14e17, 1.33e-4)
    with pytest.raises(ValueError, match="inconsistent"):
        SamplePhysics(
            n_2d=sp.n_2d,
            mu=sp.mu * 1.05,
            sigma_xx=sp.sigma_xx,
            k_f=sp.k_f,
            l_mfp=sp.l_mfp,
            kf_l=sp.kf_l,
            r_s=sp.r_s,
        )
