import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltamag import (
    REFERENCE_LAYERS,
    InPlaneParams,
    Residual,
    ResidualError,
    WlParams,
    fit_coherence_power_law,
    fit_wl_difference,
    gamma_param,
    levmar,
    wl_inplane,
    wl_perp,
)


# --------------------------------------------------------------------- levmar

def test_levmar_identity_residual():
    target = np.array([2.0, -3.0])
    res = levmar(Residual(lambda p: p - target, lambda p: np.eye(2)), np.zeros(2))
    np.testing.assert_allclose(res.params, target, atol=1e-12)
    assert res.converged
    assert res.iterations <= 2  # one Gauss-Newton step solves it


def test_levmar_linear_least_squares():
    A = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0]])
    y = np.array([0.1, 1.2, 1.9, 3.1])
    res = levmar(Residual(lambda p: A @ p - y, lambda p: A), np.zeros(2))
    direct, *_ = np.linalg.lstsq(A, y, rcond=None)
    np.testing.assert_allclose(res.params, direct, atol=1e-10)
    assert res.iterations <= 2


def rosenbrock(p):
    return np.array([10.0 * (p[1] - p[0] ** 2), 1.0 - p[0]])


def rosenbrock_jac(p):
    return np.array([[-20.0 * p[0], 10.0], [-1.0, 0.0]])


ROSENBROCK = Residual(rosenbrock, rosenbrock_jac)


def test_levmar_rosenbrock():
    res = levmar(ROSENBROCK, np.array([-1.2, 1.0]))
    np.testing.assert_allclose(res.params, [1.0, 1.0], atol=1e-8)
    assert res.converged


def test_levmar_bound_excludes_optimum():
    lo = np.array([-np.inf, -np.inf])
    hi = np.array([0.5, np.inf])
    res = levmar(ROSENBROCK, np.array([-1.2, 1.0]), bounds=(lo, hi))
    assert res.converged
    assert res.params[0] == pytest.approx(0.5, abs=1e-9)
    assert res.bounds_active[0]
    assert not res.bounds_active[1]
    # along the free direction the solution is still optimal
    assert res.params[1] == pytest.approx(0.25, abs=1e-6)


def test_levmar_rejects_start_outside_bounds():
    with pytest.raises(ValueError, match="outside"):
        levmar(
            Residual(lambda p: p, lambda p: np.eye(1)),
            np.array([2.0]),
            bounds=(np.array([0.0]), np.array([1.0])),
        )


def test_levmar_underdetermined_rejected():
    with pytest.raises(ValueError, match="at least as many"):
        levmar(Residual(lambda p: np.array([p.sum()]), lambda p: np.ones((1, 2))), np.zeros(2))


def test_levmar_nonfinite_residual_carries_last_state():
    def fun(p):
        return np.where(np.abs(p) > 2.0, np.nan, p - 5.0)

    with pytest.raises(ResidualError) as exc:
        levmar(Residual(fun, lambda p: np.eye(1)), np.array([1.0]))
    assert exc.value.last_params is not None
    np.testing.assert_allclose(exc.value.last_params, [1.0])


def test_levmar_iteration_cap():
    res = levmar(ROSENBROCK, np.array([-1.2, 1.0]), max_iter=2)
    assert not res.converged
    assert res.iterations == 2
    assert res.reason == "max_iter"
    res = levmar(ROSENBROCK, np.array([-1.2, 1.0]))
    assert res.converged
    assert res.reason in ("gtol", "ftol", "xtol")


def test_levmar_counts_residual_evaluations():
    calls = {"evaluate": 0}

    def fun(p):
        calls["evaluate"] += 1
        return rosenbrock(p)

    res = levmar(Residual(fun, rosenbrock_jac), np.array([-1.2, 1.0]))
    assert res.nfev == calls["evaluate"] > res.iterations


T_DECAY = np.linspace(0.0, 4.0, 30)
Y_DECAY = 2.0 * np.exp(-1.3 * T_DECAY) + 0.01 * np.random.default_rng(3).standard_normal(30)


def decay_residual(factor=1.0):
    """a*exp(-b*t) against the decay data, residual and Jacobian times ``factor``."""

    def fun(p):
        return factor * (p[0] * np.exp(-p[1] * T_DECAY) - Y_DECAY)

    def jac(p):
        e = np.exp(-p[1] * T_DECAY)
        return factor * np.column_stack([e, -p[0] * T_DECAY * e])

    return Residual(fun, jac)


def decay_fit(factor):
    """Fit a*exp(-b*t) from (1, 0.5) with residual and Jacobian times ``factor``."""
    return levmar(decay_residual(factor), np.array([1.0, 0.5]))


@settings(deadline=None, max_examples=25)
@given(st.integers(-40, 10))
def test_levmar_is_unit_free_under_powers_of_two(j):
    # scaling by 2^j is exact in floating point, so every decision must be too
    ref, res = decay_fit(1.0), decay_fit(2.0**j)
    assert ref.converged and ref.iterations > 0
    assert np.array_equal(res.params, ref.params)
    assert (res.iterations, res.reason) == (ref.iterations, ref.reason)


@settings(deadline=None, max_examples=15)
@given(st.integers(-9, 3))
def test_levmar_is_unit_free_under_powers_of_ten(k):
    ref, res = decay_fit(1.0), decay_fit(10.0**k)
    assert res.converged
    np.testing.assert_allclose(res.params, ref.params, rtol=1e-8)


def test_levmar_analytic_jacobian_used():
    calls = {"jac": 0}

    def jac(p):
        calls["jac"] += 1
        return rosenbrock_jac(p)

    res = levmar(Residual(evaluate=rosenbrock, jacobian=jac), np.array([-1.2, 1.0]))
    assert res.converged
    assert calls["jac"] > 0
    np.testing.assert_allclose(res.params, [1.0, 1.0], atol=1e-8)


def test_levmar_covariance_matches_linear_theory():
    rng = np.random.default_rng(42)
    x = np.linspace(0.0, 5.0, 40)
    y = 2.0 + 3.0 * x + 0.3 * rng.standard_normal(x.size)
    design = np.column_stack([np.ones_like(x), x])
    res = levmar(Residual(lambda p: (p[0] + p[1] * x) - y, lambda p: design), np.zeros(2))
    # closed-form OLS: slope Sxy / Sxx, and its variance chi^2 / (m - 2) / Sxx
    dx = x - x.mean()
    slope = dx @ y / (dx @ dx)
    resid = y - y.mean() - slope * dx
    assert res.params[1] == pytest.approx(slope, rel=1e-9)
    assert res.covariance[1, 1] == pytest.approx(resid @ resid / (x.size - 2) / (dx @ dx), rel=1e-6)


def eager_covariance(res, x_scale):
    """The covariance as levmar once built it before returning."""
    J, r = res.jacobian, res.residual
    m, k = J.shape
    scale2 = np.outer(x_scale, x_scale)
    chi2_red = 2.0 * (0.5 * float(r @ r)) / max(m - k, 1)
    cov = np.linalg.pinv((J.T @ J) * scale2, hermitian=True) * scale2 * chi2_red
    return 0.5 * (cov + cov.T)


def linear_problem():
    rng = np.random.default_rng(42)
    x = np.linspace(0.0, 5.0, 40)
    y = 2.0 + 3.0 * x + 0.3 * rng.standard_normal(x.size)
    design = np.column_stack([np.ones_like(x), x])
    return Residual(lambda p: (p[0] + p[1] * x) - y, lambda p: design)


@pytest.mark.parametrize("problem", ["rosenbrock", "rosenbrock-bounded", "linear", "wl"])
def test_levmar_covariance_is_bitwise_the_eager_formula(problem):
    if problem == "wl":
        B = np.linspace(-2.0, 2.0, 100)
        rng = np.random.default_rng(11)
        y = difference_curve(L07, B) * (1.0 + 0.01 * rng.standard_normal(B.size))
        res = fit_wl_difference(B, y, L07.si("l_mfp"), L07.si("n_2d")).fit
        x_scale = res.x_scale
        assert x_scale[1] == 1e-4
    else:
        init = {"linear": np.array([0.5, 0.0])}.get(problem, np.array([-1.2, 1.0]))
        bounds = (np.array([-np.inf, -np.inf]), np.array([0.5, np.inf]))
        res = levmar(
            linear_problem() if problem == "linear" else ROSENBROCK,
            init,
            bounds if problem == "rosenbrock-bounded" else None,
        )
        x_scale = np.where(init != 0.0, np.abs(init), 1.0)
        np.testing.assert_array_equal(res.x_scale, x_scale)
    assert "covariance" not in vars(res)  # not built until read
    np.testing.assert_array_equal(res.covariance, eager_covariance(res, x_scale))
    assert res.covariance is res.covariance


def test_levmar_scaled_parameters():
    # parameters five orders apart; x_scale keeps the normal matrix sane
    t = np.linspace(0.0, 5e-6, 30)
    y = 0.8 * np.exp(-t / 1.2e-6)

    def fun(p):
        return p[0] * np.exp(-t / p[1]) - y

    def jac(p):
        e = np.exp(-t / p[1])
        return np.column_stack([e, p[0] * e * t / p[1] ** 2])

    res = levmar(Residual(fun, jac), np.array([0.5, 3e-6]), x_scale=np.array([1.0, 1e-6]))
    np.testing.assert_allclose(res.params, [0.8, 1.2e-6], rtol=1e-8)


def test_levmar_kink_reads_as_converged():
    # a kink defeats the quadratic model: every damped step is rejected and
    # the trial step shrinks below xtol. That is the attainable minimum and
    # must be reported as convergence, not as a damping failure.
    def fun(p):
        return np.array([abs(p[0] - 0.3) + 1.0, 1.0])

    def jac(p):
        return np.array([[np.sign(p[0] - 0.3)], [0.0]])

    res = levmar(Residual(fun, jac), np.array([1.0]))
    assert res.converged
    assert res.params[0] == pytest.approx(0.3, abs=1e-9)


def test_levmar_noise_floor_reads_as_converged():
    # heavily noisy data stop the descent with the gradient still above
    # gtol; termination then comes from the step-size criterion
    rec = REFERENCE_LAYERS[6]
    n, l_mfp = rec.si("n_2d"), rec.si("l_mfp")
    l_phi = rec.si("l_phi")
    gam = gamma_param(rec.si("delta"), n, l_phi, l_mfp)
    B = np.linspace(-2.0, 2.0, 81)
    clean = wl_perp(np.abs(B), WlParams(l_phi, l_mfp)) - wl_inplane(
        B, InPlaneParams(gam)
    )
    for seed in range(8):
        rng = np.random.default_rng(seed)
        y = clean + 0.05 * np.abs(clean).max() * rng.standard_normal(B.size)
        f = fit_wl_difference(B, y, l_mfp, n)
        assert f.fit.converged
        assert f.l_phi.value == pytest.approx(l_phi, rel=0.15)


# ---------------------------------------------------------- WL difference fit

L07 = REFERENCE_LAYERS[6]


def difference_curve(rec, B):
    l_phi, l_mfp = rec.si("l_phi"), rec.si("l_mfp")
    gam = gamma_param(rec.si("delta"), rec.si("n_2d"), l_phi, l_mfp)
    return wl_perp(np.abs(B), WlParams(l_phi, l_mfp)) - wl_inplane(B, InPlaneParams(gam))


def test_wl_difference_noiseless_round_trip():
    B = np.linspace(-2.0, 2.0, 100)
    fit = fit_wl_difference(B, difference_curve(L07, B), L07.si("l_mfp"), L07.si("n_2d"))
    assert fit.fit.converged
    assert abs(fit.l_phi.value - L07.si("l_phi")) / L07.si("l_phi") < 1e-8
    assert abs(fit.delta.value - L07.si("delta")) / L07.si("delta") < 1e-8


def test_wl_difference_exposes_two_parameters():
    B = np.linspace(-2.0, 2.0, 50)
    fit = fit_wl_difference(B, difference_curve(L07, B), L07.si("l_mfp"), L07.si("n_2d"))
    assert fit.fit.params.size == 2
    assert fit.covariance.shape == (2, 2)


def test_wl_difference_folds_signed_fields():
    B = np.linspace(-2.0, 2.0, 60)
    y = difference_curve(L07, B)
    a = fit_wl_difference(B, y, L07.si("l_mfp"), L07.si("n_2d"))
    b = fit_wl_difference(np.abs(B), y, L07.si("l_mfp"), L07.si("n_2d"))
    assert a.l_phi.value == b.l_phi.value
    assert a.gamma.value == b.gamma.value


def test_wl_difference_point_order_irrelevant():
    rng = np.random.default_rng(5)
    B = np.linspace(-2.0, 2.0, 100)
    rec = REFERENCE_LAYERS[0]
    y = difference_curve(rec, B) * (1.0 + 0.01 * rng.standard_normal(B.size))
    perm = rng.permutation(B.size)
    a = fit_wl_difference(B, y, rec.si("l_mfp"), rec.si("n_2d"))
    b = fit_wl_difference(B[perm], y[perm], rec.si("l_mfp"), rec.si("n_2d"))
    assert a.l_phi.value == pytest.approx(b.l_phi.value, rel=1e-6)
    assert a.gamma.value == pytest.approx(b.gamma.value, rel=1e-4, abs=1e-12)


def test_wl_difference_point_count_guards():
    B = np.linspace(0.1, 2.0, 4)
    with pytest.raises(ValueError, match="at least 5"):
        fit_wl_difference(B, np.zeros(4), 3e-9, 2e17)
    B = np.linspace(0.1, 2.0, 7)
    with pytest.warns(UserWarning, match="fewer than 10"):
        fit_wl_difference(B, difference_curve(L07, B), L07.si("l_mfp"), L07.si("n_2d"))
    # an R_xx of 0 on the Hall sweep once reached the fit as l_mfp = inf
    B = np.linspace(-2.0, 2.0, 40)
    for l_mfp, n_2d in [
        (0.0, 2e17), (math.inf, 2e17), (-3e-9, 2e17), (math.nan, 2e17), (3e-9, 0.0), (3e-9, math.inf)
    ]:
        with pytest.raises(ValueError, match="must be finite and > 0"):
            fit_wl_difference(B, difference_curve(L07, B), l_mfp, n_2d)


def test_wl_difference_rejects_nonfinite_input():
    # a NaN in d_sigma once failed inside levmar, as if the iteration were at fault
    B = np.linspace(-2.0, 2.0, 40)
    for bad in (math.nan, math.inf):
        for name in ("B", "d_sigma"):
            args = {"B": B.copy(), "d_sigma": difference_curve(L07, B)}
            args[name][7] = bad
            with pytest.raises(ValueError, match=f"^{name} contains non-finite values"):
                fit_wl_difference(args["B"], args["d_sigma"], L07.si("l_mfp"), L07.si("n_2d"))


def test_wl_difference_thin_layer_limit():
    # data with no in-plane orbital signal: thickness comes back as zero
    B = np.linspace(-2.0, 2.0, 80)
    rec = REFERENCE_LAYERS[0]
    y = wl_perp(np.abs(B), WlParams(rec.si("l_phi"), rec.si("l_mfp")))
    fit = fit_wl_difference(B, y, rec.si("l_mfp"), rec.si("n_2d"))
    assert abs(fit.l_phi.value - rec.si("l_phi")) / rec.si("l_phi") < 1e-8
    assert fit.delta.value < 1e-12


def test_wl_difference_reported_errors_match_scatter():
    # multiplicative noise: reported standard errors should track the
    # Monte-Carlo scatter, not just assume uniform weights
    rec = REFERENCE_LAYERS[0]
    B = np.linspace(-2.0, 2.0, 100)
    clean = difference_curve(rec, B)
    vals, errs = [], []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        f = fit_wl_difference(
            B, clean * (1.0 + 0.01 * rng.standard_normal(B.size)), rec.si("l_mfp"), rec.si("n_2d")
        )
        vals.append([f.l_phi.value, f.gamma.value])
        errs.append([f.l_phi.stderr, f.gamma.stderr])
    vals, errs = np.array(vals), np.array(errs)
    ratio = vals.std(axis=0, ddof=1) / errs.mean(axis=0)
    assert np.all(ratio > 0.6) and np.all(ratio < 1.5)


def central_differences(fun, p, steps):
    """Central-difference Jacobian of ``fun`` at ``p``, one column per step."""
    columns = []
    for i, h in enumerate(steps):
        dp = np.zeros_like(p)
        dp[i] = h
        columns.append((fun(p + dp) - fun(p - dp)) / (2.0 * h))
    return np.column_stack(columns)


def test_wl_jacobian_matches_differences(monkeypatch):
    import deltamag.fit

    problems = []

    def capture(residual, init, bounds=None, **kwargs):
        problems.append((residual, bounds))
        return levmar(residual, init, bounds, **kwargs)

    monkeypatch.setattr(deltamag.fit, "levmar", capture)
    B = np.linspace(-2.0, 2.0, 101)  # contains B = 0
    fit_wl_difference(B, difference_curve(L07, B), L07.si("l_mfp"), L07.si("n_2d"))
    ((residual, (lo, hi)),) = problems
    # a point inside the box and one on the l_phi lower bound (l_phi = l)
    for p in (np.array([L07.si("l_phi"), 2e-3]), np.array([lo[0], 1e-4])):
        J = residual.jacobian(p)
        fd = central_differences(residual.evaluate, p, 1e-4 * p)
        assert np.all(J[B == 0.0] == 0.0)
        col = np.abs(fd).max(axis=0)
        np.testing.assert_allclose(J / col, fd / col, rtol=0, atol=1e-7)


# ------------------------------------------------------- power law and slope

def test_power_law_exact():
    T = np.array([0.3, 0.5, 0.8, 1.2, 2.0])
    lp = 35.5e-9 * T**-0.31
    fit = fit_coherence_power_law(T, lp)
    assert fit.exponent.value == pytest.approx(-0.31, abs=1e-12)
    assert fit.amplitude.value == pytest.approx(35.5e-9, rel=1e-12)


@pytest.mark.parametrize("n_temps", [3, 4, 8])
def test_power_law_is_the_closed_form_line_fit(n_temps):
    # the least-squares line through (ln T, ln l_phi) and its chi-square stderrs
    rng = np.random.default_rng(n_temps)
    T = np.geomspace(0.3, 4.0, n_temps)
    lp = 35.5e-9 * T**-0.31 * (1.0 + 0.05 * rng.standard_normal(n_temps))
    fit = fit_coherence_power_law(T, lp)
    x, y = np.log(T), np.log(lp)
    dx = x - x.mean()
    sxx = dx @ dx
    slope = dx @ y / sxx
    intercept = y.mean() - slope * x.mean()
    resid = y - (slope * x + intercept)
    s2 = resid @ resid / max(n_temps - 2, 1)
    amp = math.exp(intercept)
    assert fit.exponent.value == pytest.approx(slope, rel=1e-12)
    assert fit.exponent.stderr == pytest.approx(math.sqrt(s2 / sxx), rel=1e-12)
    assert fit.amplitude.value == pytest.approx(amp, rel=1e-12)
    se_ln_amp = math.sqrt(s2 * (1.0 / n_temps + x.mean() ** 2 / sxx))
    assert fit.amplitude.stderr == pytest.approx(amp * se_ln_amp, rel=1e-12)
    assert fit.fit.converged


def test_power_law_validation():
    with pytest.raises(ValueError, match="at least 3"):
        fit_coherence_power_law(np.array([0.3, 0.5]), np.array([1e-9, 1e-9]))
    with pytest.raises(ValueError, match="positive"):
        fit_coherence_power_law(np.array([0.3, -0.5, 1.0]), np.full(3, 1e-9))
    with pytest.raises(ValueError, match="positive"):
        fit_coherence_power_law(np.array([0.3, 0.5, 1.0]), np.array([1e-9, 0.0, 1e-9]))
    with pytest.raises(ValueError, match="identical"):
        fit_coherence_power_law(np.full(3, 0.5), np.array([1e-9, 2e-9, 3e-9]))


@pytest.mark.parametrize(
    "T, l_phi, name",
    [
        ([0.4, math.nan, 1.0], [3e-8, 2e-8, 1e-8], "T"),
        ([0.4, math.inf, 1.0], [3e-8, 2e-8, 1e-8], "T"),
        ([0.4, 0.7, 1.0], [3e-8, math.nan, 1e-8], "l_phi"),
        ([0.4, 0.7, 1.0], [3e-8, 2e-8, math.inf], "l_phi"),
    ],
    ids=["nan-T", "inf-T", "nan-l_phi", "inf-l_phi"],
)
def test_power_law_rejects_nonfinite_input(T, l_phi, name):
    # the T <= 0 and l_phi <= 0 guards are False for NaN, which once gave a NaN fit
    with pytest.raises(ValueError, match=f"^{name} contains non-finite values$"):
        fit_coherence_power_law(np.array(T), np.array(l_phi))


# ------------------------------------------------------------ pinned WL path

WL_REFERENCE_FITS_SHA256 = "3b8fe057cb81ae6a463d8fff35338d0718883de7bfe44861646d2a558d005905"


def test_wl_fits_of_the_reference_layers_are_pinned():
    """The ten reference layers at 1% noise, fitted, hash to a fixed digest.

    The digest covers every fit output at full precision, so a change that
    claims to leave the WL path's results alone is checked bit for bit. A
    change that alters them must update the digest and say why.
    """
    B = np.linspace(-2.0, 2.0, 100)
    digest = hashlib.sha256()
    for row, rec in enumerate(REFERENCE_LAYERS):
        rng = np.random.default_rng((2024, row))
        y = difference_curve(rec, B) * (1.0 + 0.01 * rng.standard_normal(B.size))
        f = fit_wl_difference(B, y, rec.si("l_mfp"), rec.si("n_2d"))
        assert f.fit.converged
        for a in (f.fit.params, f.covariance, f.fit.covariance, np.array(f.delta)):
            digest.update(np.ascontiguousarray(a, dtype=float).tobytes())
        digest.update(f"{f.fit.residual_norm.hex()} {f.fit.iterations} {f.fit.nfev} {f.fit.reason};".encode())
    assert digest.hexdigest() == WL_REFERENCE_FITS_SHA256


# ------------------------------------------------------- pinned levmar paths

def levmar_path_problems():
    """(name, residual, init, bounds, options) reaching every branch of ``levmar``.

    Between them: undamped and damped solves, rejected steps, a singular
    normal matrix with and without the damping floor, box-clipped steps and frozen coordinates on either bound,
    and each stop reason, ``ftol`` and ``xtol`` at both of their tests.
    """
    inf = math.inf
    x = np.linspace(0.0, 5.0, 40)
    y = 2.0 + 3.0 * x + 0.3 * np.random.default_rng(42).standard_normal(x.size)
    twin = np.column_stack([np.ones_like(x), np.ones_like(x), x])  # singular J'J
    # residuals that jump on leaving the start: every trial step is rejected
    jump0 = Residual(lambda p: np.array([1.0 if p[0] == 0.0 else 2.0]), lambda p: np.ones((1, 1)))
    jump1 = Residual(lambda p: np.array([1.0 if p[0] == 1.0 else 2.0]), lambda p: np.ones((1, 1)))
    # p[1] does not enter: only the damping floor makes the normal matrix regular
    zero_column = Residual(
        lambda p: np.array([p[0] - 1.0, 2.0 * p[0] + 1.0]), lambda p: np.array([[1.0, 0.0], [2.0, 0.0]])
    )
    # an exact Gauss-Newton step whose predicted gain is below 1e-10 of the cost
    flat = Residual(lambda p: np.array([p[0] - 1.0, 1e6]), lambda p: np.array([[1.0], [0.0]]))
    kink = Residual(
        lambda p: np.array([abs(p[0] - 0.3) + 1.0, 1.0]),
        lambda p: np.array([[np.sign(p[0] - 0.3)], [0.0]]),
    )
    return [
        ("rosenbrock", ROSENBROCK, [-1.2, 1.0], None, {}),
        ("rosenbrock-upper", ROSENBROCK, [-1.2, 1.0], ([-inf, -inf], [0.5, inf]), {}),
        ("rosenbrock-lower", ROSENBROCK, [-1.2, 1.0], ([-inf, 1.0], [inf, inf]), {}),
        ("rosenbrock-cap", ROSENBROCK, [-1.2, 1.0], None, {"max_iter": 3}),
        ("decay", decay_residual(), [1.0, 0.5], None, {}),
        ("decay-box", decay_residual(), [1.0, 0.5], ([0.0, 0.0], [1.5, 1.0]), {"x_scale": [1.0, 0.1]}),
        ("linear", linear_problem(), [0.5, 0.0], None, {}),
        ("linear-gtol0", linear_problem(), [0.5, 0.0], None, {"gtol": 0.0}),
        ("singular", Residual(lambda p: twin @ p - y, lambda p: twin), [0.5, 0.5, 0.0], None, {}),
        ("zero-column", zero_column, [3.0, 1.0], None, {}),
        ("kink", kink, [1.0], None, {}),
        ("flat", flat, [1.0 + 2.0**-20], None, {"gtol": 0.0}),
        ("jump-damping", jump0, [0.0], None, {"xtol": 0.0}),
        ("jump-no-step", jump1, [1.0], None, {"xtol": 0.0}),
    ]


LEVMAR_PATHS_SHA256 = "f09249ebb7057d34e8359e892a153bc37c8185564267ba713e9b2433c03f7e1e"


def test_levmar_paths_are_pinned():
    """Every ``levmar`` branch, run on small problems, hashes to a fixed digest.

    The digest covers params, iterations, nfev, reason, bounds_active, the
    Jacobian and the residual at full precision, so a change that claims to
    leave the optimizer's arithmetic alone is checked bit for bit.
    """
    digest = hashlib.sha256()
    reasons = set()
    for name, residual, init, bounds, options in levmar_path_problems():
        res = levmar(residual, np.array(init), bounds, **options)
        reasons.add(res.reason)
        for a in (res.params, res.bounds_active, res.jacobian, res.residual):
            digest.update(np.ascontiguousarray(a).tobytes())
        digest.update(f"{name} {res.residual_norm.hex()} {res.iterations} {res.nfev} {res.reason};".encode())
    assert reasons == {"gtol", "ftol", "xtol", "max_iter", "damping"}
    assert digest.hexdigest() == LEVMAR_PATHS_SHA256
