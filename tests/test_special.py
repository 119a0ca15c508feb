import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, strategies as st

from deltamag.special import digamma, trigamma

EULER_GAMMA = 0.5772156649015329


def test_known_values():
    assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)
    assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)
    assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)
    assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert trigamma(0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)


def test_matches_reference_over_working_range():
    # the WL lineshape evaluates psi(1/2 + x) for x from ~1e-9 to ~1e8
    # and its Jacobian psi1 at the same points
    x = np.geomspace(1e-9, 1e8, 4001) + 0.5
    err = np.abs(digamma(x) - scipy.special.digamma(x))
    assert err.max() < 1e-13
    ref = scipy.special.polygamma(1, x)
    assert np.max(np.abs(trigamma(x) - ref) / ref) < 1e-14


def test_scalar_and_array_shapes():
    grid = [[1.0, 2.0], [3.0, 4.0]]
    pairs = ((digamma, scipy.special.digamma), (trigamma, lambda x: scipy.special.polygamma(1, x)))
    for fun, ref in pairs:
        assert isinstance(fun(3.0), float)
        out = fun(np.array(grid))
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, ref(grid))


def test_rejects_nonpositive_and_nonfinite():
    for fun in (digamma, trigamma):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite x > 0"):
                fun(bad)
        with pytest.raises(ValueError):
            fun(np.array([1.0, -2.0]))


@given(st.floats(min_value=1e-2, max_value=1e3))
def test_recurrence_identity(x):
    # psi(x + 1) = psi(x) + 1/x and psi1(x) - psi1(x + 1) = 1/x^2
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) < 1e-10
    assert abs(trigamma(x) - trigamma(x + 1.0) - 1.0 / x**2) < 1e-14 * max(1.0, 1.0 / x**2)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_reflection_identity(x):
    # psi(1 - x) - psi(x) = pi cot(pi x)
    assert abs(digamma(1.0 - x) - digamma(x) - math.pi / math.tan(math.pi * x)) < 1e-10


@given(st.floats(min_value=0.05, max_value=500.0), st.floats(min_value=1e-3, max_value=10.0))
def test_monotone_increasing(x, step):
    assert digamma(x + step) > digamma(x)
