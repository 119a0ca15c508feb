"""Digamma and trigamma functions.

The weak-localization lineshape needs psi(1/2 + x) for x from ~1e-9 up to
~1e8, and its Jacobian the trigamma psi1 at the same points, so both must
be accurate over a wide range and cheap to evaluate on arrays. Every
argument is lifted by ten steps of the recurrences

    psi(x) = psi(x + 10) - sum_{k<10} 1/(x + k)
    psi1(x) = psi1(x + 10) + sum_{k<10} 1/(x + k)^2,

which put any x > 0 above 10, where the asymptotic series

    psi(x) ~ ln x - 1/(2x) - sum_n B_2n / (2n x^2n)
    psi1(x) ~ 1/x + 1/(2x^2) + sum_n B_2n / x^(2n+1)

are summed. Six Bernoulli terms keep the truncation error below 1e-14 there
(the first neglected terms are B_14/(14 x^14) ~ 9e-15 and B_14/x^15 ~ 1.2e-15
at x = 10).
"""

from __future__ import annotations

import numpy as np

_LIFT = np.arange(10.0)

# B_2n/(2n) for 2n = 2, 4, ..., 12, as coefficients of z = 1/x^2
_TAIL_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)


def _lift(x, name):
    """x as an array, x + k for k < 10 (one row per point), and x + 10."""
    arr = np.asarray(x, dtype=float)
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0.0)):
        raise ValueError(f"{name} requires finite x > 0")
    steps = np.atleast_1d(arr).reshape(-1, 1) + _LIFT
    return arr, steps, steps[:, -1] + 1.0


def digamma(x):
    """Digamma (psi) function for positive real arguments.

    Parameters
    ----------
    x : float or array_like
        Argument(s), must be finite and > 0.

    Returns
    -------
    float or ndarray
        psi(x), matching the input shape. Scalar in, scalar out.
    """
    arr, steps, w = _lift(x, "digamma")
    z = 1.0 / (w * w)
    tail = 0.0
    for c in reversed(_TAIL_COEFFS):
        tail = (tail + c) * z
    result = np.log(w) - 0.5 / w - tail - (1.0 / steps).sum(axis=1)
    return float(result[0]) if arr.ndim == 0 else result.reshape(arr.shape)


def trigamma(x):
    """Trigamma psi1 = d psi/dx; arguments, shapes and errors as for ``digamma``."""
    arr, steps, w = _lift(x, "trigamma")
    z = 1.0 / (w * w)
    tail = 0.0
    for n in range(len(_TAIL_COEFFS), 0, -1):  # B_2n = 2n * _TAIL_COEFFS[n - 1]
        tail = (tail + 2 * n * _TAIL_COEFFS[n - 1]) * z
    result = (1.0 + 0.5 / w + tail) / w + (1.0 / (steps * steps)).sum(axis=1)
    return float(result[0]) if arr.ndim == 0 else result.reshape(arr.shape)
