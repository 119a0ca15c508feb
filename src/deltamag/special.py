"""Digamma and trigamma functions.

The weak-localization lineshape needs psi(1/2 + x) for x from ~1e-9 up to
~1e8, and its Jacobian the trigamma psi1 at the same points, so both must
be accurate over a wide range and cheap to evaluate on arrays. Each works
element by element on any shape, and on one sweep's ~100 points a call costs
mostly fixed overhead, so the lineshape lifts its two arguments as one
(2, m) array. Arguments are real, finite and > 0; a complex one is rejected.
Every argument is lifted by ten steps of the recurrences

    psi(x) = psi(x + 10) - sum_{k<10} 1/(x + k)
    psi1(x) = psi1(x + 10) + sum_{k<10} 1/(x + k)^2,

which put any x above 10, where the asymptotic series

    psi(x) ~ ln x - 1/(2x) - sum_n B_2n / (2n x^2n)
    psi1(x) ~ 1/x + 1/(2x^2) + sum_n B_2n / x^(2n+1)

are summed. Six Bernoulli terms keep the truncation error below 1e-14 there
(the first neglected terms are B_14/(14 x^14) ~ 9e-15 and B_14/x^15 ~ 1.2e-15
at x = 10). The Zeeman crossover function ``models.g2`` needs psi, psi1 and
psi2 at complex z = 1 + ic; it sums the same lift and tails in real
arithmetic where it can, with ``_TAIL_COEFFS`` from here.
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
    if np.iscomplexobj(x):  # a float cast would drop the imaginary part
        raise ValueError(f"{name} requires real x; complex arguments are not supported")
    arr = np.asarray(x, dtype=float)
    # nan fails the comparison; isfinite catches inf
    if arr.size and not (arr.min() > 0.0 and np.isfinite(arr).all()):
        raise ValueError(f"{name} requires finite x > 0")
    steps = arr.reshape(-1, 1) + _LIFT
    return arr, steps, steps[:, -1] + 1.0


def digamma(x):
    """Digamma (psi) function for positive real arguments.

    Parameters
    ----------
    x : float or array_like
        Argument(s), real, finite and > 0.

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
    return result[0].item() if arr.ndim == 0 else result.reshape(arr.shape)


def trigamma(x):
    """Trigamma psi1 = d psi/dx; arguments, shapes and errors as for ``digamma``."""
    arr, steps, _ = _lift(x, "trigamma")
    result = _trigamma_lifted(steps)
    return result[0].item() if arr.ndim == 0 else result.reshape(arr.shape)


def _trigamma_lifted(steps):
    """psi1(x) from the lift rows ``steps`` = x + k, k < 10, of an x already checked."""
    w = steps[:, -1] + 1.0
    z = 1.0 / (w * w)
    tail = 0.0
    for n in range(len(_TAIL_COEFFS), 0, -1):  # B_2n = 2n * _TAIL_COEFFS[n - 1]
        tail = (tail + 2 * n * _TAIL_COEFFS[n - 1]) * z
    return (1.0 + 0.5 / w + tail) / w + (1.0 / (steps * steps)).sum(axis=1)
