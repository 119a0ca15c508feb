"""Effective-temperature collapse of the interaction magnetoconductance.

Six Zeeman curves are generated with electrons saturating at t_sat below
the bath, then fitted jointly by the Zeeman law -(G0/2pi) F g2(h) of
h = g mu_B B / (k_B T_eff). The recovered effective temperatures flatten
out where the bath keeps cooling. The crossover of g2 fixes the absolute
h scale, so F and every T_eff come out of the same fit with no pinned
temperature.
"""

import math

import numpy as np

from deltamag import AaCurve, AaParams, collapse_teff, dispersion, zeeman_aa

temps = np.array([0.04, 0.1, 0.2, 0.4, 0.7, 1.0])
t_sat = 0.25  # K
aa = AaParams(F=0.5)
B = np.linspace(0.02, 2.0, 120)
rng = np.random.default_rng(9)

curves = []
for T in temps:
    T_eff = math.hypot(T, t_sat)
    y = zeeman_aa(B, T_eff, aa)
    y = y + 0.002 * np.abs(y).max() * rng.standard_normal(B.size)
    curves.append(AaCurve(T_bath=T, B=B, delta_sigma=y))

before = dispersion(curves)
result = collapse_teff(curves)

print(f"dispersion at bath temperatures: {before:.3e}")
print(f"dispersion after collapse:       {result.dispersion:.3e}")
print()
print(f"{'T_bath (K)':>10} {'T_eff (K)':>20} {'generated':>10} {'error/stderr':>13}")
for T, te, se in zip(temps, result.t_eff, result.t_eff_stderr):
    true = math.hypot(T, t_sat)
    print(f"{T:10.2f} {te:10.4f} +- {se:.4f} {true:10.4f} {(te - true) / se:13.2f}")
print()
F = result.F
print(f"F = {F.value:.4f} +- {F.stderr:.4f}  (generated with 0.5; "
      f"error/stderr {(F.value - 0.5) / F.stderr:.2f})")
