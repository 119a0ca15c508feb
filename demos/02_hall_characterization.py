"""Carrier density from a synthetic Hall sweep, then the derived-table check.

The second half recomputes sigma_xx, l and kF*l for all ten reference layers
from their (n, mu) columns alone and prints them against the quoted values.
"""

import numpy as np

from deltamag import REFERENCE_LAYERS, density_from_hall
from deltamag.constants import E_CHARGE

# a 50-point Hall trace with 1% gain noise on the pickup
rec = REFERENCE_LAYERS[9]
n_true = rec.si("n_2d")
B = np.linspace(-2.0, 2.0, 50)
rng = np.random.default_rng(0)
R_xy = B / (n_true * E_CHARGE) * (1.0 + 0.01 * rng.standard_normal(B.size))
n = density_from_hall(B, R_xy)
print(f"layer {rec.label}: n = ({n.value:.3e} +- {n.stderr:.1e}) m^-2")
print(f"truth            {n_true:.3e} m^-2, off by {abs(n.value / n_true - 1):.2%}")
print()

print("derived from (n, mu) alone          quoted")
print(f"{'layer':>5} {'sigma':>7} {'l (nm)':>7} {'kF*l':>6}   {'sigma':>7} {'l (nm)':>7} {'kF*l':>6}")
for rec in REFERENCE_LAYERS:
    sp = rec.physics()
    print(
        f"{rec.label:>5} {sp.sigma_xx / 1e-4:7.2f} {sp.l_mfp * 1e9:7.2f} "
        f"{sp.kf_l:6.2f}   {rec.sigma_xx[0]:7.2f} {rec.l_mfp[0]:7.2f} {rec.kf_l[0]:6.2f}"
    )
print("(sigma in 1e-4 S per square; r_s runs from "
      f"{REFERENCE_LAYERS[0].physics().r_s:.2f} to {REFERENCE_LAYERS[9].physics().r_s:.2f})")
