"""Reference characteristics of ten delta-doped electron layers.

Measured Hall parameters and the derived quantities for the Si:P and Si:As
layers used throughout tests and demos: sheet density, mobility, sheet
conductivity, mean free path, coherence length, layer thickness and k_F l,
each with its quoted one-sigma uncertainty. Values are stored in the
practical units of the lab records; ``si()`` hands back base SI numbers.

The rows are ordered by decreasing density; the first and last rows bracket
the interaction range r_s = 1.4 to 5.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .constants import E_CHARGE, Quantity, to_si
from .hall import KAPPA_DEFAULT, SamplePhysics, characterize

Value = Tuple[float, float]  # (value, one-sigma error)
# column -> unit tag of the lab records
_UNITS = {"n_2d": "1e13 cm^-2", "mu": "cm^2/Vs", "sigma_xx": "1e-4 S/sq", "l_mfp": "nm",
          "l_phi": "nm", "delta": "nm", "kf_l": "1"}


@dataclass(frozen=True)
class LayerRecord:
    """One electron layer.

    Units: n_2d in 1e13 cm^-2, mu in cm^2/(V s), sigma_xx in 1e-4 S per
    square, lengths (l_mfp, l_phi, delta, depth) in nm.
    """

    label: str
    dopant: str
    depth_nm: float
    anneal_C: float
    n_2d: Value
    mu: Value
    sigma_xx: Value
    l_mfp: Value
    l_phi: Value
    delta: Value
    kf_l: Value

    def si(self, name: str) -> float:
        """Central value of a column in base SI units."""
        return to_si(Quantity(getattr(self, name)[0], _UNITS[name])).value

    def physics(self, kappa: float = KAPPA_DEFAULT) -> SamplePhysics:
        """SamplePhysics derived from the density and mobility columns."""
        n = self.si("n_2d")
        mu = self.si("mu")
        return characterize(n, n * mu * E_CHARGE, kappa)


REFERENCE_LAYERS = (
    LayerRecord("L01", "P", 15, 500, (18.73, 0.06), (51.8, 0.2), (15.6, 0.5),
                (11.7, 0.04), (86, 6), (10, 1), (40.1, 0.2)),
    LayerRecord("L02", "As", 30, 500, (12.23, 0.08), (27.3, 0.2), (5.4, 0.2),
                (4.98, 0.04), (75, 1), (1.46, 0.08), (13.8, 0.1)),
    LayerRecord("L03", "As", 21, 380, (10.18, 0.09), (22.4, 0.2), (3.6, 0.1),
                (3.72, 0.04), (57.6, 0.3), (1.26, 0.03), (9.4, 0.1)),
    LayerRecord("L04", "As", 21, 250, (9.15, 0.09), (15.4, 0.2), (2.25, 0.07),
                (2.42, 0.03), (41.9, 0.2), (0.41, 0.04), (5.80, 0.09)),
    LayerRecord("L05", "As", 30, 500, (8.47, 0.03), (34.4, 0.1), (4.7, 0.1),
                (5.23, 0.02), (77.4, 0.5), (1.04, 0.04), (12.07, 0.06)),
    LayerRecord("L06", "As", 20, 500, (2.82, 0.05), (42.4, 0.9), (1.92, 0.06),
                (3.72, 0.09), (27.5, 0.3), (1.82, 0.07), (4.9, 0.1)),
    LayerRecord("L07", "As", 30, 500, (2.14, 0.02), (38.9, 0.3), (1.33, 0.04),
                (2.97, 0.02), (35.5, 0.2), (0.42, 0.06), (3.44, 0.04)),
    LayerRecord("L08", "As", 30, 500, (1.70, 0.04), (44.5, 0.1), (1.21, 0.04),
                (3.03, 0.07), (23.2, 0.2), (0.88, 0.06), (3.1, 0.1)),
    LayerRecord("L09", "P", 15, 500, (1.61, 0.02), (34.5, 0.5), (0.89, 0.03),
                (2.29, 0.04), (20.5, 0.5), (1.3, 0.1), (2.30, 0.05)),
    LayerRecord("L10", "As", 30, 500, (1.18, 0.01), (35.6, 0.3), (0.67, 0.02),
                (2.01, 0.02), (22.4, 0.2), (0.65, 0.05), (1.73, 0.02)),
)
