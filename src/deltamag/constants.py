"""Physical constants and unit conversion.

All model code works in base SI units. Practical units used in data files
and tables (cm^-2, cm^2/Vs, nm, um, and the lab records' 1e13 cm^-2 and
1e-4 S/sq) are converted at the I/O boundary only, so no scale factors
appear inside the physics.

Values are CODATA 2018; e, h and k_B are exact by definition since the 2019
SI redefinition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

E_CHARGE = 1.602176634e-19  # elementary charge, C
H_PLANCK = 6.62607015e-34   # Planck constant, J s
HBAR = H_PLANCK / (2.0 * math.pi)  # reduced Planck constant, J s
K_B = 1.380649e-23          # Boltzmann constant, J/K
MU_B = 9.2740100783e-24     # Bohr magneton, J/T
G0 = E_CHARGE**2 / H_PLANCK  # conductance quantum e^2/h, S


# unit tag -> (SI unit tag, multiplicative factor to SI)
_UNIT_TO_SI = {
    "m": ("m", 1.0),
    "nm": ("m", 1e-9),
    "um": ("m", 1e-6),
    "T": ("T", 1.0),
    "K": ("K", 1.0),
    "S/sq": ("S/sq", 1.0),
    "1e-4 S/sq": ("S/sq", 1e-4),
    "m^-2": ("m^-2", 1.0),
    "cm^-2": ("m^-2", 1e4),
    "1e13 cm^-2": ("m^-2", 1e17),
    "m^2/Vs": ("m^2/Vs", 1.0),
    "cm^2/Vs": ("m^2/Vs", 1e-4),
    "m^-1": ("m^-1", 1.0),
    "nm^-1": ("m^-1", 1e9),
    "1": ("1", 1.0),  # dimensionless
}


@dataclass(frozen=True)
class Quantity:
    """A value tagged with a unit string, e.g. ``Quantity(1.18e13, "cm^-2")``."""

    value: float
    unit: str

    def __post_init__(self):
        if self.unit not in _UNIT_TO_SI:
            raise ValueError(f"unknown unit {self.unit!r}")


def to_si(q: Quantity) -> Quantity:
    """Convert a quantity to base SI units.

    All supported conversions are powers of ten, so ``from_si(to_si(q), q.unit)``
    round-trips to within one ulp.
    """
    si_unit, factor = _UNIT_TO_SI[q.unit]
    return Quantity(q.value * factor, si_unit)


def from_si(q: Quantity, unit: str) -> Quantity:
    """Express an SI quantity in the requested practical unit."""
    si_unit, factor = _UNIT_TO_SI[unit]
    if q.unit != si_unit:
        raise ValueError(f"cannot express {q.unit!r} as {unit!r}")
    return Quantity(q.value / factor, unit)


def _number(key: str, value) -> float:
    """A finite JSON number as float; anything else raises ValueError naming the key."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"config key {key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"config key {key!r} is out of range") from None
    if not math.isfinite(number):
        raise ValueError(f"config key {key!r} must be finite, got {value!r}")
    return number


def _pair(key: str, value) -> Tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"config key {key!r} must be a list of 2 numbers, got {value!r}")
    return _number(key, value[0]), _number(key, value[1])
