import math

import pytest
from hypothesis import given, strategies as st

from deltamag.constants import (
    E_CHARGE,
    G0,
    H_PLANCK,
    HBAR,
    K_B,
    MU_B,
    Quantity,
    from_si,
    to_si,
)


def test_si_defining_constants_exact():
    # e, h and k_B are exact by definition since 2019
    assert E_CHARGE == 1.602176634e-19
    assert H_PLANCK == 6.62607015e-34
    assert K_B == 1.380649e-23
    assert MU_B == 9.2740100783e-24
    assert HBAR == H_PLANCK / (2.0 * math.pi)


def test_conductance_quantum():
    assert G0 == E_CHARGE**2 / H_PLANCK
    assert G0 == pytest.approx(3.874045865e-5, rel=1e-9)


def test_unit_conversions():
    assert to_si(Quantity(86.0, "nm")).value == pytest.approx(86e-9, rel=1e-15)
    assert to_si(Quantity(86.0, "nm")).unit == "m"
    assert to_si(Quantity(1.18e13, "cm^-2")).value == pytest.approx(1.18e17, rel=1e-15)
    assert to_si(Quantity(35.6, "cm^2/Vs")).value == pytest.approx(35.6e-4, rel=1e-15)
    assert to_si(Quantity(3.37, "nm^-1")).value == pytest.approx(3.37e9, rel=1e-15)
    assert to_si(Quantity(200.0, "um")).value == pytest.approx(200e-6, rel=1e-15)
    # the lab-record units, each one multiplication by its factor
    for value, unit, si_unit, factor in (
        (18.73, "1e13 cm^-2", "m^-2", 1e17), (15.6, "1e-4 S/sq", "S/sq", 1e-4), (40.1, "1", "1", 1.0)
    ):
        assert to_si(Quantity(value, unit)) == Quantity(value * factor, si_unit)


def test_unknown_unit_rejected():
    with pytest.raises(ValueError, match="unknown unit"):
        Quantity(1.0, "furlong")


def test_from_si_requires_matching_dimension():
    q = to_si(Quantity(5.0, "nm"))
    with pytest.raises(ValueError, match="cannot express"):
        from_si(q, "cm^-2")


@given(
    st.floats(min_value=1e-6, max_value=1e6),
    st.sampled_from(["nm", "um", "cm^-2", "cm^2/Vs", "nm^-1", "m", "K", "T"]),
)
def test_conversion_round_trip(value, unit):
    back = from_si(to_si(Quantity(value, unit)), unit)
    assert back.unit == unit
    assert math.isclose(back.value, value, rel_tol=1e-14)
