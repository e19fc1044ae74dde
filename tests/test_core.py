import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import Probabilities, probabilities_from_amplitudes, unitarity_defect
from one_point import Amplitudes
from qscat import PhysicsContext
from qscat.errors import InvalidInputError


def _amps(t, r):
    return Amplitudes(t=t, r=r)


def test_free_propagation():
    p = probabilities_from_amplitudes(_amps(1 + 0j, 0j))
    assert p.transmission == 1.0
    assert p.reflection == 0.0


def test_total_reflection():
    p = probabilities_from_amplitudes(_amps(0j, 1j))
    assert p.transmission == 0.0
    assert p.reflection == 1.0


def test_half_half():
    p = probabilities_from_amplitudes(_amps((1 - 1j) / 2, (1 + 1j) / 2))
    assert p.transmission == pytest.approx(0.5, abs=1e-15)
    assert p.reflection == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("bad", [complex("inf"), complex("nan"), complex(0, float("inf"))])
def test_nonfinite_amplitudes_rejected(bad):
    with pytest.raises(InvalidInputError):
        probabilities_from_amplitudes(_amps(bad, 0j))
    with pytest.raises(InvalidInputError):
        probabilities_from_amplitudes(_amps(0j, bad))


@pytest.mark.parametrize(
    "t, r, expected",
    [(0.5, 0.5, 0.0), (1.0, 0.0, 0.0), (0.3, 0.6, 0.1)],
)
def test_unitarity_defect_values(t, r, expected):
    assert unitarity_defect(Probabilities(t, r)) == pytest.approx(expected, abs=1e-15)


@given(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.floats(min_value=-math.pi, max_value=math.pi),
)
def test_phase_invariance(t, r, theta):
    phase = cmath.exp(1j * theta)
    base = probabilities_from_amplitudes(_amps(t, r))
    rotated = probabilities_from_amplitudes(_amps(t * phase, r * phase))
    assert rotated.transmission == pytest.approx(base.transmission, rel=1e-12, abs=1e-12)
    assert rotated.reflection == pytest.approx(base.reflection, rel=1e-12, abs=1e-12)


@given(st.floats(0, 1), st.floats(0, 1))
def test_defect_is_absolute_deviation(t, r):
    assert unitarity_defect(Probabilities(t, r)) == abs(t + r - 1.0)


def test_context_defaults_natural_units():
    ctx = PhysicsContext()
    assert ctx.hbar == 1.0 and ctx.mass == 1.0


@pytest.mark.parametrize("hbar, mass", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
def test_context_validation(hbar, mass):
    with pytest.raises(InvalidInputError):
        PhysicsContext(hbar=hbar, mass=mass)
