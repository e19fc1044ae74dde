"""Rigorous transfer-matrix lower bound on transmission.

T >= sech^2( (1/2) * integral |k0 - k^2(x)/k0| dx ) over the whole line; k0
is the asymptotic wavenumber.  Since k0^2 - k^2(x) = 2m (V(x) - V_inf)/hbar^2,
the exponent is (m/(hbar^2 k0)) times the area A = integral |V(x) - V_inf| dx,
which does not depend on the energy.  ``bound_integrals`` forms the exponent from
the exact area of each family (``p.bound_area()``) at an array of energies, and
the family's ``bound`` takes sech^2 of it with ``_sech_sq``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import PhysicsContext, first_errors
from .errors import InvalidInputError, QscatError


def _sech_sq(x: np.ndarray) -> np.ndarray:
    # 4 e^{-2x} / (1 + e^{-2x})^2 at each element: no cosh to overflow for a large exponent
    t = np.exp(-2.0 * np.abs(x))
    return 4.0 * t / np.square(1.0 + t)


def bound_integrals(p, energies, ctx: PhysicsContext) -> tuple[np.ndarray, list]:
    """The sech^2 exponent (m/(hbar^2 k0)) A at each energy, from the exact area A of
    |V - V_inf| of the family ``p``, and per energy None or its error.  The delta
    potential is excluded (no quadrature over a distribution), and so is the Eckart
    profile with unequal asymptotes: the bound assumes one k0 on both sides."""
    e = np.asarray(energies, dtype=float)
    try:
        area, v_inf = p.bound_area(), p.asymptotes()[1]
        two_m_over_h2, m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2, ctx.mass / ctx.hbar**2
    except (QscatError, ArithmeticError) as exc:
        error = exc if isinstance(exc, QscatError) else InvalidInputError(f"hbar^2 out of range: {exc}")
        return np.full(e.size, math.nan), [error] * e.size
    with np.errstate(all="ignore"):
        k0 = np.sqrt(two_m_over_h2 * (e - v_inf))
        integral = m_over_h2 * area / k0
    return integral, first_errors(e.tolist(), [
        (~(e > v_inf), InvalidInputError,
         f"asymptotic channel is evanescent: energy {{!r}} <= V_inf {v_inf!r}"),
        (k0 == 0.0, InvalidInputError, "k0 underflows to zero at energy {!r}"),
    ])
