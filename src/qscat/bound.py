"""Rigorous transfer-matrix lower bound on transmission.

T >= sech^2( (1/2) * integral |k0 - k^2(x)/k0| dx ) over the whole line; k0
is the asymptotic wavenumber.  Since k0^2 - k^2(x) = 2m (V(x) - V_inf)/hbar^2,
the exponent is (m/(hbar^2 k0)) times the area A = integral |V(x) - V_inf| dx,
which does not depend on the energy.  ``bound_for_potential`` uses the exact
area of each family (``p.bound_area()``); ``transmission_bound`` integrates |V - V_inf| of an
arbitrary potential callable over a given window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import PhysicsContext
from .errors import InvalidInputError
from .wkb import DEFAULT_QUADRATURE, QuadratureControl, _integrate_gauss_legendre, _on_array


@dataclass(frozen=True)
class BoundResult:
    """lower_bound = sech^2(integral_value); integral_value is dimensionless."""

    lower_bound: float
    integral_value: float


def _sech_sq(x: float) -> float:
    # 4 e^{-2x} / (1 + e^{-2x})^2: no cosh to overflow for a large exponent
    t = math.exp(-2.0 * abs(x))
    return 4.0 * t / (1.0 + t) ** 2


def transmission_bound(
    potential: Callable[[float], float],
    energy: float,
    window: tuple[float, float],
    ctx: PhysicsContext,
    ctrl: QuadratureControl = DEFAULT_QUADRATURE,
    v_asymptotic: float = 0.0,
) -> BoundResult:
    """Numeric-quadrature form of the sech^2 lower bound.

    The integral runs on the Gauss-Legendre rule of ``wkb``, with the scalar
    callable applied node by node.

    ``v_asymptotic`` is the constant potential value outside the window, from
    which k0 is built; the energy must propagate there (E > v_asymptotic).
    k^2(x) may go negative inside the window (tunneling); the absolute value
    in the integrand handles it, though the bound is only asserted against
    exact results in the propagating regime.
    """
    if not energy > v_asymptotic:
        raise InvalidInputError(
            f"asymptotic channel is evanescent: energy {energy!r} <= V_inf {v_asymptotic!r}"
        )
    x1, x2 = window
    if not x1 < x2:
        raise InvalidInputError(f"bad window {window!r}")
    two_m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2
    k0 = math.sqrt(two_m_over_h2 * (energy - v_asymptotic))

    v = _on_array(potential)

    def integrand(x: np.ndarray) -> np.ndarray:
        return two_m_over_h2 * np.abs(v(x) - v_asymptotic) / k0

    integral = 0.5 * _integrate_gauss_legendre(integrand, x1, x2, ctrl)
    return BoundResult(lower_bound=_sech_sq(integral), integral_value=integral)


def bound_for_potential(p, energy: float, ctx: PhysicsContext) -> BoundResult:
    """sech^2 bound from the exact area of |V - V_inf| of the potential family ``p``.

    The delta potential is excluded (no quadrature over a distribution), and
    so is the Eckart profile with unequal asymptotes: the bound as stated
    assumes one asymptotic k0 on both sides.
    """
    area = p.bound_area()
    v_inf = p.asymptotes()[1]
    if not energy > v_inf:
        raise InvalidInputError(
            f"asymptotic channel is evanescent: energy {energy!r} <= V_inf {v_inf!r}"
        )
    k0 = math.sqrt(2.0 * ctx.mass / ctx.hbar**2 * (energy - v_inf))
    integral = ctx.mass / ctx.hbar**2 * area / k0
    return BoundResult(lower_bound=_sech_sq(integral), integral_value=integral)
