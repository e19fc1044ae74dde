"""Rigorous transfer-matrix lower bound on transmission.

T >= sech^2( (1/2) * integral |k0 - k^2(x)/k0| dx ) over the whole line; k0
is the asymptotic wavenumber.  Since k0^2 - k^2(x) = 2m (V(x) - V_inf)/hbar^2,
the exponent is (m/(hbar^2 k0)) times the area A = integral |V(x) - V_inf| dx,
which does not depend on the energy.  ``bound_integrals`` forms the exponent from the
exact area of each family (``p.bound_area()``) at an array of energies; ``transmission_bound``
integrates |V - V_inf| of an arbitrary potential callable over a given window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import PhysicsContext, first_errors
from .errors import InvalidInputError, QscatError
from .wkb import DEFAULT_QUADRATURE, QuadratureControl, _integrate_gauss_legendre, _on_array


@dataclass(frozen=True)
class BoundResult:
    """lower_bound = sech^2(integral_value); integral_value is dimensionless."""

    lower_bound: float
    integral_value: float


def _sech_sq(x: np.ndarray) -> np.ndarray:
    # 4 e^{-2x} / (1 + e^{-2x})^2 at each element: no cosh to overflow for a large exponent
    t = np.exp(-2.0 * np.abs(x))
    return 4.0 * t / np.square(1.0 + t)


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

    def integrand(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return two_m_over_h2 * np.abs(v(x) - v_asymptotic) / k0

    (integral,), (error,) = _integrate_gauss_legendre(integrand, np.array([[x1, x2]]), ctrl)
    if error is not None:
        raise error
    integral = 0.5 * integral
    return BoundResult(lower_bound=_sech_sq(integral).item(), integral_value=integral.item())


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


def bound_for_potential(p, energy: float, ctx: PhysicsContext) -> BoundResult:
    """sech^2 bound of the potential family ``p``: the one-energy case of bound_integrals."""
    (integral,), (error,) = bound_integrals(p, [energy], ctx)
    if error is not None:
        raise error
    return BoundResult(lower_bound=_sech_sq(integral).item(), integral_value=integral.item())
