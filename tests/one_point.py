"""One-point calls of the array API, for tests that look at one energy at a time.

Each runs a grid function or a family method on a one-element list and returns that
point's value, or raises its error.
"""

from __future__ import annotations

from typing import NamedTuple

from qscat.bound import bound_integrals
from qscat.exact import (
    delta_amplitudes_grid,
    eckart_transmission_grid,
    hulthen_amplitudes_grid,
    rectangular_amplitudes_grid,
)


class Amplitudes(NamedTuple):
    t: complex
    r: complex


class Bound(NamedTuple):
    lower_bound: float
    integral_value: float


def _raise_or(value, error):
    if error is not None:
        raise error
    return value


def amplitudes(grid) -> Amplitudes:
    """The amplitudes of the one point of an amplitude grid (t, r, errors)."""
    (t,), (r,), (error,) = grid
    return _raise_or(Amplitudes(complex(t), complex(r)), error)


def delta(alpha, energy, ctx) -> Amplitudes:
    return amplitudes(delta_amplitudes_grid(alpha, [energy], ctx))


def rectangular(v0, a, energy, ctx) -> Amplitudes:
    return amplitudes(rectangular_amplitudes_grid(v0, a, [energy], ctx))


def hulthen(p, energy, mass=1.0) -> Amplitudes:
    return amplitudes(hulthen_amplitudes_grid(p, [energy], mass))


def eckart_transmission(p, energy, ctx) -> float:
    (t,), (error,) = eckart_transmission_grid(p, [energy], ctx)
    return _raise_or(t.item(), error)


def bound(p, energy, ctx) -> Bound:
    """``p.bound`` at one energy, with its sech^2 exponent from ``bound_integrals``."""
    (lower,), _, _, (error,) = p.bound([energy], ctx)
    (integral,), _ = bound_integrals(p, [energy], ctx)
    return _raise_or(Bound(lower.item(), integral.item()), error)
