"""The four potential families; each class is the one place that knows its own.

Every family answers the same questions: V(x) on scalars or numpy arrays
(``values``), the asymptotes, the swept variables and how an array of values of
one maps to energies, swept parameters and per-point errors (``sweep_map``), the
exact, WKB and bound results at an array of energies as one ``core.MethodColumns``
each (``wkb`` and ``bound`` are shared array computations on ``wkb_actions`` and
``bound_area``), the WKB actions on an array of energies and their region, the area
behind the sech^2 bound, and the analytic resonances.
``_Family`` answers the rest with an UnsupportedOperationError (asymptotes 0,
E the only swept variable), so a family states only what it has: the delta
potential is a distribution and exists only through its closed-form results.
The front ends of ``sweep``, ``wkb``, ``bound`` and ``resonance`` call these methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar, Union

import numpy as np

from .bound import _sech_sq, bound_integrals
from .core import MethodColumns, first_errors, method_columns
from .errors import (
    DegenerateEnergyError,
    InvalidInputError,
    UnsupportedOperationError,
    WrongCaseError,
)
from .exact import (
    delta_amplitudes_grid,
    eckart_transmission_grid,
    hulthen_amplitudes_grid,
    probability_arrays,
    rectangular_amplitudes_grid,
)
from .resonance import Kind, ResonanceListing, ResonanceReport, Source, _label_for
from .wkb import _actions, eckart_turning_points, hulthen_turning_points

# the reflection resonance at the k = 0 boundary, where T vanishes
_REFLECTION_AT_K0 = ResonanceListing(
    (ResonanceReport(Kind.REFLECTION, 0.0, 1.0, Source.ANALYTIC, at_boundary=True),)
)


def _grid_columns(grid) -> MethodColumns:
    """The exact MethodColumns of a closed-form grid (t, r, errors)."""
    t, r, errors = grid
    return method_columns("exact", errors, *probability_arrays(t, r))


def _kinetic_points(xs, offset, ctx) -> tuple[np.ndarray, list]:
    """The energies offset + (hbar x)^2 / 2m at the wavenumbers xs, and the check (mask,
    error class, message) of the values where (hbar x)^2 overflows."""
    with np.errstate(all="ignore"):
        hx = ctx.hbar * xs
        hx_sq = np.square(hx)
        energies = offset + hx_sq / (2.0 * ctx.mass)
    return energies, [(
        np.isinf(hx_sq) & np.isfinite(hx), InvalidInputError, "intermediates leave double range at {!r}")]


class _Family:
    """What a family lacks, and the WKB and bound every family has.  ``exact`` (each
    family's own), ``wkb`` and ``bound`` return one MethodColumns for all energies;
    the keyword arguments of a swept parameter (see ``sweep_map``) give each point its
    own potential.  The 2F1 series and the quadrature run at the fixed tolerances of
    ``specfun`` and ``wkb``."""

    variables: ClassVar[tuple[str, ...]] = ("E",)

    def wkb(self, energies, ctx, solve_turning_points=False, **swept) -> MethodColumns:
        """The WKB transmission exp(-2 sqrt(2m)/hbar * action) at each energy, over the
        region the family chooses."""
        if swept:
            return self._per_potential("wkb", energies, ctx, swept)
        with np.errstate(all="ignore"):  # a point that leaves double range is an error in its row
            actions, errors = self.wkb_actions(np.asarray(energies, dtype=float), solve_turning_points)
            transmission = np.exp(-2.0 * math.sqrt(2.0 * ctx.mass) / ctx.hbar * actions)
        return method_columns("wkb", errors, transmission)

    def bound(self, energies, ctx, **swept) -> MethodColumns:
        """The sech^2 lower bound at each energy."""
        if swept:
            return self._per_potential("bound", energies, ctx, swept)
        integrals, errors = bound_integrals(self, energies, ctx)
        return method_columns("bound", errors, _sech_sq(integrals))

    def _per_potential(self, method, energies, ctx, swept) -> MethodColumns:
        """``method`` (one that gives T alone) at each point, for the potential with the
        swept field at its value there: one call per distinct potential."""
        ((name, values),) = swept.items()
        energies = np.asarray(energies, dtype=float)
        out = MethodColumns(np.empty(values.size), None, None, [None] * values.size)
        for value in dict.fromkeys(values.tolist()):
            points = np.flatnonzero(values == value)
            part = getattr(replace(self, **{name: value}), method)(energies[points], ctx)
            out.transmission[points] = part.transmission
            for i, error in zip(points.tolist(), part.errors):
                out.errors[i] = error
        return out

    def values(self, x):
        """V(x); x may be a scalar or a numpy array."""
        raise UnsupportedOperationError(f"{type(self).__name__} has no pointwise values")

    def asymptotes(self) -> tuple[float, float]:
        """(V at x -> -inf, V at x -> +inf)."""
        return (0.0, 0.0)

    def sweep_map(self, variable, ctx, fixed):
        """Function from values of ``variable`` (a list or an array) to the points they
        sweep: an array of energies, the swept parameters (a field -> array of values
        dict that ``exact``, ``wkb`` and ``bound`` take as keyword arguments) and, per
        value, None or its error; a variable this family cannot sweep raises
        InvalidInputError here."""
        if variable not in self.variables:
            raise InvalidInputError(
                f"cannot sweep {variable!r} for {type(self).__name__}; "
                f"valid variables: {self.variables}"
            )

        def points(xs):
            xs = np.asarray(xs, dtype=float)
            energies, swept, checks = self._points(variable, xs, ctx, fixed)
            return energies, swept, first_errors(xs.tolist(), checks)

        return points

    def _points(self, variable, xs, ctx, fixed):
        """(energies, swept parameters, checks (mask, error class, message)) of xs."""
        return xs, {}, []

    def wkb_actions(self, energies, solve_turning_points=False) -> tuple[np.ndarray, list]:
        """Integral of sqrt(V - E) over the family's barrier region at each energy of the
        array, and per energy None or its error."""
        error = UnsupportedOperationError(f"WKB quadrature is undefined for {type(self).__name__}")
        return np.full(energies.size, math.nan), [error] * energies.size

    def bound_area(self) -> float:
        """Exact integral of |V(x) - V_inf| over the whole line."""
        raise UnsupportedOperationError(
            f"the sech^2 bound is a quadrature statement; not applicable to {type(self).__name__}"
        )

    def resonances(self, var, n_max, ctx, kind, energy=None) -> ResonanceListing:
        """Analytic resonances over the lower-case sweep variable ``var``."""
        raise UnsupportedOperationError(
            f"no analytic resonance formula for {type(self).__name__} over {var!r} "
            f"({kind.value}); use numeric_resonances"
        )


@dataclass(frozen=True)
class Delta(_Family):
    """V(x) = alpha * delta(x) with alpha > 0 (units of energy * length)."""

    alpha: float
    variables = ("k", "E")

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise InvalidInputError(f"delta strength alpha must be positive, got {self.alpha!r}")

    def _points(self, variable, xs, ctx, fixed):
        if variable == "E":
            return super()._points(variable, xs, ctx, fixed)
        energies, checks = _kinetic_points(xs, 0.0, ctx)
        return energies, {}, checks

    def exact(self, energies, ctx) -> MethodColumns:
        return _grid_columns(delta_amplitudes_grid(self.alpha, energies, ctx))

    def resonances(self, var, n_max, ctx, kind, energy=None) -> ResonanceListing:
        if var != "k":
            return super().resonances(var, n_max, ctx, kind, energy)
        if kind is Kind.REFLECTION:
            return _REFLECTION_AT_K0
        return ResonanceListing(
            (),
            reason="the delta potential has no transmission resonances "
            "(T only tends to unity as k goes to infinity)",
        )


@dataclass(frozen=True)
class Rectangular(_Family):
    """V(x) = v0 for |x| <= a, else 0.  ``a`` is the half-width."""

    v0: float
    a: float
    variables = ("q", "E")

    def __post_init__(self):
        if not (math.isfinite(self.v0) and self.v0 > 0):
            raise InvalidInputError(f"barrier height v0 must be positive, got {self.v0!r}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise InvalidInputError(f"half-width a must be positive, got {self.a!r}")

    def values(self, x):
        return np.where(np.abs(x) <= self.a, self.v0, 0.0) if np.ndim(x) else (
            self.v0 if abs(x) <= self.a else 0.0
        )

    def _points(self, variable, xs, ctx, fixed):
        # q is the interior wavenumber above the barrier; E = v0, where both exact
        # formulas are singular, is a point of no method
        energies, checks = _kinetic_points(xs, self.v0, ctx) if variable == "q" else (xs, [])
        return energies, {}, [*checks, (energies == self.v0, DegenerateEnergyError,
                                        "both exact formulas are singular at E = v0")]

    def exact(self, energies, ctx) -> MethodColumns:
        return _grid_columns(rectangular_amplitudes_grid(self.v0, self.a, energies, ctx))

    def wkb_actions(self, energies, solve_turning_points=False) -> tuple[np.ndarray, list]:
        actions = 2.0 * self.a * np.sqrt(self.v0 - energies)
        return actions, first_errors(energies.tolist(), [(
            ~((0 < energies) & (energies < self.v0)), WrongCaseError,
            f"WKB tunneling needs 0 < E < v0, got E={{!r}}, v0={self.v0!r}")])

    def bound_area(self) -> float:
        return 2.0 * self.a * self.v0

    def resonances(self, var, n_max, ctx, kind, energy=None) -> ResonanceListing:
        if var == "q" and kind is Kind.TRANSMISSION:
            return ResonanceListing(tuple(
                ResonanceReport(Kind.TRANSMISSION, n * math.pi / (2.0 * self.a), 1.0, Source.ANALYTIC)
                for n in range(1, n_max + 1)
            ))
        if var == "k" and kind is Kind.REFLECTION:
            return _REFLECTION_AT_K0
        return super().resonances(var, n_max, ctx, kind, energy)


@dataclass(frozen=True)
class Eckart(_Family):
    """Smooth step-plus-bump profile built from tanh and sech^2 terms.

    V(x) = (v+ + v-)/2 + (v+ - v-)/2 tanh(x/a) + v0 / cosh^2(x/a)

    ``a`` here is a length (the tanh scale); contrast with the Hulthen ``a``
    which is an inverse length.
    """

    v_minus_inf: float
    v_plus_inf: float
    v0: float
    a: float
    variables = ("V0", "E")

    def __post_init__(self):
        for name in ("v_minus_inf", "v_plus_inf", "v0"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite")
        if not (math.isfinite(self.a) and self.a > 0):
            raise InvalidInputError(f"length scale a must be positive, got {self.a!r}")

    def values(self, x):
        xa = np.asarray(x, dtype=float) / self.a if np.ndim(x) else x / self.a
        mean = 0.5 * (self.v_plus_inf + self.v_minus_inf)
        step = 0.5 * (self.v_plus_inf - self.v_minus_inf)
        return mean + step * np.tanh(xa) + self.v0 / np.cosh(xa) ** 2

    def asymptotes(self) -> tuple[float, float]:
        return (self.v_minus_inf, self.v_plus_inf)

    def sweep_map(self, variable, ctx, fixed):
        if variable == "V0" and "energy" not in fixed:
            raise InvalidInputError("sweeping V0 requires fixed={'energy': ...}")
        return super().sweep_map(variable, ctx, fixed)

    def _points(self, variable, xs, ctx, fixed):
        if variable == "E":
            return super()._points(variable, xs, ctx, fixed)
        return np.full(xs.size, float(fixed["energy"])), {"v0": xs}, [
            (~np.isfinite(xs), InvalidInputError, "v0 must be finite")]

    def exact(self, energies, ctx, v0=None) -> MethodColumns:
        t, errors = eckart_transmission_grid(self, energies, ctx, v0)
        # unitarity is mandatory for the elastic channel: report (T, 1 - T)
        return method_columns("exact", errors, t, 1.0 - t, np.zeros(t.size))

    def wkb_actions(self, energies, solve_turning_points=False) -> tuple[np.ndarray, list]:
        # always between the closed-form turning points: no conventional fixed window
        x1, x2, checks = eckart_turning_points(self, energies)
        return _actions(self.values, energies, x1, x2, checks=checks)

    def bound_area(self) -> float:
        # the bound assumes one asymptotic k0 on both sides; equal asymptotes leave
        # v0 sech^2(x/a), whose integral is 2 a v0
        if self.v_minus_inf != self.v_plus_inf:
            raise UnsupportedOperationError(
                f"the bound assumes equal asymptotes; got V-inf={self.v_minus_inf!r}, "
                f"V+inf={self.v_plus_inf!r}"
            )
        return 2.0 * self.a * abs(self.v0)

    def resonances(self, var, n_max, ctx, kind, energy=None) -> ResonanceListing:
        if var != "v0":
            return super().resonances(var, n_max, ctx, kind, energy)
        if kind is Kind.REFLECTION:
            return ResonanceListing((), reason="the Eckart potential has no reflection resonances")
        locs = [-(ctx.hbar**2 / (2.0 * ctx.mass * self.a**2)) * n * (n + 1)
                for n in range(1, n_max + 1)]
        if self.v_minus_inf == self.v_plus_inf:
            # cos^2 term vanishes and sinh factors coincide: T = 1 at any energy
            values = [1.0] * n_max
        else:
            if energy is None:
                raise InvalidInputError(
                    "asymmetric Eckart resonance values depend on the energy; pass energy="
                )
            t, errors = eckart_transmission_grid(self, np.full(n_max, energy), ctx, v0=locs)
            error = next((e for e in errors if e is not None), None)
            if error is not None:
                raise error
            values = t.tolist()
        reports = [ResonanceReport(Kind.TRANSMISSION, loc, value, Source.ANALYTIC, _label_for(value))
                   for loc, value in zip(locs, values)]
        return ResonanceListing(tuple(reports))


@dataclass(frozen=True)
class Hulthen(_Family):
    """Exponentially screened barrier with screening parameter q in (0, 1).

    V(x) = step(-x) * v0/(exp(-a x) - q) + step(x) * v0/(exp(a x) - q)

    ``a`` is an inverse length (the exponential rate), unlike the Eckart ``a``.
    """

    v0: float
    a: float
    q: float

    def __post_init__(self):
        if not (math.isfinite(self.v0) and self.v0 > 0):
            raise InvalidInputError(f"strength v0 must be positive, got {self.v0!r}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise InvalidInputError(f"rate a must be positive, got {self.a!r}")
        if not (math.isfinite(self.q) and 0 < self.q < 1):
            raise InvalidInputError(f"screening q must lie in (0, 1), got {self.q!r}")

    def values(self, x):
        # the two step-function branches are mirror images, so |x| covers both;
        # at x = 0 they share the limit v0/(1-q)
        return self.v0 / (np.exp(self.a * np.abs(x)) - self.q)

    def exact(self, energies, ctx) -> MethodColumns:
        if ctx.hbar != 1.0:  # the amplitudes are written in units with hbar = 1
            error = UnsupportedOperationError("the Hulthen amplitudes need hbar = 1")
            nan = np.full(len(energies), math.nan)
            return MethodColumns(nan, nan, nan, [error] * len(energies))
        return _grid_columns(hulthen_amplitudes_grid(self, energies, ctx.mass))

    def wkb_actions(self, energies, solve_turning_points=False) -> tuple[np.ndarray, list]:
        # the physical region between the closed-form turning points, or the fixed
        # (-1, 1) window of the published recipe, split at the cusp of V at x = 0;
        # E <= 0 propagates in neither channel
        if solve_turning_points:
            edge, checks = hulthen_turning_points(self, energies)
            return _actions(self.values, energies, -edge, edge, checks=checks)
        return _actions(self.values, energies, -1.0, 1.0, (0.0,),
                        [(~(energies > 0), WrongCaseError, "WKB tunneling needs E > 0, got {!r}")])

    def bound_area(self) -> float:
        # 2 v0 integral_0^inf dx / (e^{ax} - q) = -2 v0 log(1 - q) / (a q)
        return -2.0 * self.v0 * math.log1p(-self.q) / (self.a * self.q)


PotentialSpec = Union[Delta, Rectangular, Eckart, Hulthen]
