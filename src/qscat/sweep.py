"""Grid evaluation engine producing cross-method rows (exact vs WKB vs bound).

Rows are evaluated as one batch (the Hulthen 2F1 series in lockstep), yet each
row depends only on its own grid value, so identical inputs give identical
output in any order or batch.  Per-point failures, overflows included, are
recorded in the row rather than aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .bound import bound_for_potential
from .core import (
    NATURAL_UNITS,
    PhysicsContext,
    probabilities_from_amplitudes,
    unitarity_defect,
)
from .errors import DegenerateEnergyError, InvalidInputError, QscatError
from .exact import (
    delta_amplitudes,
    eckart_transmission,
    hulthen_amplitudes_grid,
    rectangular_above,
    rectangular_below,
)
from .potentials import Delta, Eckart, Hulthen, PotentialSpec, Rectangular
from .specfun import DEFAULT_SERIES, SeriesControl
from .wkb import DEFAULT_QUADRATURE, QuadratureControl, wkb_for_potential

METHOD_ORDER = ("exact", "wkb", "bound")

_VALID_VARIABLES = {
    Delta: ("k", "E"),
    Rectangular: ("q", "E"),
    Eckart: ("V0", "E"),
    Hulthen: ("E",),
}


@dataclass(frozen=True)
class MethodResult:
    """One method's labeled output at a single grid point."""

    method: str
    transmission: float | None = None
    reflection: float | None = None
    defect: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepRow:
    variable_value: float
    results: Mapping[str, MethodResult]
    bound_gap: float | None = None
    gap_marker: bool = False


def _exact_result(p: PotentialSpec, energy: float, ctx: PhysicsContext, grid_entry) -> MethodResult:
    if isinstance(p, Delta):
        amps = delta_amplitudes(p.alpha, energy, ctx)
    elif isinstance(p, Rectangular):
        if energy > p.v0:
            amps = rectangular_above(p.v0, p.a, energy, ctx)
        else:
            amps = rectangular_below(p.v0, p.a, energy, ctx)
    elif isinstance(p, Eckart):
        t = eckart_transmission(p, energy, ctx)
        # unitarity is mandatory for the elastic channel: report (T, 1 - T)
        return MethodResult("exact", transmission=t, reflection=1.0 - t, defect=0.0)
    elif isinstance(p, Hulthen):
        if isinstance(grid_entry, QscatError):  # from hulthen_amplitudes_grid
            raise grid_entry
        amps = grid_entry
    else:
        raise InvalidInputError(f"unknown potential {type(p).__name__}")
    prob = probabilities_from_amplitudes(amps)
    return MethodResult(
        "exact",
        transmission=prob.transmission,
        reflection=prob.reflection,
        defect=unitarity_defect(prob),
    )


def _evaluate_pairs(pairs, methods, ctx, series, quadrature) -> list[tuple[dict, float | None]]:
    """evaluate_methods at each (potential, energy) pair, or (None, exc): exc for every
    method.  The Hulthen pairs of each potential share one hulthen_amplitudes_grid call."""
    hulthen = {}
    for h in {p for p, _ in pairs if isinstance(p, Hulthen) and "exact" in methods}:
        points, energies = zip(*[(i, e) for i, (p, e) in enumerate(pairs) if p == h])
        hulthen.update(zip(points, hulthen_amplitudes_grid(h, energies, ctx.mass, series)))
    out = []
    for i, (p, energy) in enumerate(pairs):
        results: dict[str, MethodResult] = {}
        for method in METHOD_ORDER:
            if method not in methods:
                continue
            try:
                if p is None:
                    raise energy
                if isinstance(p, Rectangular) and energy == p.v0:
                    raise DegenerateEnergyError("both exact formulas are singular at E = v0")
                if method == "exact":
                    results[method] = _exact_result(p, energy, ctx, hulthen.get(i))
                elif method == "wkb":
                    t = wkb_for_potential(p, energy, ctx, quadrature)
                    results[method] = MethodResult("wkb", transmission=t)
                else:
                    b = bound_for_potential(p, energy, ctx)
                    results[method] = MethodResult("bound", transmission=b.lower_bound)
            except (QscatError, ArithmeticError) as exc:
                # an ArithmeticError is an input whose intermediates leave double range
                code = exc.code if isinstance(exc, QscatError) else InvalidInputError.code
                results[method] = MethodResult(method, error=code)
        exact_res, bound_res = results.get("exact"), results.get("bound")
        gap = exact_res and bound_res and exact_res.error is None and bound_res.error is None
        out.append((results, exact_res.transmission - bound_res.transmission if gap else None))
    return out


def evaluate_methods(
    p: PotentialSpec,
    energy: float,
    methods: frozenset[str],
    ctx: PhysicsContext = NATURAL_UNITS,
    series: SeriesControl = DEFAULT_SERIES,
    quadrature: QuadratureControl = DEFAULT_QUADRATURE,
) -> tuple[dict[str, MethodResult], float | None]:
    """All requested methods at one (potential, energy) point.

    Physics-level failures and overflows (``invalid``) become error codes on the
    affected method's result; returns (results by method, exact-minus-bound gap or None).
    """
    return _evaluate_pairs([(p, energy)], methods, ctx, series, quadrature)[0]


@dataclass(frozen=True)
class SweepSpec:
    potential: PotentialSpec
    variable: str
    lo: float
    hi: float
    points: int
    methods: frozenset[str] = frozenset({"exact"})
    ctx: PhysicsContext = NATURAL_UNITS
    fixed: Mapping[str, float] = field(default_factory=dict)
    log_spaced: bool = False
    series: SeriesControl = DEFAULT_SERIES
    quadrature: QuadratureControl = DEFAULT_QUADRATURE

    def __post_init__(self):
        if not self.lo < self.hi:
            raise InvalidInputError(f"need lo < hi, got ({self.lo!r}, {self.hi!r})")
        if self.points < 2:
            raise InvalidInputError(f"need points >= 2, got {self.points!r}")
        unknown = set(self.methods) - set(METHOD_ORDER)
        if unknown or not self.methods:
            raise InvalidInputError(
                f"methods must be a non-empty subset of {METHOD_ORDER}, got {set(self.methods)!r}"
            )
        allowed = _VALID_VARIABLES[type(self.potential)]
        if self.variable not in allowed:
            raise InvalidInputError(
                f"cannot sweep {self.variable!r} for {type(self.potential).__name__}; "
                f"valid variables: {allowed}"
            )
        if isinstance(self.potential, Eckart) and self.variable == "V0":
            if "energy" not in self.fixed:
                raise InvalidInputError("sweeping V0 requires fixed={'energy': ...}")
        if self.log_spaced and self.lo <= 0:
            raise InvalidInputError("log-spaced grids require lo > 0")

    def grid(self) -> np.ndarray:
        if self.log_spaced:
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


def map_sweep_variable(
    p: PotentialSpec,
    variable: str,
    x: float,
    ctx: PhysicsContext,
    fixed: Mapping[str, float],
) -> tuple[PotentialSpec, float]:
    """Map one value of the swept variable to a (potential, energy) pair."""
    if variable == "E":
        return p, x
    if isinstance(p, Delta) and variable == "k":
        return p, (ctx.hbar * x) ** 2 / (2.0 * ctx.mass)
    if isinstance(p, Rectangular) and variable == "q":
        return p, p.v0 + (ctx.hbar * x) ** 2 / (2.0 * ctx.mass)
    if isinstance(p, Eckart) and variable == "V0":
        if "energy" not in fixed:
            raise InvalidInputError("sweeping V0 requires fixed={'energy': ...}")
        return replace(p, v0=x), fixed["energy"]
    raise InvalidInputError(
        f"cannot sweep {variable!r} for {type(p).__name__}; "
        f"valid variables: {_VALID_VARIABLES[type(p)]}"
    )


def _sweep_rows(spec: SweepSpec, xs: list[float]) -> list[SweepRow]:
    pairs = []
    for x in xs:
        try:
            pairs.append(map_sweep_variable(spec.potential, spec.variable, x, spec.ctx, spec.fixed))
        except (QscatError, ArithmeticError) as exc:
            pairs.append((None, exc))
    evaluated = _evaluate_pairs(pairs, spec.methods, spec.ctx, spec.series, spec.quadrature)
    rows = []
    for x, (p, _), (results, gap) in zip(xs, pairs, evaluated):
        marker = p is None or all(r.error == "degenerate" for r in results.values())
        rows.append(SweepRow(x, results, bound_gap=gap, gap_marker=marker))
    return rows


def sweep_point(spec: SweepSpec, x: float) -> SweepRow:
    """Evaluate all requested methods at one grid value (pure, order-free)."""
    return _sweep_rows(spec, [x])[0]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the full grid in ascending variable order, as one batch (the
    Hulthen 2F1 series of all points run in lockstep); row i is sweep_point."""
    return _sweep_rows(spec, [float(x) for x in spec.grid()])
