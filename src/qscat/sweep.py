"""Grid evaluation engine producing cross-method rows (exact vs WKB vs bound).

Rows are evaluated as one batch (one exact call per distinct potential, which
runs the Hulthen 2F1 series in lockstep), yet each row depends only on its own
grid value, so identical inputs give identical output in any order or batch.
Per-point failures, overflows included, are recorded in the row rather than
aborting the sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .bound import bound_for_potential
from .core import NATURAL_UNITS, MethodResult, PhysicsContext
from .errors import InvalidInputError, QscatError
from .potentials import PotentialSpec
from .wkb import wkb_for_potential

METHOD_ORDER = ("exact", "wkb", "bound")


class SweepRow(NamedTuple):
    variable_value: float
    results: Mapping[str, MethodResult]
    bound_gap: float | None = None
    gap_marker: bool = False


def _point(to_point, x) -> tuple:
    """to_point(x), or (None, exc) for the error it raises."""
    try:
        return to_point(x)
    except (QscatError, ArithmeticError) as exc:
        return None, exc


def _finite(x: float | None) -> bool:
    return x is None or math.isfinite(x)


def _evaluate_pairs(pairs, methods, ctx) -> list[tuple[dict, float | None]]:
    """evaluate_methods at each (potential, energy) pair, or (None, exc): exc for every
    method.  Each distinct potential makes one exact call for all of its energies.
    A result whose T, R or defect is not finite becomes ``invalid``."""
    exact = {}
    if "exact" in methods:
        groups: dict = {}
        for i, (p, _) in enumerate(pairs):
            if p is not None:
                groups.setdefault(p, []).append(i)
        for p, points in groups.items():
            exact.update(zip(points, p.exact([pairs[i][1] for i in points], ctx)))
    out = []
    for i, (p, energy) in enumerate(pairs):
        results: dict[str, MethodResult] = {}
        for method in METHOD_ORDER:
            if method not in methods:
                continue
            try:
                if p is None:
                    raise energy
                if method == "exact":
                    result = exact[i]
                    if isinstance(result, QscatError):
                        raise result
                elif method == "wkb":
                    result = MethodResult("wkb", wkb_for_potential(p, energy, ctx))
                else:
                    result = MethodResult("bound", bound_for_potential(p, energy, ctx).lower_bound)
                if not (_finite(result.transmission) and _finite(result.reflection)
                        and _finite(result.defect)):
                    raise InvalidInputError(f"the {method} result is not finite")
                results[method] = result
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
) -> tuple[dict[str, MethodResult], float | None]:
    """All requested methods at one (potential, energy) point.

    Physics-level failures and overflows (``invalid``) become error codes on the
    affected method's result; returns (results by method, exact-minus-bound gap or None).
    """
    pair = _point(p.sweep_map("E", ctx, {}), energy)
    return _evaluate_pairs([pair], methods, ctx)[0]


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

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lo, self.hi, self.hi - self.lo))):
            raise InvalidInputError(f"need finite lo, hi and hi - lo, got ({self.lo!r}, {self.hi!r})")
        if not self.lo < self.hi:
            raise InvalidInputError(f"need lo < hi, got ({self.lo!r}, {self.hi!r})")
        if self.points < 2:
            raise InvalidInputError(f"need points >= 2, got {self.points!r}")
        unknown = set(self.methods) - set(METHOD_ORDER)
        if unknown or not self.methods:
            raise InvalidInputError(
                f"methods must be a non-empty subset of {METHOD_ORDER}, got {set(self.methods)!r}"
            )
        self.potential.sweep_map(self.variable, self.ctx, self.fixed)  # validates the variable
        if self.log_spaced and self.lo <= 0:
            raise InvalidInputError("log-spaced grids require lo > 0")

    def grid(self) -> np.ndarray:
        if self.log_spaced:
            return np.geomspace(self.lo, self.hi, self.points)
        return np.linspace(self.lo, self.hi, self.points)


def sweep_rows(spec: SweepSpec, xs: list[float]) -> list[SweepRow]:
    """All requested methods at each value in xs of the spec's variable, as one batch
    (the Hulthen 2F1 series of all points run in lockstep); the spec's own grid is
    not used.  Row i depends on xs[i] alone.  A point with no (potential, energy),
    such as the rectangular E = v0 where both exact formulas are singular, gets
    gap_marker and its error everywhere."""
    to_point = spec.potential.sweep_map(spec.variable, spec.ctx, spec.fixed)
    pairs = [_point(to_point, x) for x in xs]
    evaluated = _evaluate_pairs(pairs, spec.methods, spec.ctx)
    return [
        SweepRow(x, results, bound_gap=gap, gap_marker=p is None)
        for x, (p, _), (results, gap) in zip(xs, pairs, evaluated)
    ]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """sweep_rows over the full grid, in ascending variable order."""
    return sweep_rows(spec, [float(x) for x in spec.grid()])
