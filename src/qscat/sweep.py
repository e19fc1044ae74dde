"""Grid evaluation engine producing cross-method rows (exact vs WKB vs bound).

Rows are evaluated as one batch: each distinct potential makes one call per method
(``p.exact``, ``p.wkb``, ``p.bound``) for all of its energies.  Yet each row depends
only on its own grid value, so identical inputs give identical output in any order
or batch.  A point that fails, in the sweep map or a method, is an error code in its
row (the rule is ``core.each`` and ``core.method_result``), not an aborted sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .core import NATURAL_UNITS, MethodResult, PhysicsContext, each
from .errors import InvalidInputError, QscatError
from .potentials import PotentialSpec

METHOD_ORDER = ("exact", "wkb", "bound")


class SweepRow(NamedTuple):
    variable_value: float
    results: Mapping[str, MethodResult]
    bound_gap: float | None = None
    gap_marker: bool = False


def _evaluate_pairs(pairs, methods, ctx) -> list[tuple[dict, float | None]]:
    """evaluate_methods at each (potential, energy) pair, or at a QscatError in its
    place, whose code every method then reports.  Each distinct potential makes one
    call per method for all of its energies."""
    ordered = [m for m in METHOD_ORDER if m in methods]
    rows = [{m: MethodResult(m, error=pair.code) for m in ordered}
            if isinstance(pair, QscatError) else {} for pair in pairs]
    groups: dict = {}
    for i, pair in enumerate(pairs):
        if not isinstance(pair, QscatError):
            groups.setdefault(pair[0], []).append(i)
    for p, points in groups.items():
        energies = [pairs[i][1] for i in points]
        for m in ordered:
            for i, res in zip(points, getattr(p, m)(energies, ctx)):
                rows[i][m] = MethodResult(m, error=res.code) if isinstance(res, QscatError) else res
    out = []
    for results in rows:
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
    return _evaluate_pairs(each(p.sweep_map("E", ctx, {}), [energy]), methods, ctx)[0]


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
    pairs = each(spec.potential.sweep_map(spec.variable, spec.ctx, spec.fixed), xs)
    evaluated = _evaluate_pairs(pairs, spec.methods, spec.ctx)
    return [
        SweepRow(x, results, bound_gap=gap, gap_marker=isinstance(pair, QscatError))
        for x, pair, (results, gap) in zip(xs, pairs, evaluated)
    ]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """sweep_rows over the full grid, in ascending variable order."""
    return sweep_rows(spec, [float(x) for x in spec.grid()])
