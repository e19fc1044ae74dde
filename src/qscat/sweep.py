"""Grid evaluation engine producing cross-method tables (exact vs WKB vs bound).

A sweep is a column pipeline.  The potential's ``sweep_map`` turns the array of
values into energies (and swept parameters) at once, each requested method makes
one call of the family (``p.exact``, ``p.wkb``, ``p.bound``) for all of them, and
the result is a SweepTable of columns that ``cli.render_sweep_csv`` renders as they
are.  Yet each row depends only on its own grid value, so identical inputs give
identical output in any order or batch.  A point that fails, in the sweep map or a
method, is an error code in its cells (the first mask that flags it, see
``core.first_errors`` and ``core.method_columns``), not an aborted sweep.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

import numpy as np

from .core import NATURAL_UNITS, MethodResult, PhysicsContext
from .errors import InvalidInputError
from .potentials import PotentialSpec

METHOD_ORDER = ("exact", "wkb", "bound")


class SweepRow(NamedTuple):
    variable_value: float
    results: Mapping[str, MethodResult]
    bound_gap: float | None = None
    gap_marker: bool = False


class MethodCells(NamedTuple):
    """One method's cells in a SweepTable: lists of T, R and the defect (None for a
    method without them), and per point None or its error code."""

    transmission: list
    reflection: list | None
    defect: list | None
    codes: list


class SweepTable(Sequence):
    """A sweep as columns: the values of the variable, the MethodCells of each method,
    the exact-minus-bound gap (None where either failed or was not asked for) and
    the gap markers (points with no (potential, energy)).  It is also a read-only
    sequence of SweepRow, each built when indexed, and equals a list of the same
    rows."""

    def __init__(self, values: list, columns: Mapping[str, MethodCells], bound_gap: list,
                 gap_marker: list):
        self.values, self.columns = values, columns
        self.bound_gap, self.gap_marker = bound_gap, gap_marker

    @classmethod
    def from_rows(cls, rows, methods) -> SweepTable:
        """The table of a sequence of SweepRow, with the requested methods' columns; a
        row without a method's result gets the code "na" there."""
        columns = {}
        for m in METHOD_ORDER:
            if m in methods:
                results = [row.results.get(m) for row in rows]
                columns[m] = MethodCells(
                    *([None if res is None else getattr(res, name) for res in results]
                      for name in ("transmission", "reflection", "defect")),
                    ["na" if res is None else res.error for res in results],
                )
        return cls([row.variable_value for row in rows], columns,
                   [row.bound_gap for row in rows], [row.gap_marker for row in rows])

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        results = {}
        for m, cells in self.columns.items():
            code = cells.codes[i]
            results[m] = MethodResult(m, error=code) if code is not None else MethodResult(
                m, *(None if column is None else column[i] for column in cells[:3]))
        return SweepRow(self.values[i], results, self.bound_gap[i], self.gap_marker[i])

    def __eq__(self, other):
        if not isinstance(other, (SweepTable, list)):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"SweepTable({list(self)!r})"


def _spread(column: np.ndarray, live: np.ndarray) -> np.ndarray:
    # the column at the live points, NaN at the others
    full = np.full(live.size, math.nan)
    full[live] = column
    return full


def _cells(columns, errors: list, live: np.ndarray | None) -> MethodCells:
    """MethodCells of a family method's MethodColumns at the live points (all when live
    is None); the other points keep their errors from ``errors``."""
    method_errors = columns.errors
    values = columns[:3]
    if live is not None:
        rest = iter(method_errors)
        method_errors = [next(rest) if error is None else error for error in errors]
        values = [None if v is None else _spread(v, live) for v in values]
    if any(method_errors):
        method_errors = [e if e is None else e.code for e in method_errors]
    return MethodCells(*(None if v is None else v.tolist() for v in values), method_errors)


def _evaluate(p, variable, xs: list, methods, ctx, fixed) -> SweepTable:
    """The SweepTable of all requested methods at each value in xs of ``variable``.
    ``p.sweep_map`` maps them in one call, and each method makes one family call for
    all points it gives; a point where the map fails gets its error from every method."""
    energies, swept, errors = p.sweep_map(variable, ctx, fixed)(xs)
    live = None
    if any(errors):
        live = np.array([error is None for error in errors])
        energies, swept = energies[live], {name: v[live] for name, v in swept.items()}
    columns = {m: _cells(getattr(p, m)(energies, ctx, **swept), errors, live)
               for m in METHOD_ORDER if m in methods}
    n = len(errors)
    gap = [None] * n
    if "exact" in columns and "bound" in columns:
        exact, bound = columns["exact"], columns["bound"]
        gap = (np.array(exact.transmission) - np.array(bound.transmission)).tolist()
        gap = [None if a is not None or b is not None else g
               for g, a, b in zip(gap, exact.codes, bound.codes)]
    marker = [False] * n if live is None else (~live).tolist()
    return SweepTable(list(xs), columns, gap, marker)


def evaluate_table(
    p: PotentialSpec,
    energies: list[float],
    methods: frozenset[str],
    ctx: PhysicsContext = NATURAL_UNITS,
) -> SweepTable:
    """All requested methods at each (potential, energy) point, as one SweepTable.

    Physics-level failures and overflows (``invalid``) become error codes in the
    affected method's cells.
    """
    return _evaluate(p, "E", energies, methods, ctx, {})


def evaluate_methods(
    p: PotentialSpec,
    energy: float,
    methods: frozenset[str],
    ctx: PhysicsContext = NATURAL_UNITS,
) -> tuple[dict[str, MethodResult], float | None]:
    """All requested methods at one (potential, energy) point: the one-point case of
    evaluate_table, as (results by method, exact-minus-bound gap or None).  Public
    for the benchmark harness in ``perfbench/``."""
    row = evaluate_table(p, [energy], methods, ctx)[0]
    return row.results, row.bound_gap


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


def sweep_rows(spec: SweepSpec, xs: list[float]) -> SweepTable:
    """All requested methods at each value in xs of the spec's variable, as one batch
    (the Hulthen 2F1 series of all points run in lockstep); the spec's own grid is
    not used.  Row i depends on xs[i] alone.  A point with no (potential, energy),
    such as the rectangular E = v0 where both exact formulas are singular, gets
    gap_marker and its error everywhere."""
    return _evaluate(spec.potential, spec.variable, xs, spec.methods, spec.ctx, spec.fixed)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """sweep_rows over the full grid, in ascending variable order."""
    return sweep_rows(spec, spec.grid().tolist())
