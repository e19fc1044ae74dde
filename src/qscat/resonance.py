"""Resonance locations: analytic where known, numeric peak finding otherwise.

A resonance is a parameter value where T or R reaches unity; refined local
maxima that stay below 1 - 1e-6 are labeled peaks, not resonances.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .core import PhysicsContext
from .errors import InvalidInputError

# fixed by the strict "probability in unity" definition, absorbing float noise
RESONANCE_THRESHOLD = 1.0 - 1e-6

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0


class Kind(Enum):
    TRANSMISSION = "transmission"
    REFLECTION = "reflection"


class Source(Enum):
    ANALYTIC = "analytic"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class ResonanceReport:
    kind: Kind
    location: float
    value: float
    source: Source
    label: str = "resonance"  # "resonance" (value within 1e-6 of 1) or "peak"
    at_boundary: bool = False


@dataclass(frozen=True)
class ResonanceListing:
    """Reports plus an explanatory reason when the list is knowingly empty."""

    reports: tuple[ResonanceReport, ...]
    reason: str | None = None


def _label_for(value: float) -> str:
    return "resonance" if value >= RESONANCE_THRESHOLD else "peak"


def analytic_resonances(
    p,
    sweep_var: str,
    n_max: int,
    ctx: PhysicsContext,
    kind: Kind = Kind.TRANSMISSION,
    energy: float | None = None,
) -> ResonanceListing:
    """Closed-form resonance locations for the potential/sweep-variable pairs
    that have them (``p.resonances``).

    Supported: rectangular over q (transmission: q = n pi / 2a) and over k
    (reflection: boundary k = 0); delta over k (no transmission resonances;
    reflection at k = 0); Eckart over v0 (transmission: v0 = -(hbar^2/2ma^2)
    n(n+1); no reflection resonances).  Anything else raises
    UnsupportedOperationError; use numeric_resonances for those.  A listing
    whose locations or values leave double range raises InvalidInputError.
    """
    if n_max < 1:
        raise InvalidInputError(f"n_max must be >= 1, got {n_max!r}")
    try:
        listing = p.resonances(sweep_var.lower(), n_max, ctx, kind, energy)
    except ArithmeticError as exc:
        raise InvalidInputError(f"the analytic resonances overflow double range: {exc}") from None
    if not all(math.isfinite(r.location) and math.isfinite(r.value) for r in listing.reports):
        raise InvalidInputError("the analytic resonances leave double range")
    return listing


def golden_section_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> float:
    """Deterministic golden-section refinement of a bracketed maximum."""
    a, b = lo, hi
    h = b - a
    if h <= tol:
        return 0.5 * (a + b)
    # a ratio below the smallest normal double leaves a bracket below the spacing of
    # the doubles in it (h <= 2 max(|a|, |b|)), so it needs no more steps
    steps = int(math.ceil(math.log(max(tol / h, sys.float_info.min)) / math.log(_INV_PHI)))
    c = a + _INV_PHI_SQ * h
    d = a + _INV_PHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(steps):
        # a new point not strictly inside means the bracket is at the spacing of doubles
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI_SQ * h
            if not a < c < d:
                break
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            if not c < d < b:
                break
            yd = f(d)
    return 0.5 * (a + b)


def numeric_resonances(
    curve: Callable[[list[float]], list[float]],
    domain: tuple[float, float],
    grid_n: int = 256,
    refine_tol: float = 1e-8,
    kind: Kind = Kind.TRANSMISSION,
) -> list[ResonanceReport]:
    """Coarse grid scan for interior local maxima plus golden-section refinement.

    ``curve`` maps a list of values to the list of probabilities there: the whole
    grid goes to it in one call, each refinement step as a one-value list.
    Endpoint maxima are deliberately excluded (boundary limits such as the
    k = 0 reflection resonance are not peaks).  Returns an empty list for a
    curve with no interior maxima (e.g. a constant).
    """
    if grid_n < 16:
        raise InvalidInputError(f"grid_n must be >= 16, got {grid_n!r}")
    if not (math.isfinite(refine_tol) and refine_tol > 0):
        raise InvalidInputError(f"refine_tol must be positive and finite, got {refine_tol!r}")
    lo, hi = domain
    if not lo < hi:
        raise InvalidInputError(f"bad domain {domain!r}")
    # not np.linspace: its points differ in the last bit from these at some i
    xs = [lo + (hi - lo) * i / (grid_n - 1) for i in range(grid_n)]
    ys = curve(xs)

    def at(x: float) -> float:
        return curve([x])[0]

    reports = []
    for i in range(1, grid_n - 1):
        if ys[i] > ys[i - 1] and ys[i] > ys[i + 1]:
            loc = golden_section_max(at, xs[i - 1], xs[i + 1], refine_tol)
            val = at(loc)
            reports.append(
                ResonanceReport(kind, loc, val, Source.NUMERIC, _label_for(val))
            )
    return reports
