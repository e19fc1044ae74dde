"""WKB tunneling transmission for sampled potentials, with turning-point care.

T_w = exp(-2 sqrt(2m/hbar^2) * integral of sqrt(V(x) - E) over the barrier).

``wkb_for_potential`` takes the action from the family (``p.wkb_action``),
which uses what it has in closed form: the rectangular action is
2a sqrt(v0 - E), and the Hulthen and Eckart turning points below solve
V(x) = E exactly.  Every other action, of a family or of an
arbitrary potential callable passed to ``wkb_transmission``, goes through one
routine: a Gauss-Legendre rule on numpy arrays of nodes (48 against 96 nodes,
halving the interval until they agree); a region bounded by turning points is
split at its midpoint and substituted u^2 = x - x1 (resp. x2 - x), which
turns the square-root edge into a smooth function of u.  A scalar callable
is applied node by node.

``find_turning_points`` (scan and bisection) solves the region of an
arbitrary potential callable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import PhysicsContext
from .errors import ConvergenceError, InvalidInputError, NoBarrierError

# floating-point noise below the barrier top is clamped, anything worse rejected
_NEGATIVE_SLACK = 1e-12

# Gauss-Legendre orders compared for the error estimate of one interval
_GL_COARSE, _GL_FINE = 48, 96


class RegionSource(Enum):
    SOLVED_TURNING_POINTS = "solved_turning_points"
    FIXED_LIMITS = "fixed_limits"


@dataclass(frozen=True)
class QuadratureControl:
    abs_tol: float = 1e-10
    max_depth: int = 40

    def __post_init__(self):
        if not self.abs_tol > 0:
            raise InvalidInputError(f"abs_tol must be positive, got {self.abs_tol!r}")
        if self.max_depth < 1:
            raise InvalidInputError(f"max_depth must be >= 1, got {self.max_depth!r}")


DEFAULT_QUADRATURE = QuadratureControl()


@dataclass(frozen=True)
class BarrierRegion:
    """Integration limits, either classical turning points or fixed by hand."""

    x1: float
    x2: float
    source: RegionSource = RegionSource.FIXED_LIMITS

    def __post_init__(self):
        if not self.x1 < self.x2:
            raise InvalidInputError(f"need x1 < x2, got ({self.x1!r}, {self.x2!r})")


def fixed_limits(x1: float, x2: float) -> BarrierRegion:
    return BarrierRegion(x1, x2, RegionSource.FIXED_LIMITS)


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes of both orders on [-1, 1] in one array, then each order's weights.

    Built on first use, so importing qscat does not load numpy.polynomial.
    """
    x_coarse, w_coarse = np.polynomial.legendre.leggauss(_GL_COARSE)
    x_fine, w_fine = np.polynomial.legendre.leggauss(_GL_FINE)
    return np.concatenate((x_coarse, x_fine)), w_coarse, w_fine


def _integrate_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    ctrl: QuadratureControl,
    breaks: tuple[float, ...] = (),
) -> float:
    """Integral of an array function f over [a, b], 48 against 96 Gauss-Legendre nodes.

    The integration starts from the sub-intervals between a, the interior
    ``breaks`` (where f is not smooth) and b, each with an equal share of
    abs_tol.  Intervals whose two estimates differ by more than their share
    are halved, at most max_depth times, and all intervals of one level go to
    f in one call.  ConvergenceError carries the best estimate of the whole
    integral.  Refinement also stops once the unresolved difference fails to
    halve with the interval: the halved tolerance shares can then never be
    met (rounding noise in a large action does this), and halving further
    would only multiply the intervals.  An integral that leaves double range
    (inf or NaN) raises InvalidInputError.
    """
    nodes, w_coarse, w_fine = _gauss_legendre_rule()
    edges = np.array([a, *breaks, b], dtype=float)
    lo, hi = edges[:-1], edges[1:]
    tol, total, pending_before = ctrl.abs_tol / lo.size, 0.0, math.inf
    for depth in range(ctrl.max_depth + 1):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        fx = f(mid[:, None] + half[:, None] * nodes)
        coarse = half * (fx[:, :_GL_COARSE] @ w_coarse)
        fine = half * (fx[:, _GL_COARSE:] @ w_fine)
        residual = np.abs(fine - coarse)
        done = residual <= tol
        total += fine[done].sum()
        if done.all():
            if math.isfinite(total):
                return float(total)
            break
        pending = float(residual[~done].sum())
        if depth == ctrl.max_depth or not pending <= 0.5 * pending_before:  # NaN stops too
            break
        lo, hi, mid = lo[~done], hi[~done], mid[~done]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        tol, pending_before = 0.5 * tol, pending
    estimate = float(total + fine[~done].sum())
    if not math.isfinite(estimate):
        raise InvalidInputError(f"the integral leaves double range (estimate {estimate!r})")
    raise ConvergenceError(
        f"Gauss-Legendre quadrature did not reach abs_tol={ctrl.abs_tol:g} after {depth} of "
        f"at most {ctrl.max_depth} halvings (achieved estimate {estimate!r}, "
        f"residual ~{pending:.3e})",
        estimate=estimate,
        last_term=pending,
    )


def _on_array(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Array function that applies the scalar callable f at each point."""
    return lambda x: np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _action(
    v: Callable[[np.ndarray], np.ndarray],
    energy: float,
    region: BarrierRegion,
    ctrl: QuadratureControl,
    breaks: tuple[float, ...] = (),
) -> float:
    """Integral of sqrt(V(x) - E) over the region, for an array function V.

    V must satisfy V >= E on the region; dips below E - 1e-12 raise
    InvalidInputError, smaller negatives are clamped to zero under the
    radical.  Fixed limits are integrated in x, split at ``breaks``, with V
    also checked at both ends (the Gauss nodes are interior points).  Between
    solved turning points the region is split at its midpoint and substituted
    u^2 = x - x1 (resp. x2 - x), which turns the square-root edge into a
    smooth function of u; the two halves are s = u in [0, L] and s = -u in
    [-R, 0] of one integral, split at s = 0.  Values of V or of the integral
    that overflow do so silently; an infinite action raises InvalidInputError.
    """

    def sqrt_gap(x: np.ndarray) -> np.ndarray:
        gap = v(x) - energy
        worst = int(np.argmin(gap))
        if gap.flat[worst] < -_NEGATIVE_SLACK:
            raise InvalidInputError(
                f"V(x) < E inside the barrier region at x = {float(x.flat[worst])!r} "
                f"(V - E = {float(gap.flat[worst])!r}); shrink the region or use solved "
                f"turning points"
            )
        return np.sqrt(np.maximum(gap, 0.0))

    def integrand(s: np.ndarray) -> np.ndarray:
        return 2.0 * np.abs(s) * sqrt_gap(np.where(s > 0.0, x1 + s * s, x2 - s * s))

    x1, x2 = region.x1, region.x2
    with np.errstate(over="ignore", invalid="ignore"):
        if region.source is RegionSource.FIXED_LIMITS:
            sqrt_gap(np.array([x1, x2]))
            return _integrate_gauss_legendre(sqrt_gap, x1, x2, ctrl, breaks)
        mid = 0.5 * (x1 + x2)
        return _integrate_gauss_legendre(
            integrand, -math.sqrt(x2 - mid), math.sqrt(mid - x1), ctrl, (0.0,)
        )


def wkb_transmission(
    potential: Callable[[float], float],
    energy: float,
    region: BarrierRegion,
    ctx: PhysicsContext,
    ctrl: QuadratureControl = DEFAULT_QUADRATURE,
) -> float:
    """Bare-exponential WKB transmission over the given barrier region.

    The potential must satisfy V(x) >= E on the region; dips below
    E - 1e-12 raise InvalidInputError, smaller negatives are clamped to zero
    under the radical.
    """
    action = _action(_on_array(potential), energy, region, ctrl)
    return math.exp(-2.0 * math.sqrt(2.0 * ctx.mass) / ctx.hbar * action)


def find_turning_points(
    potential: Callable[[float], float],
    energy: float,
    bracket: tuple[float, float],
    scan_points: int = 512,
    x_tol: float = 1e-12,
) -> BarrierRegion:
    """Bisection-refined roots of V(x) - E from each side of the barrier.

    The bracket endpoints must be classically allowed (V < E) with a barrier
    (V > E) somewhere in between; otherwise NoBarrierError is raised.
    """
    lo, hi = bracket
    if not lo < hi:
        raise InvalidInputError(f"bad bracket {bracket!r}")
    if potential(lo) >= energy or potential(hi) >= energy:
        raise NoBarrierError(
            f"bracket endpoints must satisfy V < E; got V({lo!r}) = {potential(lo)!r}, "
            f"V({hi!r}) = {potential(hi)!r} at E = {energy!r}"
        )
    xs = [lo + (hi - lo) * i / (scan_points - 1) for i in range(scan_points)]
    above = [potential(x) > energy for x in xs]
    if not any(above):
        raise NoBarrierError(
            f"V(x) never exceeds E = {energy!r} on the bracket {bracket!r}"
        )
    first = above.index(True)
    last = len(above) - 1 - above[::-1].index(True)

    def bisect(below: float, above: float) -> float:
        # V(below) <= E < V(above), on either side of the root
        while abs(above - below) > x_tol:
            mid = 0.5 * (below + above)
            if potential(mid) > energy:
                above = mid
            else:
                below = mid
        return 0.5 * (below + above)

    x1 = bisect(xs[first - 1], xs[first])
    x2 = bisect(xs[last + 1], xs[last])
    return BarrierRegion(x1, x2, RegionSource.SOLVED_TURNING_POINTS)


def hulthen_turning_point(p, energy: float) -> float:
    """Closed-form |x| where the Hulthen branch crosses E: (1/a) log(q + v0/E)."""
    if not 0 < energy < p.v0 / (1.0 - p.q):
        raise NoBarrierError(
            f"energy {energy!r} is not below the Hulthen peak {p.v0 / (1.0 - p.q)!r}"
        )
    return math.log(p.q + p.v0 / energy) / p.a


def eckart_turning_points(p, energy: float) -> BarrierRegion:
    """Closed-form turning points of the Eckart profile.

    With t = tanh(x/a) and sech^2 = 1 - t^2, V(x) = E is the quadratic
    -v0 t^2 + ((v+ - v-)/2) t + (mean + v0 - E) = 0.  Its values at t = -1 and
    t = +1 are v- - E and v+ - E, so when E lies above both asymptotes there
    is a barrier exactly when v0 > 0, the quadratic has real roots and its
    vertex lies in (-1, 1); both roots then lie in (-1, 1).
    """
    if not energy > max(p.v_minus_inf, p.v_plus_inf):
        raise NoBarrierError(
            f"energy {energy!r} is not above both asymptotes "
            f"(V-inf = {p.v_minus_inf!r}, V+inf = {p.v_plus_inf!r})"
        )
    if p.v0 > 0:
        vertex = 0.25 * (p.v_plus_inf - p.v_minus_inf) / p.v0
        # the roots are vertex -+ sqrt(spread_sq)
        spread_sq = vertex * vertex + (0.5 * p.v_plus_inf + 0.5 * p.v_minus_inf - energy) / p.v0 + 1.0
        if spread_sq > 0 and abs(vertex) < 1.0:
            t1 = vertex - math.sqrt(spread_sq)
            t2 = vertex + math.sqrt(spread_sq)
            # x = (a/2) log((1 + t)/(1 - t)), with 1 + t1 and 1 - t2 taken from
            # the values at t = -1 and +1, -v0 (1 + t1)(1 + t2) = v- - E and
            # -v0 (1 - t1)(1 - t2) = v+ - E: accurate where a turning point lies far out
            one_plus_t1 = (energy - p.v_minus_inf) / p.v0 / (1.0 + t2)
            one_minus_t2 = (energy - p.v_plus_inf) / p.v0 / (1.0 - t1)
            if min(one_plus_t1, one_minus_t2) == 0.0:
                raise InvalidInputError(f"(E - V_inf)/v0 underflows at a turning point of {p!r}")
            return BarrierRegion(
                0.5 * p.a * math.log(one_plus_t1 / (1.0 - t1)),
                0.5 * p.a * math.log((1.0 + t2) / one_minus_t2),
                RegionSource.SOLVED_TURNING_POINTS,
            )
    raise NoBarrierError(f"V(x) never exceeds E = {energy!r} for {p!r}")


def wkb_for_potential(
    p, energy: float, ctx: PhysicsContext, solve_turning_points: bool = False
) -> float:
    """WKB transmission of the potential family ``p`` over the region it chooses.

    Delta is excluded (distribution).  The rectangular barrier always uses its
    exact edges, where the action is 2a sqrt(v0 - E).  Hulthen defaults to the
    fixed (-1, 1) window; with solve_turning_points=True it integrates between
    its closed-form turning points.  The Eckart profile always uses its
    closed-form turning points (no conventional fixed window).
    """
    action = p.wkb_action(energy, solve_turning_points)
    return math.exp(-2.0 * math.sqrt(2.0 * ctx.mass) / ctx.hbar * action)
