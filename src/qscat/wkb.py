"""WKB tunneling transmission of the potential families, with turning-point care.

T_w = exp(-2 sqrt(2m/hbar^2) * integral of sqrt(V(x) - E) over the barrier).

The family's ``wkb`` takes its actions at an array of energies from
``p.wkb_actions``, which uses what the family has in closed form: the rectangular
action is 2a sqrt(v0 - E), and the Hulthen and Eckart turning points below solve
V(x) = E exactly, as arrays.  Every other action goes through ``_actions`` and one
routine: a Gauss-Legendre rule (48 against 96 nodes, halving an interval until
they agree) that integrates the intervals of all energies in one call and refines
each energy on its own; a region bounded by turning points is split at its
midpoint and substituted u^2 = x - x1 (resp. x2 - x), which turns the square-root
edge into a smooth function of u.  ``wkb_for_potential``, the one-energy case
of ``p.wkb``, stays public for the benchmark harness in ``perfbench/``.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .core import PhysicsContext, first_errors
from .errors import ConvergenceError, InvalidInputError, NoBarrierError

# floating-point noise below the barrier top is clamped, anything worse rejected
_NEGATIVE_SLACK = 1e-12

# Gauss-Legendre orders compared for the error estimate of one interval, the
# absolute tolerance of an owner's integral and the most halvings of an interval
_GL_COARSE, _GL_FINE = 48, 96
_ABS_TOL = 1e-10
_MAX_DEPTH = 40
# owners per block of one quadrature call, bounding the memory of a long sweep
_BATCH_OWNERS = 32


@functools.cache
def _gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes of both orders on [-1, 1] in one array, and their weights in another.

    Built on first use, so importing qscat does not load numpy.polynomial.
    """
    x_coarse, w_coarse = np.polynomial.legendre.leggauss(_GL_COARSE)
    x_fine, w_fine = np.polynomial.legendre.leggauss(_GL_FINE)
    return np.concatenate((x_coarse, x_fine)), np.concatenate((w_coarse, w_fine))


def _integrate_gauss_legendre(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray], edges: np.ndarray
) -> tuple[np.ndarray, list]:
    """Integral of an array function f from edges[i, 0] to edges[i, -1] for each owner i,
    48 against 96 Gauss-Legendre nodes: an array and, per owner, None or its error.

    f(x, rows) takes the nodes x of intervals, one row each, and each row's owner.  An
    owner starts from the k intervals between its edges (f need not be smooth at the
    inner ones), each with a 1/k share of _ABS_TOL (1e-10).  Intervals whose two estimates
    differ by more than their share are halved, at most _MAX_DEPTH (40) times; one level of
    up to _BATCH_OWNERS owners is one call of f.  An owner that does not converge gets
    a ConvergenceError with the best estimate of its integral.  It also stops once its
    unresolved difference fails to halve with the interval: the halved shares can then
    never be met (rounding noise in a large action does this).  An integral that
    leaves double range (inf or NaN) is an InvalidInputError.  Rows are summed one at a
    time and owners by bincount, never by a matrix product whose rounding depends on
    the batch, so each owner's result is bit for bit that of its intervals alone.
    """
    nodes, weights = _gauss_legendre_rule()
    n, k = edges.shape[0], edges.shape[1] - 1
    values, errors = np.empty(n), [None] * n
    for start in range(0, n, _BATCH_OWNERS):
        block = edges[start : start + _BATCH_OWNERS]
        m, a, b = block.shape[0], block[:, :-1].ravel(), block[:, 1:].ravel()
        local, tol, total, pending_before = np.arange(m).repeat(k), _ABS_TOL / k, 0.0, math.inf
        for depth in range(_MAX_DEPTH + 1):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            wfx = f(mid[:, None] + half[:, None] * nodes, local + start) * weights
            coarse = half * np.add.reduce(wfx[:, :_GL_COARSE], axis=1)
            fine = half * np.add.reduce(wfx[:, _GL_COARSE:], axis=1)
            residual = np.abs(fine - coarse)
            done = residual <= tol
            if np.logical_and.reduce(done):
                total = total + np.bincount(local, fine, m)
                break
            total = total + np.bincount(local[done], fine[done], m)
            pending = np.bincount(local[~done], residual[~done], m)
            # an open interval has a residual above its share >= 0, or NaN
            stop = ~(pending <= 0.0) & ((depth == _MAX_DEPTH) | ~(pending <= 0.5 * pending_before))
            if stop.any():
                total[stop] += np.bincount(local[~done], fine[~done], m)[stop]
                for i in np.flatnonzero(stop).tolist():
                    errors[start + i] = ConvergenceError(
                        f"Gauss-Legendre quadrature did not reach abs_tol={_ABS_TOL:g} after "
                        f"{depth} of at most {_MAX_DEPTH} halvings (achieved estimate "
                        f"{total[i].item()!r}, residual ~{pending[i]:.3e})",
                        estimate=total[i].item(),
                        last_term=pending[i].item(),
                    )
            keep = ~done & ~stop[local]
            if not keep.any():
                break
            a, b, mid, local = a[keep], b[keep], mid[keep], np.tile(local[keep], 2)
            a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
            tol, pending_before = 0.5 * tol, pending
        values[start : start + m] = total
    for i, value in enumerate(values.tolist()):
        if not math.isfinite(value):
            errors[i] = InvalidInputError(f"the integral leaves double range (estimate {value!r})")
    return values, errors


def _actions(v, energies: np.ndarray, x1, x2, breaks: tuple[float, ...] = (),
             checks: list = ()) -> tuple[np.ndarray, list]:
    """Integral of sqrt(V(x) - E) over the region (x1, x2) at each energy of the array:
    an array and, per energy, None or its error; the first of ``checks`` (mask, error
    class, message) comes before those of the quadrature.  v is an array function;
    fixed limits x1 and x2 are numbers, solved turning points arrays of one per energy.

    V must satisfy V >= E on the region; dips below E - 1e-12 are an InvalidInputError,
    smaller negatives are clamped to zero under the radical.  Fixed limits are
    integrated in x, split at ``breaks``, with V also checked at both ends (the Gauss
    nodes are interior points).  Between solved turning points the region is split at
    its midpoint and substituted u^2 = x - x1 (resp. x2 - x), which turns the
    square-root edge into a smooth function of u; the two halves are s = u in [0, L]
    and s = -u in [-R, 0] of one integral, split at s = 0.  Values of V or of the
    integral that overflow do so silently; an infinite action is an InvalidInputError.
    """
    below = np.zeros(energies.size, dtype=bool)  # V < E at a node

    def sqrt_gap(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        gap = v(x) - energies[rows][:, None]
        bad = gap < -_NEGATIVE_SLACK
        if np.logical_or.reduce(bad, axis=None):
            below[rows[bad.any(axis=1)]] = True
            gap[bad] = math.nan  # which stops the quadrature of these energies
        return np.sqrt(np.maximum(gap, 0.0))

    def integrand(s: np.ndarray, rows: np.ndarray) -> np.ndarray:
        ss = s * s
        x = np.where(s > 0.0, x1[rows][:, None] + ss, x2[rows][:, None] - ss)
        return 2.0 * np.abs(s) * sqrt_gap(x, rows)

    if np.ndim(x1) == 0:
        below |= v(np.array([x1, x2])).min() - energies < -_NEGATIVE_SLACK
        actions, errors = _integrate_gauss_legendre(sqrt_gap, np.tile((x1, *breaks, x2), (energies.size, 1)))
    else:
        mid = 0.5 * (x1 + x2)
        edges = np.array((-np.sqrt(x2 - mid), 0.0 * mid, np.sqrt(mid - x1))).T
        actions, errors = _integrate_gauss_legendre(integrand, edges)
    checks = [*checks, (below, InvalidInputError, "V(x) < E = {!r} inside the barrier region; "
                        "shrink the region or use solved turning points")]
    return actions, [c or e for c, e in zip(first_errors(energies.tolist(), checks), errors)]


def hulthen_turning_points(p, energies: np.ndarray) -> tuple[np.ndarray, list]:
    """Closed-form |x| where the Hulthen branch crosses each energy, (1/a) log(q + v0/E),
    and the check (mask, error class, message) of the energies not below the peak."""
    peak = p.v0 / (1.0 - p.q)
    edge = np.log(p.q + p.v0 / energies) / p.a
    return edge, [(~((0 < energies) & (energies < peak)), NoBarrierError,
                   f"energy {{!r}} is not below the Hulthen peak {peak!r}")]


def eckart_turning_points(p, energies: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """Closed-form turning points x1 and x2 of the Eckart profile at each energy, and the
    checks (mask, error class, message) of the energies that have none.

    With t = tanh(x/a) and sech^2 = 1 - t^2, V(x) = E is the quadratic
    -v0 t^2 + ((v+ - v-)/2) t + (mean + v0 - E) = 0.  Its values at t = -1 and
    t = +1 are v- - E and v+ - E, so when E lies above both asymptotes there
    is a barrier exactly when v0 > 0, the quadratic has real roots and its
    vertex lies in (-1, 1); both roots then lie in (-1, 1).
    """
    e, vm, vp = energies, p.v_minus_inf, p.v_plus_inf
    v0 = p.v0 if p.v0 > 0 else math.nan  # no barrier at any energy
    vertex = 0.25 * (vp - vm) / v0
    # the roots are vertex -+ sqrt(spread_sq)
    spread_sq = vertex * vertex + (0.5 * vp + 0.5 * vm - e) / v0 + 1.0
    t1, t2 = vertex - np.sqrt(spread_sq), vertex + np.sqrt(spread_sq)
    # x = (a/2) log((1 + t)/(1 - t)), with 1 + t1 and 1 - t2 taken from
    # the values at t = -1 and +1, -v0 (1 + t1)(1 + t2) = v- - E and
    # -v0 (1 - t1)(1 - t2) = v+ - E: accurate where a turning point lies far out
    one_plus_t1 = (e - vm) / v0 / (1.0 + t2)
    one_minus_t2 = (e - vp) / v0 / (1.0 - t1)
    x1 = 0.5 * p.a * np.log(one_plus_t1 / (1.0 - t1))
    x2 = 0.5 * p.a * np.log((1.0 + t2) / one_minus_t2)
    above = e > max(vm, vp)
    return x1, x2, [
        (~above, NoBarrierError,
         f"energy {{!r}} is not above both asymptotes (V-inf = {vm!r}, V+inf = {vp!r})"),
        (~(above & (spread_sq > 0) & (abs(vertex) < 1.0)), NoBarrierError,
         f"V(x) never exceeds E = {{!r}} for {p!r}"),
        (np.minimum(one_plus_t1, one_minus_t2) == 0.0, InvalidInputError,
         f"(E - V_inf)/v0 underflows at a turning point of {p!r}"),
    ]


def wkb_for_potential(
    p, energy: float, ctx: PhysicsContext, solve_turning_points: bool = False
) -> float:
    """WKB transmission of the potential family ``p`` over the region it chooses: the
    one-energy case of ``p.wkb``.

    Delta is excluded (distribution).  The rectangular barrier always uses its
    exact edges, where the action is 2a sqrt(v0 - E).  Hulthen defaults to the
    fixed (-1, 1) window; with solve_turning_points=True it integrates between
    its closed-form turning points.  The Eckart profile always uses its
    closed-form turning points (no conventional fixed window).
    """
    result = p.wkb([energy], ctx, solve_turning_points)
    if result.errors[0] is not None:
        raise result.errors[0]
    return result.transmission.item()
