"""Closed-form scattering amplitudes and probabilities for the four potentials.

Each family has one array function: the delta, rectangular (both branches in one
routine) and Hulthen hypergeometric amplitudes on an array of energies, and the
Eckart transmission (plus its literature reflection formula, one energy at a
time).  The three amplitude grids return the same (t, r, errors) triple, each
point's error the first of a list of masks.  The arithmetic is numpy's on whole
arrays, save one complex quotient (``_quotient``) that divides last, so that a
subnormal denominator does not overflow.
The family classes in ``potentials`` call these; an Eckart or Hulthen argument
``p`` is read through its fields and ``p.asymptotes()`` only.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .core import PhysicsContext, first_errors
from .errors import (
    ConvergenceError,
    DegenerateEnergyError,
    InvalidInputError,
    WrongCaseError,
)
from .specfun import _hyp2f1_series, log_gamma

_LOG_FLOAT_MAX = math.log(sys.float_info.max)

# where a Hulthen point takes the connection route; see _connection_route
_CONNECTION_MIN_Q = 0.8
_CONNECTION_MAX_X = 5.0
_CONNECTION_MAX_NU_PER_LAM = 1e4
# points per kernel and log_gamma call, bounding the memory of a long sweep
_BATCH_POINTS = 256
# a Hulthen point whose |T + R - 1| exceeds this defect is ERR:noconv: the budget
# the exact results are tested to; the benchmark grids (q = 0.5 to 0.99, E <= 10)
# stay below 2.1e-12
_MAX_DEFECT = 1e-9


def asymptotic_wavenumbers(p, energy: float, ctx: PhysicsContext) -> tuple[float, float]:
    """Propagating wavenumbers (k_minus, k_plus) of the two asymptotic channels.

    k_{+-inf}^2 = 2 m (E - V_{+-inf}) / hbar^2; raises WrongCaseError if either
    channel is evanescent (E at or below an asymptotic potential value).
    """
    v_minus, v_plus = p.asymptotes()
    if energy <= max(v_minus, v_plus):
        raise WrongCaseError(
            f"energy {energy!r} does not propagate in both asymptotic channels "
            f"(V-inf = {v_minus!r}, V+inf = {v_plus!r})"
        )
    two_m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2
    return (
        math.sqrt(two_m_over_h2 * (energy - v_minus)),
        math.sqrt(two_m_over_h2 * (energy - v_plus)),
    )


def probability_arrays(t: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T = |t|^2, R = |r|^2 and the defect |T + R - 1| at each element of the complex
    arrays t and r; no finiteness check.  |t|^2 is Re(t)^2 + Im(t)^2: squaring numpy's
    complex abs carries its own rounding (up to ~5e-16 relative) into T."""
    transmission = np.square(t.real) + np.square(t.imag)
    reflection = np.square(r.real) + np.square(r.imag)
    with np.errstate(invalid="ignore"):
        return transmission, reflection, np.abs(transmission + reflection - 1.0)


def _quotient(a, b) -> np.ndarray:
    """a / b on complex arrays by Smith's method, scaled by the larger part of b, with
    the division last: numpy's / multiplies by 1/scale, which overflows where b is
    subnormal (9e-318 / 9e-318 gives inf+nanj).  A zero b gives NaN."""
    (ar, ai), (br, bi) = (np.real(a), np.imag(a)), (b.real, b.imag)
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    scale = np.where(by_real, br + bi * ratio, br * ratio + bi)
    out = np.empty(b.shape, np.complex128)
    out.real = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / scale
    out.imag = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / scale
    return out


def _amplitude_grid(energies: list, t: np.ndarray, r: np.ndarray, checks: list):
    """(t, r, errors) of a closed-form grid: per point, None or its error: that of the
    first of ``checks`` (mask, error class, message) that flags it.  A point whose t
    or r is not finite is invalid."""
    leaves = ~(np.isfinite(t) & np.isfinite(r))
    checks = [*checks, (leaves, InvalidInputError, "amplitudes at energy {!r} leave double range")]
    return t, r, first_errors(energies, checks)


def delta_amplitudes_grid(alpha: float, energies, ctx: PhysicsContext):
    """Delta potential: t = k/(k - i k0), r = i k0/(k - i k0), k0 = m alpha / hbar^2, at
    each energy.  Returns complex arrays t and r and, per point, None or its error:
    InvalidInputError for E <= 0 or not finite, or amplitudes that leave double range."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise InvalidInputError(f"delta strength alpha must be positive, got {alpha!r}")
    e = np.asarray(energies, dtype=float)
    try:
        ik0 = 1j * (ctx.mass * alpha / ctx.hbar**2)
    except ArithmeticError:  # hbar^2 leaves double range: every point is invalid
        ik0 = complex(math.nan, math.nan)
    with np.errstate(all="ignore"):
        k = np.sqrt(2.0 * ctx.mass * e) / ctx.hbar
        denom = k - ik0
        t, r = _quotient(k, denom), _quotient(ik0, denom)
        bad_energy = ~(np.isfinite(e) & (e > 0))
    return _amplitude_grid(
        e.tolist(), t, r, [(bad_energy, InvalidInputError, "scattering requires energy > 0, got {!r}")]
    )


def _rect_above(k, q, a):
    # (t, r, where x**2 overflows) of the oscillatory branch
    kpq2, kmq2, kk, qq = np.square(k + q), np.square(k - q), np.square(k), np.square(q)
    y = 2.0 * q * a
    denom = kpq2 * np.exp(1j * y) - kmq2 * np.exp(-1j * y)
    phase = np.exp(2j * k * a)
    t = _quotient(4.0 * k * q * phase, denom)
    r = _quotient(2j * (kk - qq) * np.sin(y) * phase, denom)
    overflow = ~(np.isfinite(kpq2) & np.isfinite(kmq2) & np.isfinite(kk) & np.isfinite(qq))
    return t, r, overflow


def _rect_below(k, big_q, a):
    # (t, r, where x**2 overflows) of the tunnelling branch, scaled by e^{-2Qa}
    kk, qq = np.square(k), np.square(big_q)
    exponent = -4.0 * big_q * a
    decay = np.exp(exponent)
    sh = -0.5 * np.expm1(exponent)  # e^{-2Qa} sinh(2Qa)
    ch = 0.5 * (1.0 + decay)  # e^{-2Qa} cosh(2Qa)
    denom = (kk - qq) * sh + 2j * k * big_q * ch
    phase = np.exp(-2j * k * a)
    t = _quotient(2j * big_q * k * np.sqrt(decay) * phase, denom)
    r = _quotient((kk + qq) * sh * phase, denom)
    return t, r, ~(np.isfinite(kk) & np.isfinite(qq))


def rectangular_amplitudes_grid(v0: float, a: float, energies, ctx: PhysicsContext):
    """Rectangular barrier amplitudes at each energy, by branch.

    Above the barrier (E > v0, oscillatory interior, q^2 = 2m(E - v0)/hbar^2):
      t = 4 k q e^{2ika} / [(k+q)^2 e^{2iqa} - (k-q)^2 e^{-2iqa}]
      r = 2i (k^2 - q^2) sin(2qa) e^{2ika} / [same denominator]
    Below it (0 < E < v0, tunnelling, Q^2 = 2m(v0 - E)/hbar^2):
      t = 2 i Q k e^{-2ika} / [(k^2 - Q^2) sinh(2Qa) + 2 i k Q cosh(2Qa)]
      r = (k^2 + Q^2) sinh(2Qa) e^{-2ika} / [same denominator]
    Below, numerators and denominator are multiplied by e^{-2Qa}, so sinh and cosh
    enter as (1 -+ e^{-4Qa})/2 and thick barriers cannot overflow.

    Returns complex arrays t and r and, per point, None or its error:
    DegenerateEnergyError at E = v0, where both formulas are singular;
    InvalidInputError for E <= 0 or not finite, an infinite phase 2ka (e^{2ika} has
    no value), or intermediates that leave double range.
    """
    if not (math.isfinite(v0) and v0 > 0 and math.isfinite(a) and a > 0):
        raise InvalidInputError(f"need v0 > 0 and a > 0, got v0={v0!r}, a={a!r}")
    e = np.asarray(energies, dtype=float)
    try:
        two_m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2
    except ArithmeticError:  # hbar^2 leaves double range: every point is invalid
        two_m_over_h2 = math.nan
    t, r = np.full(len(e), math.nan + 0j), np.full(len(e), math.nan + 0j)
    overflow = np.zeros(len(e), dtype=bool)
    with np.errstate(all="ignore"):
        k = np.sqrt(two_m_over_h2 * e)
        q = np.sqrt(two_m_over_h2 * np.abs(e - v0))  # v0 - E is -(E - v0) exactly
        above = e > v0
        for branch, points in ((_rect_above, above), (_rect_below, ~above)):
            t[points], r[points], overflow[points] = branch(k[points], q[points], a)
        phase_overflow = ~np.isfinite(2.0 * k * a)
        bad_energy = ~(np.isfinite(e) & (e > 0))
    return _amplitude_grid(e.tolist(), t, r, [
        (e == v0, DegenerateEnergyError, "both exact formulas are singular at E = v0 = {!r}"),
        (bad_energy, InvalidInputError, "scattering requires energy > 0, got {!r}"),
        (phase_overflow, InvalidInputError, "phase 2 k a at energy {!r} overflows double range"),
        (overflow, InvalidInputError, "energy {!r} overflows double range"),
    ])


def _scaled_cosh(y: float, scale: float) -> float:
    # cosh(y) e^{-scale}, finite for |y| <= scale
    return 0.5 * (math.exp(abs(y) - scale) + math.exp(-abs(y) - scale))


def eckart_transmission_grid(p, energies, ctx: PhysicsContext, v0=None) -> tuple[np.ndarray, list]:
    """Transmission probability for the Eckart profile ``p`` at each energy, with the
    height v0 of each point from the array ``v0`` (``p.v0`` at every point when None):
    an array and, per point, None or its error.

    T = sinh(A) sinh(B) / [sinh^2(C) + cos^2(pi s)],  A = pi k- a, B = pi k+ a,
    C = pi kbar a, s = sqrt(d), d = 1/4 - g, g = 2 m v0 a^2 / hbar^2; cos(i x) is
    cosh(x).

    Since A + B = 2C, multiplying through by 4 e^{-2C} gives the form that
    cannot overflow: T = expm1(-2A) expm1(-2B) / [expm1(-2C)^2 + 4 c^2 e^{-2C}],
    c = cos(pi s), with c^2 e^{-2C} taken in log space in the cosh branch.  For
    d >= 0, c = sin(pi (1/2 - s)) = sin(pi g / (1/2 + s)), which does not cancel
    to rounding noise as g goes to 0.

    A point's error is WrongCaseError where either asymptotic channel is evanescent,
    else InvalidInputError where T is not finite (intermediates that leave double
    range).
    """
    e = np.asarray(energies, dtype=float)
    v0 = np.full(e.size, float(p.v0)) if v0 is None else np.asarray(v0, dtype=float)
    v_minus, v_plus = p.asymptotes()
    try:
        two_m_over_h2, a_sq, h_sq = 2.0 * ctx.mass / ctx.hbar**2, p.a**2, ctx.hbar**2
    except ArithmeticError:  # Python's ** or / leaves double range: every point is invalid
        two_m_over_h2 = a_sq = h_sq = math.nan
    with np.errstate(all="ignore"):
        big_a = math.pi * np.sqrt(two_m_over_h2 * (e - v_minus)) * p.a
        big_b = math.pi * np.sqrt(two_m_over_h2 * (e - v_plus)) * p.a
        big_c = 0.5 * (big_a + big_b)
        g = 2.0 * ctx.mass * v0 * a_sq / h_sq
        d = 0.25 - g
        sine = d >= 0.0
        shape = np.empty(e.size)
        # sin of an infinite argument has no value: NaN, so the point is invalid
        sin_sq = np.square(np.sin(math.pi * g[sine] / (0.5 + np.sqrt(d[sine]))))
        shape[sine] = 4.0 * sin_sq * np.exp(-2.0 * big_c[sine])
        # 4 cosh^2(y) e^{-2C} = exp(2 (y - C + log1p(e^{-2y})))
        y = math.pi * np.sqrt(-d[~sine])
        log_shape = 2.0 * (y - big_c[~sine] + np.log1p(np.exp(-2.0 * y)))
        tiny = log_shape > _LOG_FLOAT_MAX  # T < e^{-709}: below the smallest normal double
        shape[~sine] = np.exp(np.where(tiny, 0.0, log_shape))
        num = np.expm1(-2.0 * big_a) * np.expm1(-2.0 * big_b)
        t = num / (np.square(np.expm1(-2.0 * big_c)) + shape)
    t[np.flatnonzero(~sine)[tiny]] = 0.0
    return t, first_errors(e.tolist(), [
        (e <= max(v_minus, v_plus), WrongCaseError,
         f"energy {{!r}} does not propagate in both asymptotic channels "
         f"(V-inf = {v_minus!r}, V+inf = {v_plus!r})"),
        (~np.isfinite(t), InvalidInputError, "Eckart transmission at energy {!r} leaves double range"),
    ])


def eckart_reflection_paper(
    p, energy: float, ctx: PhysicsContext, convention: str = "paper"
) -> float:
    """Literature reflection formula for the Eckart profile (diagnostic).

    R = [cosh(pi a (k - w)) - cos(pi b)] / [cosh(pi a (k + w)) - cos(pi b)]
    with w = sqrt(k+^2 + k-^2 - k^2) and b = sqrt(1 - 8 m v0 a^2 / hbar^2).

    The symbol k is ambiguous when the asymptotes differ: ``convention="paper"``
    takes k = sqrt(2 m E)/hbar verbatim, ``convention="asymptotic"`` reads it as
    the incoming k- (which makes w = k+); the two coincide whenever one
    asymptote is zero.  Neither reproduces 1 - T in general, and in the
    cosh branch (v0 > hbar^2/(8 m a^2)) the quotient can exceed 1, so
    comparison tables use (T, 1 - T) as the primary pair.

    Numerator and denominator are multiplied by e^{-M}, M the largest cosh
    argument, so thick or strong barriers cannot overflow.
    """
    k_minus, k_plus = asymptotic_wavenumbers(p, energy, ctx)
    if convention == "paper":
        if energy <= 0:
            raise InvalidInputError(
                f"the verbatim convention k = sqrt(2mE)/hbar needs E > 0, got {energy!r}"
            )
        k = math.sqrt(2.0 * ctx.mass * energy) / ctx.hbar
    elif convention == "asymptotic":
        k = k_minus
    else:
        raise InvalidInputError(f"convention must be 'paper' or 'asymptotic', got {convention!r}")
    w_sq = k_plus**2 + k_minus**2 - k**2
    if w_sq < 0:
        raise InvalidInputError(
            f"reflection formula needs k+^2 + k-^2 - k^2 >= 0, got {w_sq!r}"
        )
    w = math.sqrt(w_sq)
    y_num, y_den = math.pi * p.a * (k - w), math.pi * p.a * (k + w)
    d = 1.0 - 8.0 * ctx.mass * p.v0 * p.a**2 / ctx.hbar**2
    # cos(pi b), which is cosh(pi sqrt(-d)) once d < 0
    scale = max(abs(y_num), abs(y_den))
    if d >= 0.0:
        # cos of an infinite argument (d = inf) has no value: NaN
        cb = math.cos(math.pi * math.sqrt(d)) * math.exp(-scale) if d < math.inf else math.nan
    else:
        y_b = math.pi * math.sqrt(-d)
        scale = max(scale, y_b)
        cb = _scaled_cosh(y_b, scale)
    num = _scaled_cosh(y_num, scale) - cb
    den = _scaled_cosh(y_den, scale) - cb
    return num / den


def _hulthen_parameters(p, e, mass: float):
    """(k, mu = ik/a, nu = ip/a, lam = i v0/(a q)) at each energy of the array e, with
    k^2 = E^2 - m^2 and p^2 = (E + v0/q)^2 - m^2 (quadratic in E, unlike the other
    potentials; verbatim).  NaN where E <= m, not finite past double range."""
    with np.errstate(all="ignore"):
        k = np.sqrt(e**2 - mass * mass)
        p_wave = np.sqrt((e + p.v0 / p.q) ** 2 - mass * mass)
        lam = np.full(len(e), 1j * (np.float64(p.v0) / (np.float64(p.a) * p.q)))
        return k, 1j * (k / p.a), 1j * (p_wave / p.a), lam


def _connection_route(q: float, lam, nu):
    """Whether the factors of each point go through the z -> 1 - z connection.

    The direct series in q needs ~35/(-ln q) terms, the two connection series in
    1 - q ~35/(-ln(1 - q)) plus a few per unit of (1 - q)|nu|, and the Gamma
    ratios cost about as much again: on 100-energy grids the connection is
    faster from q = 0.8 on, slower below 0.75.  |nu| bounds every parameter,
    since |lam|, |mu| < |nu|.  Against the 40-digit oracle, a connection factor
    is off by <= 4e-12 for (1 - q)|nu| <= 4, 1e-11 at 5 and 1e-10 at 6
    (cancellation inside its series), and by ~20 eps |nu|/min(1, |lam|) from
    log_gamma, whose error the two terms amplify as c - a - b = +-2 lam +
    integer nears an integer; the bounds keep a factor within ~1e-10.
    """
    nu = np.abs(nu)
    return ((q >= _CONNECTION_MIN_Q) & ((1.0 - q) * nu <= _CONNECTION_MAX_X)
            & (nu <= _CONNECTION_MAX_NU_PER_LAM * np.minimum(1.0, np.abs(lam))))


def _direct_factors(rows, q: float):
    """Each row's 2F1(a, b; c; q) by its power series, and whether it converged."""
    values, _, converged, _ = zip(*_hyp2f1_series(rows, q))
    return np.array(values), np.array(converged)


def _connection_factors(rows, q: float):
    """Each row's 2F1(a, b; c; q) by DLMF 15.8.4, and whether both its series converged.

    F(a, b; c; q) = G1 F(a, b; s' ; 1 - q) + (1 - q)^s G2 F(c - a, c - b; s + 1; 1 - q)
    with s = c - a - b, s' = 1 - s, G1 = Gamma(c) Gamma(s) / (Gamma(c - a) Gamma(c - b))
    and G2 = Gamma(c) Gamma(-s) / (Gamma(a) Gamma(b)).  For the Hulthen rows
    s = +-2 lam + integer is never an integer, and a Gamma pole in a
    denominator (a parameter rounded onto one) gives its term the limit 0.
    """
    a, b, c = rows.T
    s = c - a - b
    pairs = np.concatenate([np.stack([a, b, 1.0 - s], 1), np.stack([c - a, c - b, 1.0 + s], 1)])
    (u1, u2), (ok1, ok2) = (x.reshape(2, -1) for x in _direct_factors(pairs, 1.0 - q))
    lg_c, lg_s, lg_ms, lg_ca, lg_cb, lg_a, lg_b = log_gamma(np.stack([c, s, -s, c - a, c - b, a, b]))
    with np.errstate(over="ignore", invalid="ignore"):
        values = (np.exp(lg_c + lg_s - lg_ca - lg_cb) * u1
                  + np.exp(lg_c + lg_ms - lg_a - lg_b + s * math.log1p(-q)) * u2)
    return values, ok1 & ok2


def hulthen_amplitudes_grid(p, energies, mass: float = 1.0):
    """Hulthen amplitudes at each energy: complex arrays t and r and, per point, None
    or its error.

    Each point takes its six 2F1 factors by the route _connection_route picks from
    its own (q, lam, nu): the direct series in q, or two series in 1 - q joined by
    the connection formula.  Up to _BATCH_POINTS points of a route share one
    lockstep kernel call, which gives each series its own result, and the rest is
    elementwise, so no point depends on the others.  A point's error is the first
    mask that flags it, in this order: E <= m, parameters past double range
    (invalid), a series that did not converge (noconv), amplitudes past double
    range (invalid), |T + R - 1| > 1e-9 (noconv).
    """
    if not (math.isfinite(mass) and mass > 0):
        raise InvalidInputError(f"mass must be positive, got {mass!r}")
    e = np.asarray(energies, dtype=float)
    k, mu, nu, lam = _hulthen_parameters(p, e, mass)
    propagates = e > mass
    leaves = ~(np.isfinite(mu) & np.isfinite(nu) & np.isfinite(lam))  # NaN where E <= m
    live = propagates & ~leaves
    connection = live & _connection_route(p.q, lam, nu)
    f = np.full((6, len(e)), np.nan, np.complex128)
    converged = np.ones((6, len(e)), dtype=bool)
    with np.errstate(all="ignore"):
        # (a, b, c) of the 2F1(a, b; c; q) factors f1..f6 of each point
        rows = np.moveaxis(np.array([
            (1 + lam - mu - nu, 1 + lam - mu + nu, 2 - 2 * mu),
            (lam + mu - nu, lam + mu + nu, 1 + 2 * mu),
            (1 + lam + mu - nu, 1 + lam + mu + nu, 2 + 2 * mu),
            (lam - mu - nu, lam - mu + nu, 1 - 2 * mu),
            (1 - lam - mu - nu, 1 - lam - mu + nu, 2 - 2 * mu),
            (-lam - mu - nu, -lam - mu + nu, 1 - 2 * mu),
        ]), -1, 0)
        for points, factors in ((np.flatnonzero(live & ~connection), _direct_factors),
                                (np.flatnonzero(connection), _connection_factors)):
            for j in range(0, len(points), _BATCH_POINTS):
                batch = points[j : j + _BATCH_POINTS]
                values, ok = factors(rows[batch].reshape(-1, 3), p.q)
                f[:, batch], converged[:, batch] = values.reshape(-1, 6).T, ok.reshape(-1, 6).T
        f1, f2, f3, f4, f5, f6 = f
        a_plus = lam**2 + 2 * lam * mu + mu**2 - nu**2
        a_minus = lam**2 - 2 * lam * mu + mu**2 - nu**2
        denom = p.q * a_plus * f5 * f4 + p.q * a_minus * f1 * f6 - (2 * mu) * (1 - 2 * mu) * f4 * f6
        q_pow_2mu = np.exp(2 * mu * math.log(p.q))
        # the source's three-term t numerator, which cancels by up to ~1e72 in deep tunnelling,
        # is q(1-4mu^2) W(z^mu f2, z^-mu f4)(q) = -2mu(1-4mu^2)(1-q)^(-2lam) by Abel's identity
        # (DLMF 15.10.3); the prefactor (1-q)^(2lam) q^(2mu)/(1+2mu) of the source then leaves
        t = -(2 * mu) * (1 - 2 * mu) * q_pow_2mu / denom
        # sqrt((E + k)/(E - k)) with E - k = m^2/(E + k): no cancellation once k rounds to E
        flux = (e + k) / mass
        r_num = (1 + 2 * mu) * f2 * f5 + (1 - 2 * mu) * f3 * f6
        r = -p.q * q_pow_2mu * a_plus / (1 + 2 * mu) * flux * r_num / denom
    transmission, reflection, defect = probability_arrays(t, r)
    return _amplitude_grid(e.tolist(), t, r, [
        (~propagates, WrongCaseError, f"propagation requires energy > mass = {mass!r}, got {{!r}}"),
        (leaves, InvalidInputError, "Hulthen parameters at energy {!r} leave double range"),
        (~converged.all(axis=0), ConvergenceError, "a 2F1 series at energy {!r} did not converge"),
        # T is finite only where t is and |t|^2 stays in double range
        (~(np.isfinite(transmission) & np.isfinite(reflection)), InvalidInputError,
         "Hulthen amplitudes at energy {!r} leave double range"),
        (defect > _MAX_DEFECT, ConvergenceError, "Hulthen amplitudes at energy {!r} miss unitarity"),
    ])
