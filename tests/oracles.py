"""Independent oracles used only by the test suite.

These deliberately avoid the library's own code paths: boundary matching is
done by a numerical linear solve, smooth-potential scattering by direct ODE
integration (scipy), and special functions by mpmath at raised precision.
The one exception, ``eckart_transmission_amplitude``, says why.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

from qscat.errors import InvalidInputError
from qscat.specfun import log_gamma


@dataclass(frozen=True)
class Probabilities:
    transmission: float
    reflection: float


def _require_finite(name: str, z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise InvalidInputError(f"non-finite amplitude component in {name}: {z!r}")


def probabilities_from_amplitudes(a) -> Probabilities:
    """Squared moduli T = |t|^2 and R = |r|^2 of an amplitude pair (fields t and r), in scalar
    Python arithmetic (``qscat.exact.probability_arrays`` is the array form, equal to
    rounding).  Non-finite amplitudes raise InvalidInputError.

    Values are returned raw (no clamping) so that property tests see the
    actual computed numbers; clamping to [0, 1] is a display concern.
    """
    _require_finite("t", complex(a.t))
    _require_finite("r", complex(a.r))
    return Probabilities(abs(complex(a.t)) ** 2, abs(complex(a.r)) ** 2)


def unitarity_defect(p: Probabilities) -> float:
    """|T + R - 1|; zero for exact elastic scattering."""
    return abs(p.transmission + p.reflection - 1.0)


def rectangular_matching(v0: float, a: float, energy: float, hbar=1.0, mass=1.0):
    """Transmission/reflection via a numeric 4x4 boundary-matching solve.

    Incident wave e^{ikx} from the left; interior wavenumber is complex for
    tunneling.  Returns (T, R).
    """
    k = math.sqrt(2.0 * mass * energy) / hbar
    q = cmath.sqrt(complex(2.0 * mass * (energy - v0))) / hbar
    eika = cmath.exp(1j * k * a)
    eiqa = cmath.exp(1j * q * a)
    # unknowns (r, A, B, t)
    m = np.array(
        [
            [eika, -1.0 / eiqa, -eiqa, 0.0],
            [-1j * k * eika, -1j * q / eiqa, 1j * q * eiqa, 0.0],
            [0.0, eiqa, 1.0 / eiqa, -eika],
            [0.0, 1j * q * eiqa, -1j * q / eiqa, -1j * k * eika],
        ],
        dtype=complex,
    )
    rhs = np.array([-1.0 / eika, -1j * k / eika, 0.0, 0.0], dtype=complex)
    r, _, _, t = np.linalg.solve(m, rhs)
    return abs(t) ** 2, abs(r) ** 2


def schrodinger_transmission(
    potential, energy: float, x_left: float, x_right: float, hbar=1.0, mass=1.0, rtol=1e-11
):
    """Transmission by integrating psi'' = (2m/hbar^2)(V - E) psi right to left.

    The potential must have settled to constants at x_left/x_right.  Returns
    the flux-normalised T.
    """
    two_m_over_h2 = 2.0 * mass / hbar**2
    k_out = math.sqrt(two_m_over_h2 * (energy - potential(x_right)))
    k_in = math.sqrt(two_m_over_h2 * (energy - potential(x_left)))

    def rhs(x, y):
        psi, dpsi = y
        return [dpsi, two_m_over_h2 * (potential(x) - energy) * psi]

    y0 = [cmath.exp(1j * k_out * x_right), 1j * k_out * cmath.exp(1j * k_out * x_right)]
    sol = solve_ivp(
        rhs,
        (x_right, x_left),
        np.array(y0, dtype=complex),
        method="DOP853",
        rtol=rtol,
        atol=1e-13,
        dense_output=False,
    )
    psi, dpsi = sol.y[0, -1], sol.y[1, -1]
    # decompose into incoming/outgoing plane waves at x_left
    a_coeff = 0.5 * (psi + dpsi / (1j * k_in)) * cmath.exp(-1j * k_in * x_left)
    return (k_out / k_in) / abs(a_coeff) ** 2


def mp_loggamma(z: complex, dps: int = 34) -> complex:
    with mp.workdps(dps):
        return complex(mp.loggamma(mp.mpc(z)))


def mp_hyp2f1(a: complex, b: complex, c: complex, z: float, dps: int = 34) -> complex:
    with mp.workdps(dps):
        return complex(mp.hyp2f1(mp.mpc(a), mp.mpc(b), mp.mpc(c), mp.mpf(z)))


def hyp2f1_series_reference(a, b, c, z, rel_tol, max_terms):
    """Gauss 2F1 series term by term in plain Python, the reference for the
    numpy block kernel behind ``qscat.specfun.gauss_2f1``.

    Same stopping rule: three consecutive terms below rel_tol times the
    running sum.  Returns (value, terms_used, converged, last_term_mag).
    """
    # term ratio: t_{n+1}/t_n = (a+n)(b+n) z / ((c+n)(n+1))
    s = 1.0 + 0.0j
    term = 1.0 + 0.0j
    small = 0
    n = 0
    while n < max_terms:
        term = term * ((a + n) * (b + n) * z / ((c + n) * (n + 1.0)))
        s = s + term
        if abs(term) < rel_tol * abs(s):
            small += 1
            if small == 3:
                return s, n + 1, True, abs(term)
        else:
            small = 0
        n += 1
    return s, n, False, abs(term)


def scalar_delta_amplitudes(alpha, energy, ctx) -> tuple[complex, complex]:
    """Delta amplitudes (t, r) in scalar Python arithmetic, one energy at a time: the
    reference that ``qscat.delta_amplitudes_grid`` matches to rounding, with an error
    exactly where this raises or is not finite."""
    k = math.sqrt(2.0 * ctx.mass * energy) / ctx.hbar
    k0 = ctx.mass * alpha / ctx.hbar**2
    denom = k - 1j * k0
    return k / denom, 1j * k0 / denom


def scalar_rectangular_amplitudes(v0, a, energy, ctx) -> tuple[complex, complex]:
    """Rectangular barrier amplitudes (t, r) in scalar Python math/cmath, one energy
    at a time, above (E > v0) or below the barrier: the reference that
    ``qscat.rectangular_amplitudes_grid`` matches to rounding, with an error exactly
    where this raises or is not finite.  Raises
    what the scalar arithmetic raises (OverflowError from **, ZeroDivisionError,
    ValueError from the exponential of an infinite phase)."""
    two_m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2
    k = math.sqrt(two_m_over_h2 * energy)
    if energy > v0:
        q = math.sqrt(two_m_over_h2 * (energy - v0))
        denom = (k + q) ** 2 * cmath.exp(2j * q * a) - (k - q) ** 2 * cmath.exp(-2j * q * a)
        phase = cmath.exp(2j * k * a)
        t = 4.0 * k * q * phase / denom
        r = 2j * (k**2 - q**2) * math.sin(2.0 * q * a) * phase / denom
        return t, r
    big_q = math.sqrt(two_m_over_h2 * (v0 - energy))
    decay = math.exp(-4.0 * big_q * a)
    sh = -0.5 * math.expm1(-4.0 * big_q * a)
    ch = 0.5 * (1.0 + decay)
    denom = (k**2 - big_q**2) * sh + 2j * k * big_q * ch
    phase = cmath.exp(-2j * k * a)
    t = 2j * big_q * k * math.sqrt(decay) * phase / denom
    r = (k**2 + big_q**2) * sh * phase / denom
    return t, r


def scalar_eckart_transmission(p, energy, ctx) -> float:
    """Eckart transmission in scalar Python math, one point at a time: the reference
    that ``qscat.exact.eckart_transmission_grid`` matches to rounding, with an error
    exactly where this raises or is not finite.
    Raises what the scalar arithmetic raises (OverflowError from **,
    ZeroDivisionError, ValueError from the sine of an infinite argument), and
    ValueError where a channel is evanescent."""
    if energy <= max(p.v_minus_inf, p.v_plus_inf):
        raise ValueError("evanescent channel")
    two_m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2
    big_a = math.pi * math.sqrt(two_m_over_h2 * (energy - p.v_minus_inf)) * p.a
    big_b = math.pi * math.sqrt(two_m_over_h2 * (energy - p.v_plus_inf)) * p.a
    big_c = 0.5 * (big_a + big_b)
    g = 2.0 * ctx.mass * p.v0 * p.a**2 / ctx.hbar**2
    d = 0.25 - g
    if d >= 0.0:
        shape = 4.0 * math.sin(math.pi * g / (0.5 + math.sqrt(d))) ** 2 * math.exp(-2.0 * big_c)
    else:
        y = math.pi * math.sqrt(-d)
        log_shape = 2.0 * (y - big_c + math.log1p(math.exp(-2.0 * y)))
        if log_shape > math.log(sys.float_info.max):
            return 0.0
        shape = math.exp(log_shape)
    num = math.expm1(-2.0 * big_a) * math.expm1(-2.0 * big_b)
    return num / (math.expm1(-2.0 * big_c) ** 2 + shape)


def mp_hulthen_probabilities(energy, mass, v0, q, a, dps: int = 40):
    """High-precision evaluation of the Hulthen hypergeometric amplitudes.

    The source's formula, with t's numerator summed from its three products.
    In deep tunnelling those cancel by up to ~1e72 (T = 6.1e-145 at v0 = 12.18,
    a = 0.136, q = 0.99, m = 4.416, E = 4.4227), so there 40 to 60 digits can
    leave a wrong T (5.5e-118 at 60 digits); checks of such points pass dps=100.
    """
    with mp.workdps(dps):
        energy, mass, v0, q, a = map(mp.mpf, (energy, mass, v0, q, a))
        k = mp.sqrt(energy**2 - mass**2)
        p = mp.sqrt((energy + v0 / q) ** 2 - mass**2)
        mu = mp.mpc(0, 1) * k / a
        nu = mp.mpc(0, 1) * p / a
        lam = mp.mpc(0, 1) * v0 / (a * q)

        def f(x, y, c):
            return mp.hyp2f1(x, y, c, q)

        f1 = f(1 + lam - mu - nu, 1 + lam - mu + nu, 2 - 2 * mu)
        f2 = f(lam + mu - nu, lam + mu + nu, 1 + 2 * mu)
        f3 = f(1 + lam + mu - nu, 1 + lam + mu + nu, 2 + 2 * mu)
        f4 = f(lam - mu - nu, lam - mu + nu, 1 - 2 * mu)
        f5 = f(1 - lam - mu - nu, 1 - lam - mu + nu, 2 - 2 * mu)
        f6 = f(-lam - mu - nu, -lam - mu + nu, 1 - 2 * mu)
        a_plus = lam**2 + 2 * lam * mu + mu**2 - nu**2
        a_minus = lam**2 - 2 * lam * mu + mu**2 - nu**2
        denom = q * a_plus * f5 * f4 + q * a_minus * f1 * f6 - (2 * mu) * (1 - 2 * mu) * f4 * f6
        t_num = (
            q * (1 + 2 * mu) * a_minus * f1 * f2
            - q * (1 - 2 * mu) * a_plus * f3 * f4
            - (1 - 2 * mu) * (2 * mu) * (1 + 2 * mu) * f2 * f4
        )
        t = (1 - q) ** (2 * lam) * q ** (2 * mu) / (1 + 2 * mu) * t_num / denom
        r_num = (1 + 2 * mu) * f2 * f5 + (1 - 2 * mu) * f3 * f6
        r = -(q ** (1 + 2 * mu)) * a_plus / (1 + 2 * mu) * mp.sqrt((energy + k) / (energy - k)) * r_num / denom
        return float(abs(t) ** 2), float(abs(r) ** 2)


def mp_eckart_transmission(v_minus, v_plus, v0, a, energy, dps: int = 40) -> float:
    """Eckart |t|^2 from the gamma-function amplitude (hbar = m = 1).

    t = Gamma(i kbar a + 1/2 + s) Gamma(i kbar a + 1/2 - s)
        / (sqrt(k+ k-) a Gamma(i k+ a) Gamma(i k- a)) up to a phase,
    s = sqrt(1/4 - 2 v0 a^2).
    """
    with mp.workdps(dps):
        v_minus, v_plus, v0, a, energy = map(mp.mpf, (v_minus, v_plus, v0, a, energy))
        k_minus = mp.sqrt(2 * (energy - v_minus))
        k_plus = mp.sqrt(2 * (energy - v_plus))
        k_bar = (k_minus + k_plus) / 2
        s = mp.sqrt(mp.mpc(mp.mpf(1) / 4 - 2 * v0 * a**2))
        i = mp.mpc(0, 1)
        num = mp.gamma(i * k_bar * a + mp.mpf(1) / 2 + s) * mp.gamma(i * k_bar * a + mp.mpf(1) / 2 - s)
        den = mp.gamma(i * k_plus * a) * mp.gamma(i * k_minus * a)
        return float(abs(num / den) ** 2 / (k_plus * k_minus * a**2))


def mp_wkb_transmission(potential, energy, x1, x2, breaks=(), dps: int = 30) -> float:
    """exp(-2 sqrt(2) * integral of sqrt(V - E) over [x1, x2]) by mpmath.quad (hbar = m = 1).

    ``potential`` maps an mpf to an mpf; ``breaks`` are interior points where
    V is not smooth, handed to mpmath as subinterval ends.
    """
    with mp.workdps(dps):
        energy = mp.mpf(energy)

        def integrand(x):
            return mp.sqrt(max(potential(x) - energy, 0))

        action = mp.quad(integrand, [mp.mpf(x1), *map(mp.mpf, breaks), mp.mpf(x2)])
        return float(mp.exp(-2 * mp.sqrt(2) * action))


class ClosedFormBound(NamedTuple):
    lower_bound: float
    integral_value: float


def rectangular_bound_closed_form(v0: float, a: float, energy: float, ctx) -> ClosedFormBound:
    """Closed form sech^2(k0^2 a / sqrt(k0^2 + q^2)) for the rectangular barrier, E > v0.

    sech^2(x) is taken as 4 e^{-2x} / (1 + e^{-2x})^2, finite for any x >= 0.
    """
    if not (v0 > 0 and a > 0):
        raise InvalidInputError(f"need v0 > 0 and a > 0, got v0={v0!r}, a={a!r}")
    if not energy > v0:
        raise InvalidInputError(
            f"closed-form bound applies above the barrier, got E={energy!r} <= v0={v0!r}"
        )
    two_m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2
    k0_sq = two_m_over_h2 * v0
    q_sq = two_m_over_h2 * (energy - v0)
    arg = k0_sq * a / math.sqrt(k0_sq + q_sq)
    t = math.exp(-2.0 * arg)
    return ClosedFormBound(4.0 * t / (1.0 + t) ** 2, arg)


def eckart_transmission_amplitude(p, energy: float, ctx) -> complex:
    """Gamma-function form of the Eckart transmission amplitude.

    t = -i/(sqrt(k+ k-) a) * G(i kbar a + 1/2 + s) G(i kbar a + 1/2 - s)
        / (G(i k+ a) G(i k- a))

    |t|^2 reproduces ``qscat.eckart_transmission_grid`` by an independent route;
    it uses qscat's own ``log_gamma`` on purpose, to exercise it in situ.
    """
    two_m_over_h2 = 2.0 * ctx.mass / ctx.hbar**2
    k_minus = math.sqrt(two_m_over_h2 * (energy - p.v_minus_inf))
    k_plus = math.sqrt(two_m_over_h2 * (energy - p.v_plus_inf))
    k_bar = 0.5 * (k_plus + k_minus)
    s = cmath.sqrt(complex(0.25 - 2.0 * ctx.mass * p.v0 * p.a**2 / ctx.hbar**2))
    log_num = log_gamma(1j * k_bar * p.a + 0.5 + s) + log_gamma(1j * k_bar * p.a + 0.5 - s)
    log_den = log_gamma(1j * k_plus * p.a) + log_gamma(1j * k_minus * p.a)
    prefactor = -1j / (math.sqrt(k_plus * k_minus) * p.a)
    return prefactor * cmath.exp(log_num - log_den)
