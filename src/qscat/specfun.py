"""Complex special functions: principal-branch log-gamma and Gauss 2F1.

Only what the exact Eckart and Hulthen solutions need: log Gamma(z) for
complex z (a scalar or a numpy array), and 2F1(a, b; c; z) with complex
parameters and a real argument in [0, 1).  The 2F1 power series dominates the
runtime of the Hulthen sweeps (six factors per point, each one series in q or
two in 1 - q, mostly tens of terms, thousands only where the direct series in
q near 1 is kept); all series of a batch are summed in lockstep, in numpy
blocks of terms that start short and grow.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, InvalidInputError, PoleError

# Lanczos rational approximation, g = 7, nine coefficients; relative accuracy
# around 1e-13 on the half-plane Re z >= 0.5 after the shift below.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# the 2F1 series stops after _CONSECUTIVE_SMALL consecutive terms below _REL_TOL
# times the partial sum, or unconverged at _MAX_TERMS terms; each numpy block
# sums as many terms as the blocks before it, from _FIRST_BLOCK up to _BLOCK, so
# a short series pays for a short block; a pass holds at most _MAX_ELEMENTS terms
# (its rows times the block), bounding its memory
_REL_TOL = 1e-15
_MAX_TERMS = 20000
_CONSECUTIVE_SMALL = 3
_FIRST_BLOCK = 32
_BLOCK = 256
_MAX_ELEMENTS = 24 * 256

_LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _lanczos_loggamma(z):
    # valid on Re z >= 0.5
    w = z - 1.0
    x = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        x += _LANCZOS_COEFFS[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _LOG_SQRT_TWO_PI + (w + 0.5) * np.log(t) - t + np.log(x)


def _log_sin_pi_upper(z):
    # analytic continuation of log sin(pi z) over Im z >= 0, anchored at z = 1/2;
    # writing sin(pi z) = (i/2) e^{-i pi z} (1 - e^{2 i pi z}) keeps |e^{2 i pi z}| <= 1
    # there, so the principal log of the bracket never crosses a branch cut
    w = np.exp(2j * math.pi * z)
    return math.log(0.5) + 0.5j * math.pi - 1j * math.pi * z + np.log(1.0 - w)


def log_gamma(z):
    """Principal branch of log Gamma(z), elementwise on a numpy array; a complex z
    is the one-element case.

    Lanczos approximation on Re z >= 0.5; the reflection formula (with an
    unwound log-sin) continues it to the left half-plane, and conjugation to
    the lower half of it.  On the cut (negative real axis) the value is the
    limit from the upper half-plane.  Relative accuracy is ~1e-13 for
    |z| <= 100.  An array holds +inf at a pole (1/Gamma = 0), where a scalar
    raises PoleError.  Non-finite input raises InvalidInputError.
    """
    array = np.asarray(z, dtype=np.complex128)
    if not np.isfinite(array).all():
        raise InvalidInputError(f"log_gamma arguments must be finite, got {z!r}")
    left = array.real < 0.5
    lower = left & (array.imag < 0.0)
    up = np.where(lower, array.conj(), array)
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 at a pole
        out = _lanczos_loggamma(np.where(left, 1.0 - up, up))
        out = np.where(left, _LOG_PI - _log_sin_pi_upper(np.where(left, up, 0.5)) - out, out)
    out = np.where(lower, out.conj(), out)
    pole = (array.imag == 0.0) & (array.real <= 0.0) & (array.real == np.floor(array.real))
    if isinstance(z, np.ndarray):
        return np.where(pole, np.inf, out)
    if pole:
        raise PoleError(f"log_gamma pole at non-positive integer z = {z}")
    return complex(out)


def _hyp2f1_series(rows, z):
    """Raw Gauss series sums: (value, terms_used, converged, last_term_mag) per row (a, b, c);
    ``rows`` is a list of such triples or an (n, 3) array.

    Term ratio t_{n+1}/t_n = (a+n)(b+n) z / ((c+n)(n+1)), for a block of n at
    a time; cumulative products and sums along the term axis give the terms
    and partial sums, and the first index that ends a run of
    _CONSECUTIVE_SMALL small terms (counting the run carried in from the
    previous block) stops the row.  All rows run in lockstep, in passes of at
    most _MAX_ELEMENTS terms; a row leaves the active set when it stops, and
    the block boundaries depend on the term index alone, so a row gets exactly
    the result of its series run alone.  Overflowing or NaN terms are never
    small.
    """
    out = [None] * len(rows)
    if not out:
        return out
    a, b, c = np.asarray(rows, dtype=np.complex128).T[:, :, None]
    term = np.ones_like(a)
    s = np.ones_like(a)
    carry = np.zeros(a.shape, dtype=np.int64)
    active = np.arange(len(rows))  # rows still summing
    n0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while active.size and n0 < _MAX_TERMS:
            ns = np.arange(n0, min(n0 + min(max(n0, _FIRST_BLOCK), _BLOCK), _MAX_TERMS),
                           dtype=np.float64)
            idx = np.arange(ns.size)
            step = _MAX_ELEMENTS // ns.size
            running = []
            for r in (active[i : i + step] for i in range(0, active.size, step)):
                ratios = (a[r] + ns) * (b[r] + ns) * z / ((c[r] + ns) * (ns + 1.0))
                terms = term[r] * np.cumprod(ratios, axis=1)
                sums = s[r] + np.cumsum(terms, axis=1)
                flags = (mags := np.abs(terms)) < _REL_TOL * np.abs(sums)
                # small-term run ending at each index: distance to the last large term or to -1 - carry
                runlen = idx - np.maximum.accumulate(np.where(flags, -1 - carry[r], idx), axis=1)
                hits = runlen >= _CONSECUTIVE_SMALL
                term[r], s[r], carry[r] = terms[:, -1:], sums[:, -1:], runlen[:, -1:]
                first = hits.argmax(axis=1)
                stop = hits[np.arange(r.size), first]
                k, j = np.flatnonzero(stop), first[stop]
                for row, value, n, mag in zip(r[k].tolist(), sums[k, j].tolist(),
                                              (n0 + j + 1).tolist(), mags[k, j].tolist()):
                    out[row] = (value, n, True, mag)
                running.append(r[~stop])
            active = np.concatenate(running)
            n0 += ns.size
    for r in active.tolist():
        # numpy's abs: Python's complex abs of a NaN raises OverflowError on a stale errno
        out[r] = (complex(s[r, 0]), n0, False, abs(term[r, 0]).item())
    return out


def gauss_2f1(a, b, c, z: float) -> complex:
    """Gauss hypergeometric 2F1(a, b; c; z) for real z in [0, 1).

    Direct power series with the term-ratio recurrence; terminates once the
    current term stays below _REL_TOL (1e-15) times the partial sum for three
    consecutive terms (guards against transient dips of the complex
    Pochhammer ratios).

    Raises InvalidInputError for a non-finite a, b or c or z outside [0, 1), PoleError
    for c a non-positive integer, ConvergenceError (with the last term) past
    _MAX_TERMS (20000) terms.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if not np.isfinite((a, b, c)).all():
        raise InvalidInputError(f"2F1 parameters must be finite, got a={a}, b={b}, c={c}")
    z = float(z)
    if not 0.0 <= z < 1.0:
        raise InvalidInputError(f"series argument must satisfy 0 <= z < 1, got {z!r}")
    if _is_nonpositive_integer(c):
        raise PoleError(f"gauss_2f1 pole: c = {c} is a non-positive integer")
    if z == 0.0:
        return 1.0 + 0.0j
    ((value, _, converged, last),) = _hyp2f1_series([(a, b, c)], z)
    if not converged:
        raise ConvergenceError(
            f"2F1 series did not converge within {_MAX_TERMS} terms "
            f"(last term magnitude {last:.3e}); argument z = {z} may be too close to 1",
            estimate=value, last_term=last)
    return value
