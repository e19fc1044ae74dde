import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import mp_hulthen_probabilities, probabilities_from_amplitudes, unitarity_defect
from one_point import hulthen
from qscat import Hulthen, SweepSpec, run_sweep
from qscat.errors import ConvergenceError, InvalidInputError, WrongCaseError
from qscat.exact import _connection_route, _hulthen_parameters, hulthen_amplitudes_grid

FIG10A = Hulthen(v0=1.0, a=0.5, q=0.9)

# frozen golden values, computed once with the 40-digit mpmath oracle
GOLDEN = {
    2.0: (0.071802773791409130713, 0.92819722620859086929),
    5.0: (0.47759799708612276196, 0.52240200291387723804),
}


def _probs(p, energy, mass=1.0):
    return probabilities_from_amplitudes(hulthen(p, energy, mass))


def connection_routes(p, energies, mass=1.0):
    """Whether each energy's factors take the connection route."""
    _, _, nu, lam = _hulthen_parameters(p, np.asarray(energies, dtype=float), mass)
    return _connection_route(p.q, lam, nu).tolist()


class TestGoldenValues:
    @pytest.mark.parametrize("energy", sorted(GOLDEN))
    def test_frozen_points(self, energy):
        t_ref, r_ref = GOLDEN[energy]
        p = _probs(FIG10A, energy)
        assert p.transmission == pytest.approx(t_ref, rel=1e-9)
        assert p.reflection == pytest.approx(r_ref, rel=1e-9)

    def test_against_live_oracle(self):
        for energy in (1.3, 3.7, 8.0):
            t_ref, r_ref = mp_hulthen_probabilities(energy, 1.0, 1.0, 0.9, 0.5)
            p = _probs(FIG10A, energy)
            assert p.transmission == pytest.approx(t_ref, rel=1e-9, abs=1e-12)
            assert p.reflection == pytest.approx(r_ref, rel=1e-9)


class TestUnitarity:
    def test_reference_grid(self):
        # E in (1, 10], 100 uniform points
        for energy in np.linspace(1.09, 10.0, 100):
            assert unitarity_defect(_probs(FIG10A, float(energy))) < 1e-9

    def test_random_draws(self, rng):
        for _ in range(50):
            p = Hulthen(
                v0=rng.uniform(0.1, 3.0),
                a=rng.uniform(0.3, 2.0),
                q=rng.uniform(0.1, 0.95),
            )
            mass = rng.uniform(0.5, 2.0)
            energy = mass * rng.uniform(1.02, 10.0)
            assert unitarity_defect(_probs(p, energy, mass)) < 1e-9


class TestLimits:
    def test_vanishing_potential_is_transparent(self):
        p = _probs(Hulthen(v0=1e-8, a=0.5, q=0.9), 2.0)
        assert p.transmission > 1.0 - 1e-4
        assert p.reflection < 1e-4

    def test_subthreshold_energy_rejected(self):
        with pytest.raises(WrongCaseError):
            hulthen(FIG10A, 0.9, mass=1.0)
        with pytest.raises(WrongCaseError):
            hulthen(FIG10A, 1.0, mass=1.0)


class TestConnectionRoute:
    """Points with q >= 0.8 and small (1 - q)|nu| take their 2F1 factors from the
    z -> 1 - z connection formula, whose series are short at any q < 1."""

    @pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_switched_points_match_oracle(self, q, a, rng):
        p = Hulthen(v0=1.0, a=a, q=q)
        energies = rng.uniform(1.09, 10.0, 3)
        assert connection_routes(p, energies) == [True] * 3
        for energy in energies.tolist():
            t_ref, r_ref = mp_hulthen_probabilities(energy, 1.0, 1.0, q, a)
            probs = _probs(p, energy)
            assert probs.transmission == pytest.approx(t_ref, rel=1e-9)
            assert probs.reflection == pytest.approx(r_ref, rel=1e-9)

    def test_sweep_near_q_one_gives_numbers(self):
        # the direct series at q = 0.999 need more than the 20000-term cap
        rows = run_sweep(SweepSpec(Hulthen(v0=1.0, a=0.5, q=0.999), "E", 1.09, 10.0, 100))
        for row in rows:
            result = row.results["exact"]
            assert result.error is None
            assert result.defect < 1e-9

    def test_large_energy_near_q_one_stays_noconv(self):
        # (1 - q)|nu| ~ 20 puts E = 1e4 on the direct route, whose series at
        # q = 0.999 exceed the cap: an error cell, and no warning on the way
        p = Hulthen(v0=1.0, a=0.5, q=0.999)
        assert connection_routes(p, [1e4]) == [False]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_sweep(SweepSpec(p, "E", 1e4, 2e4, 2))
            with pytest.raises(ConvergenceError):
                hulthen(p, 1e4)
        assert [row.results["exact"].error for row in rows] == ["noconv", "noconv"]


class TestAssemblyGuard:
    """A point whose assembly keeps too few digits of T is noconv, not a number."""

    @pytest.mark.parametrize("q, reason", [(0.7, "unitarity"), (0.99, "cancels")])
    def test_deep_tunnelling_raises_noconv(self, q, reason):
        # the 100-digit oracle gives T = 3.3e-61 (q = 0.7) and 1.6e-58 (q = 0.99)
        p = Hulthen(v0=8.74, a=0.194, q=q)
        if reason == "unitarity":
            with pytest.raises(ConvergenceError, match=reason):
                hulthen(p, 2.95, mass=2.9)
            return
        # the source's three-term t numerator keeps no digit here; its closed form does
        t_ref, r_ref = mp_hulthen_probabilities(2.95, 2.9, 8.74, q, 0.194, dps=100)
        probs = _probs(p, 2.95, mass=2.9)
        assert probs.transmission == pytest.approx(t_ref, rel=1e-9)
        assert probs.reflection == pytest.approx(r_ref, rel=1e-9)


# (energy, error class) of one batch at the deep-tunnelling parameters, in grid order;
# at q = 0.7 the direct series keep no digit of T at any energy above m (noconv
# from 2.95 up to 1e10), so the numbers of the batch come from the same barrier at
# q = 0.99, on the connection route
MASK_BATCHES = {
    0.7: [
        (2.95, ConvergenceError),  # misses unitarity by 0.31
        (2.9, WrongCaseError), (1.0, WrongCaseError),  # E <= m
        (1e154, InvalidInputError),  # the factors converge; mu^2 leaves double range
        (3.5, ConvergenceError),
        (1e300, InvalidInputError),  # E^2 leaves double range before any series
    ],
    0.99: [
        (2.95, None), (1e154, InvalidInputError), (2.9, WrongCaseError),
        (3.5, None), (10.0, None), (1e300, InvalidInputError), (29.0, None),
    ],
}


@pytest.mark.parametrize("q", sorted(MASK_BATCHES))
def test_mask_precedence_in_a_mixed_batch(q):
    """Every row of a batch is its one-point call, bit for bit, with the error the
    first applicable mask gives: wrongcase, overflow of the parameters, a factor
    that did not converge, overflow of the amplitudes, then the unitarity guard."""
    p, points = Hulthen(v0=8.74, a=0.194, q=q), MASK_BATCHES[q]
    t, r, errors = hulthen_amplitudes_grid(p, [energy for energy, _ in points], 2.9)
    for i, (energy, code) in enumerate(points):
        (t1,), (r1,), (error,) = hulthen_amplitudes_grid(p, [energy], 2.9)
        assert type(errors[i]) is type(error) is (code or type(None)), energy
        assert str(errors[i]) == str(error)
        if code is None:
            assert (t[i], r[i]) == (t1, r1)
            assert abs(abs(t1) ** 2 + abs(r1) ** 2 - 1.0) <= 1e-9


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def hulthen_box(draw):
    """(v0, a, q, mass, energy): v0, a and mass log-uniform, E = m (1 + 10^U(-3, 0.5))."""
    mass = draw(_log_uniform(0.32, 5.0))
    return (draw(_log_uniform(0.1, 31.6)), draw(_log_uniform(0.1, 3.16)),
            draw(st.sampled_from([0.3, 0.5, 0.7, 0.9, 0.99])), mass,
            mass * (1.0 + draw(_log_uniform(1e-3, 10**0.5))))


def _check_number_or_err(point):
    # an ERR cell, or T and R within 1e-9 relative of the 100-digit oracle: 40 to
    # 60 digits are not enough in deep tunnelling (see mp_hulthen_probabilities)
    v0, a, q, mass, energy = point
    (t,), (r,), (error,) = hulthen_amplitudes_grid(Hulthen(v0, a, q), [energy], mass)
    if error is not None:
        return
    t_ref, r_ref = mp_hulthen_probabilities(energy, mass, v0, q, a, dps=100)
    assert math.isclose(abs(t) ** 2, t_ref, rel_tol=1e-9), (point, abs(t) ** 2, t_ref)
    assert math.isclose(abs(r) ** 2, r_ref, rel_tol=1e-9), (point, abs(r) ** 2, r_ref)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(hulthen_box())
# T was 3.0e-16 against 1.39e-25, with a 4.8e-9 defect under the old 1e-6 guard
@example((10.105688736713393, 0.7704246194217417, 0.3, 3.816919047303813, 3.8218030724324312))
# T was off by 6.5e-6 relative
@example((3.411515839741642, 0.326335821558552, 0.7, 0.43820822642675533, 0.5545966564336371))
# deep tunnelling: noconv at q = 0.7, T = 1.6e-58 at q = 0.99
@example((8.74, 0.194, 0.7, 2.9, 2.95))
@example((8.74, 0.194, 0.99, 2.9, 2.95))
# T = 6.0752e-145: the oracle at 60 digits gives 5.5e-118
@example((12.179941935951527, 0.13605519404731042, 0.99, 4.415996980451017, 4.4226509718576335))
def test_grid_numbers_match_oracle_or_err(point):
    _check_number_or_err(point)


@pytest.mark.xfail(strict=True, reason="T is off by 2.2e-9 relative while the defect, "
                   "8.3e-11, passes the 1e-9 unitarity guard")
def test_known_residual_passes_the_guard():
    _check_number_or_err((24.53502585531232, 2.639031893873153, 0.3, 0.4116098239694025,
                          0.4191639963441444))
