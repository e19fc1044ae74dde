import math
import warnings

import numpy as np
import pytest

from oracles import mp_hulthen_probabilities, probabilities_from_amplitudes, unitarity_defect
from qscat import (
    Hulthen,
    SweepSpec,
    hulthen_amplitudes,
    hulthen_params,
    run_sweep,
)
from qscat.errors import ConvergenceError, WrongCaseError
from qscat.exact import _connection_route

FIG10A = Hulthen(v0=1.0, a=0.5, q=0.9)

# frozen golden values, computed once with the 40-digit mpmath oracle
GOLDEN = {
    2.0: (0.071802773791409130713, 0.92819722620859086929),
    5.0: (0.47759799708612276196, 0.52240200291387723804),
}


def _probs(p, energy, mass=1.0):
    return probabilities_from_amplitudes(hulthen_amplitudes(p, energy, mass))


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
            assert unitarity_defect(_probs(FIG10A, float(energy))) < 1e-6

    def test_random_draws(self, rng):
        for _ in range(50):
            p = Hulthen(
                v0=rng.uniform(0.1, 3.0),
                a=rng.uniform(0.3, 2.0),
                q=rng.uniform(0.1, 0.95),
            )
            mass = rng.uniform(0.5, 2.0)
            energy = mass * rng.uniform(1.02, 10.0)
            assert unitarity_defect(_probs(p, energy, mass)) < 1e-6


class TestLimits:
    def test_vanishing_potential_is_transparent(self):
        p = _probs(Hulthen(v0=1e-8, a=0.5, q=0.9), 2.0)
        assert p.transmission > 1.0 - 1e-4
        assert p.reflection < 1e-4

    def test_subthreshold_energy_rejected(self):
        with pytest.raises(WrongCaseError):
            hulthen_amplitudes(FIG10A, 0.9, mass=1.0)
        with pytest.raises(WrongCaseError):
            hulthen_amplitudes(FIG10A, 1.0, mass=1.0)


class TestParams:
    def test_construction_identities(self, rng):
        for _ in range(50):
            p = Hulthen(
                v0=rng.uniform(0.1, 3.0),
                a=rng.uniform(0.3, 2.0),
                q=rng.uniform(0.1, 0.95),
            )
            mass = rng.uniform(0.5, 2.0)
            energy = mass * rng.uniform(1.05, 8.0)
            par = hulthen_params(p, energy, mass)
            assert par.k**2 == pytest.approx(energy**2 - mass**2, rel=1e-12)
            assert par.p**2 == pytest.approx((energy + p.v0 / p.q) ** 2 - mass**2, rel=1e-12)
            assert par.mu == 1j * par.k / p.a
            assert par.nu == 1j * par.p / p.a
            assert par.lam == 1j * p.v0 / (p.a * p.q)

    def test_wavenumbers_real_for_propagating_channel(self):
        par = hulthen_params(FIG10A, 2.0, 1.0)
        assert par.k == pytest.approx(math.sqrt(3.0), rel=1e-15)
        assert par.p > par.k


class TestConnectionRoute:
    """Points with q >= 0.8 and small (1 - q)|nu| take their 2F1 factors from the
    z -> 1 - z connection formula, whose series are short at any q < 1."""

    @pytest.mark.parametrize("q", [0.9, 0.99, 0.999])
    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_switched_points_match_oracle(self, q, a, rng):
        p = Hulthen(v0=1.0, a=a, q=q)
        for energy in rng.uniform(1.09, 10.0, 3):
            energy = float(energy)
            assert _connection_route(hulthen_params(p, energy, 1.0))
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
            assert result.defect < 1e-6

    def test_large_energy_near_q_one_stays_noconv(self):
        # (1 - q)|nu| ~ 20 puts E = 1e4 on the direct route, whose series at
        # q = 0.999 exceed the cap: an error cell, and no warning on the way
        p = Hulthen(v0=1.0, a=0.5, q=0.999)
        assert not _connection_route(hulthen_params(p, 1e4, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = run_sweep(SweepSpec(p, "E", 1e4, 2e4, 2))
            with pytest.raises(ConvergenceError):
                hulthen_amplitudes(p, 1e4)
        assert [row.results["exact"].error for row in rows] == ["noconv", "noconv"]


class TestAssemblyGuard:
    """A point whose assembly keeps too few digits of T is noconv, not a number."""

    @pytest.mark.parametrize("q, reason", [(0.7, "unitarity"), (0.99, "cancels")])
    def test_deep_tunnelling_raises_noconv(self, q, reason):
        # the 40-digit oracle gives T = 3.3e-61 (q = 0.7) and 1.6e-58 (q = 0.99)
        with pytest.raises(ConvergenceError, match=reason):
            hulthen_amplitudes(Hulthen(v0=8.74, a=0.194, q=q), 2.95, mass=2.9)
