import cmath
import math

import numpy as np
import pytest

from oracles import (
    probabilities_from_amplitudes,
    rectangular_matching,
    scalar_delta_amplitudes,
    scalar_rectangular_amplitudes,
    unitarity_defect,
)
from one_point import delta, rectangular
from qscat import PhysicsContext, delta_amplitudes_grid, rectangular_amplitudes_grid
from qscat.errors import InvalidInputError


def _probs(amps):
    return probabilities_from_amplitudes(amps)


class TestDelta:
    def test_matched_wavenumbers_split_evenly(self, ctx):
        # alpha = 1, hbar = m = 1 puts k0 = 1; E = 0.5 puts k = 1
        p = _probs(delta(1.0, 0.5, ctx))
        assert p.transmission == pytest.approx(0.5, abs=1e-15)
        assert p.reflection == pytest.approx(0.5, abs=1e-15)

    def test_direct_substitution(self, ctx):
        # alpha = 1, E = 50: k = 10, k0 = 1
        p = _probs(delta(1.0, 50.0, ctx))
        assert p.transmission == pytest.approx(100.0 / 101.0, rel=1e-14)

    def test_low_energy_total_reflection(self, ctx):
        p = _probs(delta(1.0, 1e-12, ctx))
        assert p.reflection > 1.0 - 1e-5

    def test_high_energy_transparent(self, ctx):
        # k/k0 = 100
        p = _probs(delta(1.0, 5000.0, ctx))
        assert p.transmission > 0.9999

    def test_monotone_in_energy(self, ctx):
        energies = np.linspace(0.05, 30.0, 120)
        ts = [_probs(delta(1.0, e, ctx)).transmission for e in energies]
        rs = [_probs(delta(1.0, e, ctx)).reflection for e in energies]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(b < a for a, b in zip(rs, rs[1:]))

    def test_unitarity_random_draws(self, rng):
        for _ in range(200):
            ctx = PhysicsContext(hbar=rng.uniform(0.5, 2.0), mass=rng.uniform(0.5, 2.0))
            p = _probs(delta(rng.uniform(0.1, 10.0), rng.uniform(0.01, 50.0), ctx))
            assert unitarity_defect(p) < 1e-9

    @pytest.mark.parametrize("energy", [0.0, -1.0])
    def test_invalid_energy(self, ctx, energy):
        with pytest.raises(InvalidInputError):
            delta(1.0, energy, ctx)

    def test_thin_barrier_limit(self, ctx):
        # a rectangle of width 2w and height alpha/(2w) converges to the spike
        # at first order in w; this ties the delta formulas to the (oracle
        # checked) rectangular ones
        alpha, energy = 1.3, 0.7
        t_delta = _probs(delta(alpha, energy, ctx)).transmission
        errors = []
        for w in (1e-3, 1e-4, 1e-5):
            t_rect = _probs(rectangular(alpha / (2 * w), w, energy, ctx)).transmission
            errors.append(abs(t_rect - t_delta) / t_delta)
        assert errors[-1] < 1e-4
        assert errors[2] < 0.2 * errors[1] < 0.04 * errors[0]


class TestRectangularAbove:
    def test_closed_probability_formulas(self, rng, ctx):
        # derived T, R must match the closed forms built from k, q, k0
        for _ in range(100):
            v0 = rng.uniform(0.1, 10.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(1.01, 10.0)
            p = _probs(rectangular(v0, a, energy, ctx))
            k_sq = 2.0 * energy
            q_sq = 2.0 * (energy - v0)
            k0_4 = (2.0 * v0) ** 2
            s = math.sin(2.0 * math.sqrt(q_sq) * a) ** 2
            t_closed = 4.0 * k_sq * q_sq / (4.0 * k_sq * q_sq + k0_4 * s)
            assert p.transmission == pytest.approx(t_closed, rel=1e-12)
            assert p.reflection == pytest.approx(1.0 - t_closed, rel=1e-9, abs=1e-12)

    def test_resonances_unity(self, ctx):
        for a in (1.0, 2.0):
            for n in range(1, 6):
                q = n * math.pi / (2.0 * a)
                energy = 1.0 + 0.5 * q**2
                p = _probs(rectangular(1.0, a, energy, ctx))
                assert abs(p.transmission - 1.0) < 1e-12

    def test_direct_substitution_point(self, ctx):
        # k0 = 1, a = 1, q = 1: T = 8/(8 + sin^2 2)
        v0, energy = 0.5, 1.0
        p = _probs(rectangular(v0, 1.0, energy, ctx))
        assert p.transmission == pytest.approx(8.0 / (8.0 + math.sin(2.0) ** 2), rel=1e-13)

    def test_against_matching_oracle(self, rng, ctx):
        for _ in range(40):
            v0 = rng.uniform(0.2, 5.0)
            a = rng.uniform(0.2, 2.0)
            energy = v0 * rng.uniform(1.05, 8.0)
            p = _probs(rectangular(v0, a, energy, ctx))
            t_oracle, r_oracle = rectangular_matching(v0, a, energy)
            assert p.transmission == pytest.approx(t_oracle, rel=1e-10)
            assert p.reflection == pytest.approx(r_oracle, rel=1e-10, abs=1e-12)

    def test_unitarity_random_draws(self, rng):
        for _ in range(200):
            ctx = PhysicsContext(hbar=rng.uniform(0.5, 2.0), mass=rng.uniform(0.5, 2.0))
            v0 = rng.uniform(0.1, 10.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(1.01, 10.0)
            p = _probs(rectangular(v0, a, energy, ctx))
            assert unitarity_defect(p) < 1e-9


class TestRectangularBelow:
    def test_equal_wavenumbers_point(self, ctx):
        # v0 = 1, a = 1, E = 0.5: k = Q = 1, T = sech^2(2)
        p = _probs(rectangular(1.0, 1.0, 0.5, ctx))
        assert p.transmission == pytest.approx(1.0 / math.cosh(2.0) ** 2, rel=1e-13)

    def test_tunneling_never_zero(self, rng, ctx):
        for _ in range(50):
            v0 = rng.uniform(0.1, 10.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(0.01, 0.99)
            p = _probs(rectangular(v0, a, energy, ctx))
            assert p.transmission > 0.0

    def test_against_matching_oracle(self, rng, ctx):
        for _ in range(40):
            v0 = rng.uniform(0.2, 5.0)
            a = rng.uniform(0.2, 2.0)
            energy = v0 * rng.uniform(0.05, 0.95)
            p = _probs(rectangular(v0, a, energy, ctx))
            t_oracle, r_oracle = rectangular_matching(v0, a, energy)
            assert p.transmission == pytest.approx(t_oracle, rel=1e-9)
            assert p.reflection == pytest.approx(r_oracle, rel=1e-9)

    def test_unitarity_random_draws(self, rng):
        for _ in range(200):
            ctx = PhysicsContext(hbar=rng.uniform(0.5, 2.0), mass=rng.uniform(0.5, 2.0))
            v0 = rng.uniform(0.1, 10.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(0.01, 0.99)
            p = _probs(rectangular(v0, a, energy, ctx))
            assert unitarity_defect(p) < 1e-9

    def test_case_continuity_at_barrier_top(self, ctx):
        v0 = 1.0
        eps = 1e-6 * v0
        t_above = _probs(rectangular(v0, 1.0, v0 + eps, ctx)).transmission
        t_below = _probs(rectangular(v0, 1.0, v0 - eps, ctx)).transmission
        assert abs(t_above - t_below) < 1e-3

    def test_monotone_in_barrier_height(self, ctx):
        heights = np.linspace(1.0, 10.0, 40)
        ts = [
            _probs(rectangular(v0, 1.0, 0.5, ctx)).transmission for v0 in heights
        ]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_deep_tunneling_log_slope(self, ctx):
        # log T / d(2a) -> -2Q for thick barriers
        v0, energy = 2.0, 0.5
        big_q = math.sqrt(2.0 * (v0 - energy))
        widths = np.linspace(3.0, 6.0, 8)
        log_t = [
            math.log(_probs(rectangular(v0, a, energy, ctx)).transmission)
            for a in widths
        ]
        slope = np.polyfit(2.0 * widths, log_t, 1)[0]
        assert slope == pytest.approx(-2.0 * big_q, rel=0.01)


class TestAmplitudeGrids:
    """The array routines flag each point that has no amplitudes, without a warning,
    and give each point what its own one-element call gives."""

    @pytest.mark.parametrize("decades", [1.0, 300.0])
    def test_points_match_the_scalar_reference(self, rng, decades):
        # parameters and energies log-uniform within 10^+-decades; where the scalar
        # arithmetic gives finite amplitudes the grid gives them to rounding (the
        # largest deviation on these draws is 5.5e-16), and where it raises or leaves
        # double range the grid gives an error
        def draw(size=None):
            return 10.0 ** rng.uniform(-decades, decades, size)

        checked = 0
        for _ in range(60):
            v0, a, alpha = draw(), draw(), draw()
            ctx = PhysicsContext(hbar=draw(), mass=draw())
            energies = (v0 * draw(40) ** (1.0 / decades)).tolist() + [v0]
            grids = (
                (rectangular_amplitudes_grid(v0, a, energies, ctx), scalar_rectangular_amplitudes, (v0, a)),
                (delta_amplitudes_grid(alpha, energies, ctx), scalar_delta_amplitudes, (alpha,)),
            )
            for (t, r, errors), reference, params in grids:
                for energy, ti, ri, error in zip(energies, t, r, errors):
                    try:
                        expected = reference(*params, energy, ctx)
                    except (ArithmeticError, ValueError):
                        expected = None
                    if expected is None or not all(map(cmath.isfinite, expected)):
                        assert error is not None
                    elif energy == v0 and reference is scalar_rectangular_amplitudes:
                        assert error.code == "degenerate"
                    else:
                        assert error is None
                        for got, want in zip((ti, ri), expected):
                            assert abs(got - want) <= 1e-13 * abs(want)
                        checked += 1
        assert checked >= 1500  # 4860 of the 4920 points at 1 decade, 1921 at 300

    ENERGIES = [0.25, 0.999, 1.0, 1.001, 2.0, 50.0, 0.0, -1.0, math.nan, math.inf]

    def test_rectangular_codes_and_points(self, ctx):
        t, r, errors = rectangular_amplitudes_grid(1.0, 1.0, self.ENERGIES, ctx)
        codes = [None if e is None else e.code for e in errors]
        assert codes == [None, None, "degenerate", None, None, None] + ["invalid"] * 4
        for energy, ti, ri, error in zip(self.ENERGIES, t, r, errors):
            if error is None:
                amps = rectangular(1.0, 1.0, energy, ctx)
                assert (amps.t, amps.r) == (ti, ri)

    def test_delta_codes_and_points(self, ctx):
        t, r, errors = delta_amplitudes_grid(1.3, self.ENERGIES, ctx)
        codes = [None if e is None else e.code for e in errors]
        assert codes == [None] * 6 + ["invalid"] * 4
        for energy, ti, ri, error in zip(self.ENERGIES, t, r, errors):
            if error is None:
                amps = delta(1.3, energy, ctx)
                assert (amps.t, amps.r) == (ti, ri)

    @pytest.mark.parametrize("hbar", [1e-170, 1e160])
    def test_hbar_squared_out_of_range_is_invalid_everywhere(self, hbar):
        # hbar**2 underflows to 0 or overflows: no point has a wavenumber
        ctx = PhysicsContext(hbar=hbar)
        for grid in (delta_amplitudes_grid(1.0, [0.5, 2.0], ctx),
                     rectangular_amplitudes_grid(1.0, 1.0, [0.5, 2.0], ctx)):
            assert [e.code for e in grid[2]] == ["invalid", "invalid"]
