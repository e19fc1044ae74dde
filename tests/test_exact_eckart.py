import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    eckart_transmission_amplitude,
    mp_eckart_transmission,
    scalar_eckart_transmission,
    schrodinger_transmission,
)
from one_point import bound, eckart_transmission
from qscat import Eckart, PhysicsContext, eckart_reflection_paper, eckart_transmission_grid
from qscat.errors import InvalidInputError, WrongCaseError


def _symmetric(v0, a=1.0):
    return Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=v0, a=a)


FIG7_PROFILE = Eckart(v_minus_inf=1.5, v_plus_inf=0.0, v0=0.0, a=1.0)  # k- = 1, k+ = 2 at E = 2


class TestTransmission:
    @pytest.mark.parametrize("decades", [1, 300])
    def test_grid_matches_the_scalar_reference(self, rng, decades):
        # parameters log-uniform within 10^+-decades, of either sign where they may be;
        # where the scalar arithmetic gives a finite T the grid gives it to rounding (the
        # largest deviation on these draws is 3.7e-16), and where it raises or leaves
        # double range the grid gives an error
        def draw(size=None, signs=(1,)):
            return (10.0 ** rng.uniform(-decades, decades, size) * rng.choice(signs, size)).tolist()

        checked = 0
        for _ in range(60):
            p = Eckart(draw(signs=(-1, 0, 1)), draw(signs=(-1, 0, 1)), 0.0, draw())
            ctx = PhysicsContext(hbar=draw(), mass=draw())
            energies, heights = draw(20, (-1, 1)), draw(20, (-1, 1))
            for t, errors, v0s in (
                (*eckart_transmission_grid(p, energies, ctx, heights), heights),
                (*eckart_transmission_grid(replace(p, v0=heights[0]), energies, ctx), [heights[0]] * 20),
            ):
                for energy, v0, ti, error in zip(energies, v0s, t.tolist(), errors):
                    try:
                        expected = scalar_eckart_transmission(replace(p, v0=v0), energy, ctx)
                    except (ArithmeticError, ValueError):
                        expected = math.nan
                    if not math.isfinite(expected):
                        assert error is not None
                    else:
                        assert error is None and abs(ti - expected) <= 1e-13 * abs(expected)
                        checked += 1
        assert checked >= 200

    def test_free_limit(self, ctx):
        # v0 = 0 with equal asymptotes: cos(pi/2) = 0 and the sinh ratio is 1
        assert eckart_transmission(_symmetric(0.0), 1.7, ctx) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a", [1.0, 2.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_symmetric_resonances(self, ctx, a, n):
        v0 = -n * (n + 1) / (2.0 * a**2)
        assert eckart_transmission(_symmetric(v0, a), 1.0, ctx) == pytest.approx(1.0, abs=1e-9)

    def test_never_exceeds_unity(self, rng, ctx):
        # AM-GM: sinh(k- a) sinh(k+ a) <= sinh^2(kbar a)
        for _ in range(200):
            v_minus = rng.uniform(-2.0, 2.0)
            v_plus = rng.uniform(-2.0, 2.0)
            e = Eckart(v_minus, v_plus, rng.uniform(-4.0, 4.0), rng.uniform(0.3, 2.5))
            energy = max(v_minus, v_plus) + rng.uniform(0.1, 5.0)
            t = eckart_transmission(e, energy, ctx)
            assert 0.0 <= t <= 1.0 + 1e-12

    def test_amplitude_route_matches_probability(self, rng, ctx):
        # |t|^2 from the gamma-function amplitude vs the closed probability,
        # covering both the real-s and imaginary-s (cosh) branches
        for v0 in (-2.0, -0.11, 0.1, 0.5, 3.0):
            e = Eckart(1.5, 0.0, v0, 1.0)
            t_amp = eckart_transmission_amplitude(e, 2.0, ctx)
            assert abs(t_amp) ** 2 == pytest.approx(
                eckart_transmission(e, 2.0, ctx), rel=1e-10
            )
        for _ in range(25):
            e = Eckart(0.0, rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0), rng.uniform(0.4, 2.0))
            energy = max(0.0, e.v_plus_inf) + rng.uniform(0.2, 4.0)
            t_amp = eckart_transmission_amplitude(e, energy, ctx)
            assert abs(t_amp) ** 2 == pytest.approx(
                eckart_transmission(e, energy, ctx), rel=1e-10
            )

    def test_against_ode_oracle(self, ctx):
        for v0 in (-0.5, 0.3, 1.0):
            e = Eckart(1.5, 0.0, v0, 1.0)
            t_ref = schrodinger_transmission(lambda x: e.values(x), 2.0, -40.0, 40.0)
            assert eckart_transmission(e, 2.0, ctx) == pytest.approx(t_ref, rel=1e-6)

    def test_asymmetric_direct_substitution(self, ctx):
        # k- = 1, k+ = 2, v0 = 0: T = sinh(pi) sinh(2 pi) / sinh^2(1.5 pi)
        t = eckart_transmission(FIG7_PROFILE, 2.0, ctx)
        expected = math.sinh(math.pi) * math.sinh(2 * math.pi) / math.sinh(1.5 * math.pi) ** 2
        assert t == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize(
        "v_minus, v_plus, v0, a, energy",
        [
            (0.0, 0.0, 1.0, 20.0, 100.0),  # pi k a ~ 890: sinh overflows unscaled
            (0.0, 0.0, 5.0, 2.0, 1.0),  # cosh branch, deep tunnelling
            (1.5, 0.0, 40.0, 3.0, 2.0),  # asymmetric, cosh(pi sqrt(-d)) ~ e^{106}
        ],
    )
    def test_large_arguments_against_gamma_form(self, ctx, v_minus, v_plus, v0, a, energy):
        t = eckart_transmission(Eckart(v_minus, v_plus, v0, a), energy, ctx)
        expected = mp_eckart_transmission(v_minus, v_plus, v0, a, energy)
        assert t == pytest.approx(expected, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("a", [1e-20, 1e-10, 1e-5])
    def test_thin_barrier_against_gamma_form(self, ctx, a):
        # 2 m v0 a^2 / hbar^2 -> 0: cos(pi sqrt(1/4 - g)) computed directly cancels
        # to rounding noise (T was 5.3e-7 at a = 1e-20, under the sech^2 bound of 1)
        e = _symmetric(1.0, a)
        t = eckart_transmission(e, 1.0, ctx)
        assert t == pytest.approx(mp_eckart_transmission(0.0, 0.0, 1.0, a, 1.0), rel=1e-9, abs=0.0)
        # the bound is tight here: it may sit a rounding error above T
        assert bound(e, 1.0, ctx).lower_bound <= t * (1.0 + 1e-9)

    def test_evanescent_channel_rejected(self, ctx):
        with pytest.raises(WrongCaseError):
            eckart_transmission(FIG7_PROFILE, 1.2, ctx)


class TestReflectionPaperFormula:
    def test_bounded_in_the_oscillatory_branch(self, rng, ctx):
        # with b real (v0 <= hbar^2/(8 m a^2)) both numerator and denominator
        # stay positive and |k - w| <= k + w keeps the quotient in [0, 1]
        for _ in range(100):
            a = rng.uniform(0.3, 2.0)
            v0 = rng.uniform(-3.0, 1.0 / (8.0 * a**2))
            e = Eckart(rng.uniform(-1, 1), rng.uniform(-1, 1), v0, a)
            energy = max(
                e.v_minus_inf + e.v_plus_inf, e.v_minus_inf, e.v_plus_inf, 0.0
            ) + rng.uniform(0.3, 3.0)
            for convention in ("paper", "asymptotic"):
                r = eckart_reflection_paper(e, energy, ctx, convention)
                assert 0.0 <= r <= 1.0

    def test_cosh_branch_can_exceed_unity(self, ctx):
        # diagnostic-formula caveat: for strongly positive v0 the cos(pi b)
        # term becomes a large cosh and the verbatim quotient tops 1, unlike
        # the unitarity pair (T, 1 - T)
        e = Eckart(1.5, 0.0, 2.0, 1.0)
        assert eckart_reflection_paper(e, 2.0, ctx) > 1.0

    def test_vanishes_at_high_energy(self, ctx):
        # k = 50 (E = 1250 in natural units)
        e = Eckart(1.5, 0.0, 0.5, 1.0)
        assert eckart_reflection_paper(e, 1250.0, ctx) < 1e-8
        assert eckart_reflection_paper(e, 1250.0, ctx, "asymptotic") < 1e-8

    def test_decreasing_with_width_like_one_minus_t(self, ctx):
        # shared qualitative feature of both reflection routes for wells
        # (b real): a larger length scale pushes reflection down
        for v0 in np.linspace(-8.0, 0.0, 24):
            values = {}
            for a in (1.0, 2.0):
                e = Eckart(1.5, 0.0, v0, a)
                values[a] = (
                    eckart_reflection_paper(e, 2.0, ctx),
                    1.0 - eckart_transmission(e, 2.0, ctx),
                )
            assert values[2.0][0] <= values[1.0][0] + 1e-12
            assert values[2.0][1] <= values[1.0][1] + 1e-12

    def test_conventions_coincide_when_one_asymptote_vanishes(self, ctx):
        # with V+ = 0, k w equals k- k+ under either reading and cosh is even
        r_paper = eckart_reflection_paper(FIG7_PROFILE, 2.0, ctx, "paper")
        r_asym = eckart_reflection_paper(FIG7_PROFILE, 2.0, ctx, "asymptotic")
        assert r_paper == pytest.approx(r_asym, rel=1e-14)

    def test_conventions_differ_with_two_nonzero_asymptotes(self, ctx):
        e = Eckart(1.5, 0.5, 0.0, 1.0)
        r_paper = eckart_reflection_paper(e, 2.5, ctx, "paper")
        r_asym = eckart_reflection_paper(e, 2.5, ctx, "asymptotic")
        assert abs(r_paper - r_asym) > 1e-6

    def test_precondition_on_root(self, ctx):
        # max(V-, V+) < E < V- + V+ makes k+^2 + k-^2 - k^2 negative
        e = Eckart(3.0, 2.9, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            eckart_reflection_paper(e, 3.5, ctx)

    def test_unknown_convention(self, ctx):
        with pytest.raises(InvalidInputError):
            eckart_reflection_paper(FIG7_PROFILE, 2.0, ctx, "other")
