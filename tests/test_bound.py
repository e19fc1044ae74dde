import math

import numpy as np
import pytest

from oracles import probabilities_from_amplitudes, rectangular_bound_closed_form
from qscat import (
    Delta,
    Eckart,
    Hulthen,
    Rectangular,
    bound_for_potential,
    eckart_transmission,
    hulthen_amplitudes,
    rectangular_above,
    transmission_bound,
)
from qscat.errors import InvalidInputError, UnsupportedOperationError


class TestClosedForm:
    def test_reference_point(self, ctx):
        # v0 = 1, a = 1, E = 2: k0^2 = q^2 = 2, bound = sech^2(1)
        b = rectangular_bound_closed_form(1.0, 1.0, 2.0, ctx)
        assert b.lower_bound == pytest.approx(1.0 / math.cosh(1.0) ** 2, rel=1e-14)
        assert b.integral_value == pytest.approx(1.0, rel=1e-14)

    def test_high_energy_approaches_unity(self, ctx):
        b = rectangular_bound_closed_form(1.0, 1.0, 1e6, ctx)
        assert b.lower_bound > 1.0 - 1e-5

    def test_zero_width_window(self, ctx):
        b = rectangular_bound_closed_form(1.0, 1e-9, 2.0, ctx)
        assert b.lower_bound == pytest.approx(1.0, abs=1e-12)

    def test_result_invariant(self, rng, ctx):
        for _ in range(50):
            v0 = rng.uniform(0.1, 5.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(1.01, 50.0)
            b = rectangular_bound_closed_form(v0, a, energy, ctx)
            assert b.lower_bound == pytest.approx(
                1.0 / math.cosh(b.integral_value) ** 2, abs=1e-14
            )
            assert 0.0 < b.lower_bound <= 1.0

    def test_wrong_case(self, ctx):
        with pytest.raises(InvalidInputError):
            rectangular_bound_closed_form(1.0, 1.0, 0.5, ctx)


class TestQuadratureBound:
    def test_free_particle(self, ctx):
        b = transmission_bound(lambda x: 0.0, 1.0, (-2.0, 2.0), ctx)
        assert b.lower_bound == 1.0
        assert b.integral_value == 0.0

    def test_matches_closed_form_on_grid(self, rng, ctx):
        for _ in range(200):
            v0 = rng.uniform(0.1, 5.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(1.01, 50.0)
            numeric = bound_for_potential(Rectangular(v0=v0, a=a), energy, ctx)
            closed = rectangular_bound_closed_form(v0, a, energy, ctx)
            assert abs(numeric.lower_bound - closed.lower_bound) < 1e-10

    def test_below_exact_transmission(self, rng, ctx):
        for _ in range(200):
            v0 = rng.uniform(0.1, 5.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(1.01, 50.0)
            exact = probabilities_from_amplitudes(
                rectangular_above(v0, a, energy, ctx)
            ).transmission
            bound = rectangular_bound_closed_form(v0, a, energy, ctx).lower_bound
            assert bound <= exact + 1e-12

    @pytest.mark.parametrize("v0, a", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)])
    def test_tightens_at_high_energy(self, ctx, v0, a):
        def gap(energy):
            exact = probabilities_from_amplitudes(
                rectangular_above(v0, a, energy, ctx)
            ).transmission
            return exact - rectangular_bound_closed_form(v0, a, energy, ctx).lower_bound

        assert gap(100.0 * v0) < gap(2.0 * v0)

    def test_tunneling_regime_still_defined(self, ctx):
        # |k0 - k^2/k0| handles negative k^2 inside the window; no inequality
        # against exact T is claimed below the barrier
        r = Rectangular(v0=1.0, a=1.0)
        b = transmission_bound(lambda x: r.values(x), 0.5, (-1.0, 1.0), ctx)
        assert 0.0 < b.lower_bound < 1.0

    def test_evanescent_outside_channel_rejected(self, ctx):
        with pytest.raises(InvalidInputError):
            transmission_bound(lambda x: 0.0, -0.5, (-1.0, 1.0), ctx)


class TestPerPotentialDispatch:
    def test_eckart_symmetric_bump_below_exact(self, ctx):
        e = Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=1.0, a=3.0)
        for energy in (1.5, 3.0, 8.0):
            b = bound_for_potential(e, energy, ctx)
            assert b.lower_bound <= eckart_transmission(e, energy, ctx) + 1e-12

    def test_eckart_unequal_asymptotes_not_applicable(self, ctx):
        e = Eckart(v_minus_inf=2.0, v_plus_inf=1.0, v0=-1.0 / 9.0, a=3.0)
        with pytest.raises(UnsupportedOperationError):
            bound_for_potential(e, 3.0, ctx)

    def test_delta_not_applicable(self, ctx):
        with pytest.raises(UnsupportedOperationError):
            bound_for_potential(Delta(alpha=1.0), 1.0, ctx)

    def test_hulthen_bound_in_range(self, ctx):
        b = bound_for_potential(Hulthen(v0=1.0, a=0.5, q=0.9), 12.0, ctx)
        assert 0.0 < b.lower_bound <= 1.0

    @pytest.mark.xfail(strict=True, reason="the bound's k0^2 = 2m(E - V_inf) is the Schrodinger "
                       "dispersion; the Hulthen exact T uses k^2 = E^2 - m^2, and near E = m the "
                       "two differ: exact T = 1.7397e-6 (the 60-digit oracle agrees), bound 2.9386e-6")
    def test_hulthen_bound_below_exact_near_threshold(self, ctx):
        p = Hulthen(v0=1.0, a=0.5, q=0.9)
        exact = probabilities_from_amplitudes(hulthen_amplitudes(p, 1.05, ctx.mass))
        assert bound_for_potential(p, 1.05, ctx).lower_bound <= exact.transmission

    @pytest.mark.parametrize(
        "p",
        [
            Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=1.0, a=2.0),
            Eckart(v_minus_inf=0.7, v_plus_inf=0.7, v0=-0.4, a=0.5),
            Hulthen(v0=1.0, a=0.5, q=0.9),
            Hulthen(v0=3.0, a=1.0, q=0.5),
        ],
        ids=["eckart_bump", "eckart_offset_well", "hulthen_q0.9", "hulthen_q0.5"],
    )
    def test_closed_form_area_matches_quadrature(self, ctx, p):
        # over +-100 length units the tails left out are below 1e-20 of the area
        energy = 2.5
        closed = bound_for_potential(p, energy, ctx)
        v_inf = p.asymptotes()[1]
        numeric = transmission_bound(
            lambda x: p.values(x), energy, (-100.0, 100.0), ctx, v_asymptotic=v_inf
        )
        assert closed.integral_value == pytest.approx(numeric.integral_value, rel=1e-9)
        assert closed.lower_bound == pytest.approx(numeric.lower_bound, rel=1e-9)
