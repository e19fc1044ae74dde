import math

import mpmath as mp
import pytest

from oracles import probabilities_from_amplitudes, rectangular_bound_closed_form
from one_point import bound, eckart_transmission, hulthen, rectangular
from qscat import Delta, Eckart, Hulthen, Rectangular
from qscat.errors import InvalidInputError, UnsupportedOperationError


def _mp_values(p):
    """V(x) of the Eckart or Hulthen profile p in mpmath arithmetic."""
    if isinstance(p, Hulthen):
        return lambda x: p.v0 / (mp.exp(p.a * abs(x)) - p.q)
    mean = (mp.mpf(p.v_plus_inf) + p.v_minus_inf) / 2
    step = (mp.mpf(p.v_plus_inf) - p.v_minus_inf) / 2
    return lambda x: mean + step * mp.tanh(x / p.a) + p.v0 / mp.cosh(x / p.a) ** 2


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
        # an Eckart profile with v0 = 0 and equal asymptotes is V = 0 everywhere
        b = bound(Eckart(0.0, 0.0, 0.0, 1.0), 1.0, ctx)
        assert b.lower_bound == 1.0
        assert b.integral_value == 0.0

    def test_matches_closed_form_on_grid(self, rng, ctx):
        for _ in range(200):
            v0 = rng.uniform(0.1, 5.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(1.01, 50.0)
            numeric = bound(Rectangular(v0=v0, a=a), energy, ctx)
            closed = rectangular_bound_closed_form(v0, a, energy, ctx)
            assert abs(numeric.lower_bound - closed.lower_bound) < 1e-10

    def test_below_exact_transmission(self, rng, ctx):
        for _ in range(200):
            v0 = rng.uniform(0.1, 5.0)
            a = rng.uniform(0.1, 3.0)
            energy = v0 * rng.uniform(1.01, 50.0)
            exact = probabilities_from_amplitudes(rectangular(v0, a, energy, ctx)).transmission
            bound = rectangular_bound_closed_form(v0, a, energy, ctx).lower_bound
            assert bound <= exact + 1e-12

    @pytest.mark.parametrize("v0, a", [(1.0, 1.0), (0.5, 2.0), (3.0, 0.7)])
    def test_tightens_at_high_energy(self, ctx, v0, a):
        def gap(energy):
            exact = probabilities_from_amplitudes(rectangular(v0, a, energy, ctx)).transmission
            return exact - rectangular_bound_closed_form(v0, a, energy, ctx).lower_bound

        assert gap(100.0 * v0) < gap(2.0 * v0)

    def test_tunneling_regime_still_defined(self, ctx):
        # |k0 - k^2/k0| handles negative k^2 inside the window; no inequality
        # against exact T is claimed below the barrier
        b = bound(Rectangular(v0=1.0, a=1.0), 0.5, ctx)
        assert 0.0 < b.lower_bound < 1.0

    def test_evanescent_outside_channel_rejected(self, ctx):
        with pytest.raises(InvalidInputError):
            bound(Rectangular(v0=1.0, a=1.0), -0.5, ctx)


class TestPerPotentialDispatch:
    def test_eckart_symmetric_bump_below_exact(self, ctx):
        e = Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=1.0, a=3.0)
        for energy in (1.5, 3.0, 8.0):
            b = bound(e, energy, ctx)
            assert b.lower_bound <= eckart_transmission(e, energy, ctx) + 1e-12

    def test_eckart_unequal_asymptotes_not_applicable(self, ctx):
        e = Eckart(v_minus_inf=2.0, v_plus_inf=1.0, v0=-1.0 / 9.0, a=3.0)
        with pytest.raises(UnsupportedOperationError):
            bound(e, 3.0, ctx)

    def test_delta_not_applicable(self, ctx):
        with pytest.raises(UnsupportedOperationError):
            bound(Delta(alpha=1.0), 1.0, ctx)

    def test_hulthen_bound_in_range(self, ctx):
        b = bound(Hulthen(v0=1.0, a=0.5, q=0.9), 12.0, ctx)
        assert 0.0 < b.lower_bound <= 1.0

    @pytest.mark.xfail(strict=True, reason="the bound's k0^2 = 2m(E - V_inf) is the Schrodinger "
                       "dispersion; the Hulthen exact T uses k^2 = E^2 - m^2, and near E = m the "
                       "two differ: exact T = 1.7397e-6 (the 60-digit oracle agrees), bound 2.9386e-6")
    def test_hulthen_bound_below_exact_near_threshold(self, ctx):
        p = Hulthen(v0=1.0, a=0.5, q=0.9)
        exact = probabilities_from_amplitudes(hulthen(p, 1.05, ctx.mass))
        assert bound(p, 1.05, ctx).lower_bound <= exact.transmission

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
        # the area of |V - V_inf| over the whole line by mpmath, split at the Hulthen
        # cusp at x = 0, and the bound sech^2((m / (hbar^2 k0)) area) built from it
        energy = 2.5
        closed = bound(p, energy, ctx)
        v_inf = p.asymptotes()[1]
        with mp.workdps(30):
            area = mp.quad(lambda x: abs(_mp_values(p)(x) - v_inf), [-mp.inf, 0, mp.inf])
            integral = area / mp.sqrt(2 * (energy - v_inf))
            lower_bound = float(mp.sech(integral) ** 2)
        assert p.bound_area() == pytest.approx(float(area), rel=1e-12)
        assert closed.integral_value == pytest.approx(float(integral), rel=1e-12)
        assert closed.lower_bound == pytest.approx(lower_bound, rel=1e-12)
