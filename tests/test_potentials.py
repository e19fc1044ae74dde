import math

import numpy as np
import pytest

from qscat import (
    Delta,
    Eckart,
    Hulthen,
    PhysicsContext,
    Rectangular,
    asymptotic_wavenumbers,
)
from qscat.errors import (
    DegenerateEnergyError,
    InvalidInputError,
    UnsupportedOperationError,
    WrongCaseError,
)


class TestEvaluate:
    def test_rectangular_inside_and_out(self):
        r = Rectangular(v0=1.0, a=1.0)
        assert r.values(0.0) == 1.0
        assert r.values(2.0) == 0.0
        assert r.values(1.0) == 1.0  # edges belong to the barrier
        assert r.values(-1.0) == 1.0

    def test_rectangular_array(self):
        r = Rectangular(v0=2.0, a=0.5)
        xs = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(r.values(xs), [0.0, 2.0, 2.0, 2.0, 0.0])

    def test_hulthen_center_value(self):
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        assert h.values(0.0) == pytest.approx(10.0, rel=1e-14)

    def test_hulthen_even_and_continuous(self, rng):
        h = Hulthen(v0=1.3, a=0.7, q=0.4)
        xs = rng.uniform(0.0, 8.0, size=200)
        np.testing.assert_allclose(h.values(xs), h.values(-xs), rtol=1e-14)
        eps = 1e-9
        left, right = h.values(-eps), h.values(eps)
        center = h.v0 / (1.0 - h.q)
        assert left == pytest.approx(center, rel=1e-7)
        assert right == pytest.approx(center, rel=1e-7)

    def test_eckart_reaches_asymptotes(self):
        e = Eckart(v_minus_inf=2.0, v_plus_inf=1.0, v0=-1.0 / 9.0, a=3.0)
        assert e.values(50.0 * e.a) == pytest.approx(1.0, abs=1e-6)
        assert e.values(-50.0 * e.a) == pytest.approx(2.0, abs=1e-6)

    def test_delta_has_no_pointwise_values(self):
        with pytest.raises(UnsupportedOperationError):
            Delta(alpha=1.0).values(0.0)


class TestAsymptoticValues:
    def test_short_range_potentials_vanish(self):
        assert Rectangular(v0=5.0, a=1.0).asymptotes() == (0.0, 0.0)
        assert Hulthen(v0=1.0, a=0.5, q=0.9).asymptotes() == (0.0, 0.0)
        assert Delta(alpha=2.0).asymptotes() == (0.0, 0.0)

    def test_eckart_keeps_stored_asymptotes(self):
        e = Eckart(v_minus_inf=2.0, v_plus_inf=1.0, v0=-1.0 / 9.0, a=3.0)
        assert e.asymptotes() == (2.0, 1.0)


class TestWavenumbers:
    """The wavenumbers behind the swept variables and the exact formulas: k of the
    asymptotic channels, the interior q (E = v0 + hbar^2 q^2 / 2m) and decay
    constant Q of the rectangular barrier, and the delta scale k0 = m alpha / hbar^2."""

    def test_rectangular_above(self, ctx):
        r = Rectangular(v0=1.0, a=1.0)
        (energy,), swept, _ = r.sweep_map("q", ctx, {})([math.sqrt(2.0)])
        assert swept == {} and energy == pytest.approx(2.0)
        assert asymptotic_wavenumbers(r, 2.0, ctx) == pytest.approx((2.0, 2.0))

    def test_rectangular_below(self, ctx):
        r = Rectangular(v0=1.0, a=1.0)
        assert asymptotic_wavenumbers(r, 0.5, ctx) == pytest.approx((1.0, 1.0))
        # the WKB action 2a sqrt(v0 - E) is 2 Q a hbar / sqrt(2m), Q = 1
        (action,), _ = r.wkb_actions(np.array([0.5]))
        assert action == pytest.approx(math.sqrt(2.0))

    def test_delta_strength_scale(self, ctx):
        d = Delta(alpha=1.0)
        assert d.sweep_map("k", ctx, {})([math.sqrt(6.0)])[0][0] == pytest.approx(3.0)
        # k = k0 = 1 transmits half
        (at_k0,) = d.exact(d.sweep_map("k", ctx, {})([1.0])[0], ctx).transmission
        assert at_k0 == pytest.approx(0.5, abs=1e-15)

    def test_consistency_identities(self, rng):
        ctx = PhysicsContext(hbar=1.7, mass=0.6)
        for _ in range(100):
            v0 = rng.uniform(0.1, 10.0)
            r = Rectangular(v0=v0, a=rng.uniform(0.1, 3.0))
            k0_sq = 2.0 * ctx.mass * v0 / ctx.hbar**2
            q = math.sqrt(k0_sq * rng.uniform(0.01, 9.0))  # E/v0 in [1.01, 10]
            (energy,), _, _ = r.sweep_map("q", ctx, {})([q])
            k, _ = asymptotic_wavenumbers(r, energy, ctx)
            assert k0_sq == pytest.approx(k**2 - q**2, rel=1e-12)
            energy = v0 * rng.uniform(0.01, 0.99)
            k, _ = asymptotic_wavenumbers(r, energy, ctx)
            (action,), _ = r.wkb_actions(np.array([energy]))
            big_q = math.sqrt(2.0 * ctx.mass) / ctx.hbar * action / (2.0 * r.a)
            assert k0_sq == pytest.approx(k**2 + big_q**2, rel=1e-12)

    def test_degenerate_energy_rejected(self, ctx):
        r = Rectangular(v0=1.0, a=1.0)
        for variable, x in (("E", 1.0), ("q", 0.0)):
            (error,) = r.sweep_map(variable, ctx, {})([x])[2]
            assert isinstance(error, DegenerateEnergyError)

    def test_nonpositive_energy_rejected(self, ctx):
        (error,) = Delta(alpha=1.0).exact([0.0], ctx).errors
        assert isinstance(error, InvalidInputError)


class TestAsymptoticWavenumbers:
    def test_eckart_channels(self, ctx):
        e = Eckart(v_minus_inf=1.5, v_plus_inf=0.0, v0=0.0, a=1.0)
        k_minus, k_plus = asymptotic_wavenumbers(e, 2.0, ctx)
        assert k_minus == pytest.approx(1.0)
        assert k_plus == pytest.approx(2.0)

    def test_evanescent_channel_rejected(self, ctx):
        e = Eckart(v_minus_inf=1.5, v_plus_inf=0.0, v0=0.0, a=1.0)
        with pytest.raises(WrongCaseError):
            asymptotic_wavenumbers(e, 1.0, ctx)


class TestValidation:
    @pytest.mark.parametrize("kwargs", [dict(v0=0.0, a=1.0), dict(v0=1.0, a=-1.0)])
    def test_rectangular(self, kwargs):
        with pytest.raises(InvalidInputError):
            Rectangular(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(v0=1.0, a=0.5, q=1.0),
            dict(v0=1.0, a=0.5, q=0.0),
            dict(v0=-1.0, a=0.5, q=0.5),
            dict(v0=1.0, a=0.0, q=0.5),
        ],
    )
    def test_hulthen(self, kwargs):
        with pytest.raises(InvalidInputError):
            Hulthen(**kwargs)

    def test_delta(self):
        with pytest.raises(InvalidInputError):
            Delta(alpha=-1.0)
