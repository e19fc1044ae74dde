import math
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

from oracles import mp_wkb_transmission, probabilities_from_amplitudes
from one_point import rectangular

from qscat import (
    NATURAL_UNITS,
    Delta,
    Eckart,
    Hulthen,
    MethodResult,
    Rectangular,
    wkb_for_potential,
)
from qscat.errors import (
    ConvergenceError,
    InvalidInputError,
    NoBarrierError,
    QscatError,
    UnsupportedOperationError,
    WrongCaseError,
)
from qscat import wkb
from qscat.wkb import (
    _actions,
    _integrate_gauss_legendre,
    eckart_turning_points,
    hulthen_turning_points,
)


class TestRectangularClosedForm:
    def test_single_point(self, ctx):
        # v0 = 1, a = 1, E = 0.5: Q = 1 so T_w = exp(-4)
        t = wkb_for_potential(Rectangular(v0=1.0, a=1.0), 0.5, ctx)
        assert t == pytest.approx(math.exp(-4.0), rel=1e-12)

    def test_matches_exp_minus_4qa_on_grid(self, rng, ctx):
        for _ in range(50):
            v0 = rng.uniform(0.2, 10.0)
            a = rng.uniform(0.2, 3.0)
            energy = v0 * rng.uniform(0.05, 0.95)
            big_q = math.sqrt(2.0 * (v0 - energy))
            t = wkb_for_potential(Rectangular(v0=v0, a=a), energy, ctx)
            expected = math.exp(-4.0 * big_q * a)
            assert abs(t - expected) / expected < 1e-9

    def test_barrier_top_limit(self, ctx):
        t = wkb_for_potential(Rectangular(v0=1.0, a=1.0), 1.0 - 1e-12, ctx)
        assert t > 1.0 - 1e-4

    def test_wrong_case_above_barrier(self, ctx):
        with pytest.raises(WrongCaseError):
            wkb_for_potential(Rectangular(v0=1.0, a=1.0), 2.0, ctx)


class TestHulthenQuadrature:
    def test_fixed_window_against_fine_trapezoid(self, ctx):
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        energy = 0.5
        t = wkb_for_potential(h, energy, ctx)
        xs = np.linspace(-1.0, 1.0, 1_000_001)
        action = np.trapezoid(np.sqrt(np.clip(h.values(xs) - energy, 0.0, None)), xs)
        expected = math.exp(-2.0 * math.sqrt(2.0) * action)
        assert abs(t - expected) / expected < 1e-8

    def test_monotone_in_height(self, ctx):
        heights = (1.0, 2.0, 10.0, 50.0)
        ts = [
            wkb_for_potential(Hulthen(v0=v0, a=0.5, q=0.9), 0.5, ctx) for v0 in heights
        ]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_solved_turning_points_path(self, ctx):
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        t = wkb_for_potential(h, 0.5, ctx, solve_turning_points=True)
        assert 0.0 < t <= 1.0
        # the physical region is wider than the fixed (-1, 1) window, so the
        # action grows and the transmission drops
        assert t < wkb_for_potential(h, 0.5, ctx)


def _mp_hulthen(h):
    return lambda x: h.v0 / (mp.exp(h.a * abs(x)) - h.q)


def _mp_eckart(e):
    mean = (mp.mpf(e.v_plus_inf) + e.v_minus_inf) / 2
    step = (mp.mpf(e.v_plus_inf) - e.v_minus_inf) / 2
    return lambda x: mean + step * mp.tanh(x / e.a) + e.v0 / mp.cosh(x / e.a) ** 2


class TestFamilyTurningPoints:
    ASYMMETRIC = Eckart(v_minus_inf=0.0, v_plus_inf=0.5, v0=3.0, a=1.0)

    def test_eckart_closed_form_roots(self):
        e, energy = self.ASYMMETRIC, 1.0
        (x1,), (x2,), _ = eckart_turning_points(e, np.array([energy]))
        for x in (x1, x2):
            assert abs(e.values(x) - energy) <= 1e-12
        # V - E < 0 at x = -+5 and > 0 at x = 0 (V = 3.25): one root on each side
        v = _mp_eckart(e)
        with mp.workdps(30):
            roots = [mp.findroot(lambda x: v(x) - energy, side, solver="anderson")
                     for side in ((-5, 0), (0, 5))]
        assert x1 == pytest.approx(float(roots[0]), abs=1e-10)
        assert x2 == pytest.approx(float(roots[1]), abs=1e-10)

    def test_eckart_no_barrier(self, ctx):
        e = self.ASYMMETRIC
        # top of -v0 t^2 + step t + mean + v0 at t = step / (2 v0)
        peak = 0.25 + e.v0 + 0.25**2 / (4.0 * e.v0)
        for energy in (peak + 1e-6, 10.0, 0.4):  # 0.4 is below the right asymptote
            with pytest.raises(NoBarrierError):
                wkb_for_potential(e, energy, ctx)
        for v0 in (0.0, -1.0):
            with pytest.raises(NoBarrierError):
                wkb_for_potential(Eckart(0.0, 0.0, v0, 1.0), 0.5, ctx)

    def test_eckart_against_mpmath_action(self, ctx):
        e = self.ASYMMETRIC
        v = _mp_eckart(e)
        for energy in (0.6, 1.0, 3.0):
            (x1,), (x2,), _ = eckart_turning_points(e, np.array([energy]))
            with mp.workdps(30):
                x1 = mp.findroot(lambda x: v(x) - energy, x1)
                x2 = mp.findroot(lambda x: v(x) - energy, x2)
            expected = mp_wkb_transmission(v, energy, x1, x2)
            assert wkb_for_potential(e, energy, ctx) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("fraction", [0.5, 0.95, 0.999])
    def test_hulthen_solved_near_the_peak(self, ctx, fraction):
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        energy = fraction * h.v0 / (1.0 - h.q)
        t = wkb_for_potential(h, energy, ctx, solve_turning_points=True)
        with mp.workdps(30):
            edge = mp.log(h.q + h.v0 / mp.mpf(energy)) / h.a
        expected = mp_wkb_transmission(_mp_hulthen(h), energy, -edge, edge, breaks=(0,))
        assert math.isfinite(t)
        assert t == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("above", [1e-9, 1e-10])
    def test_hulthen_fixed_window_ends_checked(self, ctx, above):
        # E just above V(+-1): every Gauss node lies inside the window, where V > E;
        # at +1e-10 only the check of V at the two ends tells invalid from noconv
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        energy = float(h.values(1.0)) + above
        with pytest.raises(InvalidInputError):
            wkb_for_potential(h, energy, ctx)

    def test_nonconvergence_reports_estimate(self, ctx, monkeypatch):
        # the estimate is that of the whole action, in every path that integrates;
        # each case runs at wkb._ABS_TOL and wkb._MAX_DEPTH, read when it is called
        h, e = Hulthen(v0=1.0, a=0.5, q=0.9), self.ASYMMETRIC
        cases = [
            lambda: wkb_for_potential(h, 1.0, ctx),
            lambda: wkb_for_potential(h, 1.0, ctx, solve_turning_points=True),
            lambda: wkb_for_potential(e, 1.0, ctx),
        ]
        for run in cases:
            with monkeypatch.context() as m, pytest.raises(ConvergenceError) as exc_info:
                m.setattr(wkb, "_ABS_TOL", 1e-300)
                m.setattr(wkb, "_MAX_DEPTH", 1)
                run()
            from_estimate = math.exp(-2.0 * math.sqrt(2.0) * exc_info.value.estimate)
            assert from_estimate == pytest.approx(run(), rel=1e-9)


class TestGenericRegion:
    def test_monotone_in_width(self, ctx):
        widths = np.linspace(0.5, 3.0, 12)
        ts = [wkb_for_potential(Rectangular(v0=1.0, a=a), 0.5, ctx) for a in widths]
        assert all(b < a for a, b in zip(ts, ts[1:]))

    def test_region_dipping_below_energy_rejected(self):
        # fixed limits (-2, 2): V = 0 < E outside the barrier
        r = Rectangular(v0=1.0, a=1.0)
        _, (error,) = _actions(r.values, np.array([0.5]), -2.0, 2.0)
        assert isinstance(error, InvalidInputError) and "V(x) < E" in str(error)

    def test_tiny_negative_noise_clamped(self):
        # V - E = -5e-13 on the whole fixed region: clamped to zero under the radical
        def v(x):
            return np.full(np.shape(x), -5e-13)

        (action,), (error,) = _actions(v, np.array([0.0]), 0.0, 1.0)
        assert error is None
        assert math.exp(-2.0 * math.sqrt(2.0) * action) == pytest.approx(1.0, abs=1e-6)

    def test_quadrature_nonconvergence_reports_estimate(self, ctx, monkeypatch):
        # the Hulthen fixed (-1, 1) window, at a tolerance it cannot meet in 3 halvings
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        monkeypatch.setattr(wkb, "_ABS_TOL", 1e-15)
        monkeypatch.setattr(wkb, "_MAX_DEPTH", 3)
        with pytest.raises(ConvergenceError) as exc_info:
            wkb_for_potential(h, 0.5, ctx)
        assert exc_info.value.estimate is not None

    def test_rounding_noise_stops_refinement(self):
        # an action of ~3.5e7 carries rounding noise above _ABS_TOL; refinement
        # must give up with ConvergenceError instead of halving without end
        code = (
            "from qscat import NATURAL_UNITS, Hulthen, wkb_for_potential\n"
            "from qscat.errors import ConvergenceError\n"
            "h = Hulthen(1e14, 0.5, 0.9)\n"
            "try:\n"
            "    wkb_for_potential(h, 1.0, NATURAL_UNITS)\n"
            "except ConvergenceError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('no ConvergenceError')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr

    def test_delta_unsupported(self, ctx):
        with pytest.raises(UnsupportedOperationError):
            wkb_for_potential(Delta(alpha=1.0), 0.5, ctx)

    def test_scales_with_context(self):
        # doubling hbar halves the action exponent
        from qscat import PhysicsContext

        r = Rectangular(v0=1.0, a=1.0)
        t1 = wkb_for_potential(r, 0.5, PhysicsContext(hbar=1.0, mass=1.0))
        t2 = wkb_for_potential(r, 0.5, PhysicsContext(hbar=2.0, mass=1.0))
        assert math.log(t2) == pytest.approx(0.5 * math.log(t1), rel=1e-10)


class TestTurningPoints:
    def test_hulthen_closed_form_inversion(self):
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        energy = 0.5
        (edge,), _ = hulthen_turning_points(h, np.array([energy]))
        assert edge == pytest.approx(2.0 * math.log(2.9), rel=1e-12)
        # V - E changes sign once on x > 0, where V(0) = 10 > E
        v = _mp_hulthen(h)
        with mp.workdps(30):
            root = mp.findroot(lambda x: v(x) - energy, (0, 6), solver="anderson")
        assert edge == pytest.approx(float(root), abs=1e-10)

    def test_eckart_residuals(self, ctx):
        # the symmetric profile: roots t = -+sqrt(1 - E/v0), mirror images in x
        e = Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=3.0, a=1.0)
        energy = 1.0
        (x1,), (x2,), _ = eckart_turning_points(e, np.array([energy]))
        assert abs(e.values(x1) - energy) < 1e-10
        assert abs(e.values(x2) - energy) < 1e-10
        assert x1 == pytest.approx(-x2, rel=1e-14)

    def test_no_barrier(self, ctx):
        # E = 20 lies above the peak v0 / (1 - q) = 10: no turning points
        h = Hulthen(v0=1.0, a=0.5, q=0.9)
        _, ((mask, error, _),) = hulthen_turning_points(h, np.array([20.0, 0.5]))
        assert mask.tolist() == [True, False] and error is NoBarrierError
        with pytest.raises(NoBarrierError):
            wkb_for_potential(h, 20.0, ctx, solve_turning_points=True)


class TestAccuracyTrend:
    def _rel_err(self, v0, ratio, ctx):
        energy = ratio * v0
        exact = probabilities_from_amplitudes(rectangular(v0, 1.0, energy, ctx)).transmission
        approx = wkb_for_potential(Rectangular(v0=v0, a=1.0), energy, ctx)
        return abs(approx - exact) / exact

    def test_relative_error_improves_with_height_near_the_top(self, ctx):
        # at E/v0 = 0.9 the asymptotic WKB/exact ratio 16 f (1-f) is close to 1
        # and taller barriers are genuinely more accurate in relative terms
        assert self._rel_err(100.0, 0.9, ctx) < self._rel_err(1.0, 0.9, ctx)

    def test_absolute_error_collapses_with_height(self, ctx):
        # the published trend in absolute terms, at the mid-barrier ratio
        def abs_err(v0):
            energy = 0.5 * v0
            exact = probabilities_from_amplitudes(rectangular(v0, 1.0, energy, ctx)).transmission
            return abs(wkb_for_potential(Rectangular(v0=v0, a=1.0), energy, ctx) - exact)

        assert abs_err(100.0) < 1e-12 * abs_err(1.0)


def _integral(f, a, b):
    """The integral of the array function f over [a, b], as the one owner of a call."""
    (value,), (error,) = _integrate_gauss_legendre(lambda x, rows: f(x), np.array([[a, b]]))
    if error is not None:
        raise error
    return value


class TestGaussLegendre:
    def test_polynomial_is_exact(self):
        # 48 nodes already integrate polynomials up to degree 95 exactly
        got = _integral(lambda x: x**3 - 2 * x + 1, 0.0, 2.0)
        assert got == pytest.approx(2.0, rel=1e-14)

    def test_sqrt_endpoint_needs_extra_depth_without_substitution(self, monkeypatch):
        # a bare sqrt edge converges only after halving toward it; the
        # turning-point path avoids this by substituting u^2 = x - x1
        with monkeypatch.context() as m, pytest.raises(ConvergenceError):
            m.setattr(wkb, "_MAX_DEPTH", 1)
            _integral(np.sqrt, 0.0, 1.0)
        got = _integral(np.sqrt, 0.0, 1.0)
        assert got == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_empty_interval(self):
        assert _integral(np.ones_like, 1.0, 1.0) == 0.0



def _key(row):
    """A wkb row as a comparable value: the MethodResult, or the error's class,
    message and estimate."""
    if isinstance(row, QscatError):
        return type(row), str(row), getattr(row, "estimate", None)
    return row


def _wkb_rows(p, energies, solve_turning_points=False):
    """p.wkb at each energy, as its error or its MethodResult."""
    transmission, _, _, errors = p.wkb(energies, NATURAL_UNITS, solve_turning_points)
    return [error or MethodResult("wkb", t) for t, error in zip(transmission.tolist(), errors)]


def _same_rows(p, energies, solve_turning_points=False):
    """p.wkb at each energy, checked bit for bit against the energy's own one-energy
    batch and against wkb_for_potential's number or error.  Returns the row keys."""
    batch = [_key(row) for row in _wkb_rows(p, energies, solve_turning_points)]
    for energy, row in zip(energies, batch):
        assert [_key(r) for r in _wkb_rows(p, [energy], solve_turning_points)] == [row]
        try:
            value = wkb_for_potential(p, energy, NATURAL_UNITS, solve_turning_points)
        except QscatError as exc:
            assert _key(exc) == row
        else:
            assert row.transmission == value
    return batch


def _codes(keys):
    return [key[0].code if isinstance(key[0], type) else None for key in keys]


class TestBatchedIntegrator:
    """The actions of many energies share one Gauss-Legendre call, yet every energy
    refines on its own and gets what it gets alone."""

    H = Hulthen(v0=1.0, a=0.5, q=0.9)

    def test_number_and_noconv_rows(self, monkeypatch):
        # at max_depth 1, E = 0.5 converges and E just below V(1) does not
        monkeypatch.setattr(wkb, "_MAX_DEPTH", 1)
        near_edge = float(self.H.values(1.0)) - 1e-6
        rows = _same_rows(self.H, [0.5, near_edge, 0.02, near_edge])
        assert _codes(rows) == [None, "noconv", None, "noconv"]
        assert rows[1] == rows[3] and math.isfinite(rows[1][2])

    def test_below_energy_row_next_to_numbers(self):
        rows = _same_rows(self.H, [0.02, 5.0, 0.5, float(self.H.values(1.0)) + 1e-9])
        assert _codes(rows) == [None, "invalid", None, "invalid"]

    def test_nonpositive_energies_are_wrongcase(self):
        rows = _same_rows(self.H, [0.5, 0.0, -1.0])
        assert _codes(rows) == [None, "wrongcase", "wrongcase"]

    def test_below_energy_found_next_to_a_nan_row(self, monkeypatch):
        # V dips below E = 0.5 inside the window only; a NaN node of another energy
        # in the same call must not hide it, even where the clamped integrand would
        # meet the (loose) tolerance at the first level
        def v(x):
            return 1.0 - 2.0 * np.exp(-100.0 * x * x)

        monkeypatch.setattr(wkb, "_ABS_TOL", 1.0)
        for energies in ([0.5], [math.nan, 0.5]):
            with np.errstate(all="ignore"):
                _, errors = _actions(v, np.array(energies), -1.0, 1.0)
            assert isinstance(errors[-1], InvalidInputError) and "V(x) < E" in str(errors[-1])

    @pytest.mark.parametrize("p, energies", [
        (H, [0.05, 0.5, 5.0, 9.9, 10.0, 12.0, 0.0]),  # the peak is v0 / (1 - q) = 10
        (Eckart(v_minus_inf=0.0, v_plus_inf=0.5, v0=3.0, a=1.0), [0.6, 1.0, 3.0, 0.4, 10.0]),
    ])
    def test_solved_turning_points(self, p, energies):
        rows = _same_rows(p, energies, solve_turning_points=True)
        assert set(_codes(rows)) == {None, "nobarrier"}

    @pytest.mark.parametrize("p", [H, Eckart(0.0, 0.0, 1.0, 1.0)])
    def test_batch_longer_than_one_block(self, p, monkeypatch):
        energies = np.linspace(0.02, 1.0, 3 * wkb._BATCH_OWNERS + 5).tolist()
        rows = _same_rows(p, energies)
        monkeypatch.setattr(wkb, "_BATCH_OWNERS", 4)
        assert [_key(row) for row in _wkb_rows(p, energies)] == rows
