import math

import pytest

from oracles import probabilities_from_amplitudes
from one_point import eckart_transmission, hulthen, rectangular
from qscat import (
    Delta,
    Eckart,
    Hulthen,
    PhysicsContext,
    Rectangular,
    analytic_resonances,
    numeric_resonances,
)
from qscat.cli import main
from qscat.errors import InvalidInputError, UnsupportedOperationError
from qscat.resonance import Kind, Source, golden_section_max

# location of the first transmission resonance on the reference Hulthen curve
# (v0 = 1, a = 0.5, q = 0.9, m = 1), frozen after verification against the
# high-precision series oracle
HULTHEN_RESONANCE_E = 2.534742829508449


def _listwise(f):
    """numeric_resonances' curve (a list of values to a list) from a scalar function."""
    return lambda xs: [f(x) for x in xs]


def _rect_t_curve(a, ctx):
    def curve(q):
        energy = 1.0 + 0.5 * q**2
        return probabilities_from_amplitudes(rectangular(1.0, a, energy, ctx)).transmission

    return curve


class TestAnalytic:
    def test_rectangular_locations(self, ctx):
        listing = analytic_resonances(Rectangular(v0=1.0, a=1.0), "q", 3, ctx)
        locations = [r.location for r in listing.reports]
        assert locations == pytest.approx([math.pi / 2, math.pi, 3 * math.pi / 2])
        assert all(r.value == 1.0 and r.label == "resonance" for r in listing.reports)
        assert all(r.source is Source.ANALYTIC for r in listing.reports)

    def test_rectangular_width_scaling(self, ctx):
        listing = analytic_resonances(Rectangular(v0=1.0, a=2.0), "q", 2, ctx)
        assert [r.location for r in listing.reports] == pytest.approx(
            [math.pi / 4, math.pi / 2]
        )

    def test_eckart_locations_natural_units(self, ctx):
        e = Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=0.0, a=1.0)
        listing = analytic_resonances(e, "V0", 2, ctx)
        assert [r.location for r in listing.reports] == pytest.approx([-1.0, -3.0])
        assert all(r.value == 1.0 for r in listing.reports)

    def test_eckart_scaling_with_context(self):
        ctx = PhysicsContext(hbar=2.0, mass=0.5)
        e = Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=0.0, a=1.0)
        listing = analytic_resonances(e, "V0", 1, ctx)
        # -(hbar^2 / 2 m a^2) n (n+1) = -(4 / 1) * 2
        assert listing.reports[0].location == pytest.approx(-8.0)

    def test_eckart_asymmetric_values_are_peaks(self, ctx):
        e = Eckart(v_minus_inf=1.5, v_plus_inf=0.0, v0=0.0, a=1.0)
        listing = analytic_resonances(e, "V0", 2, ctx, energy=2.0)
        for r in listing.reports:
            assert r.label == "peak"
            assert r.value < 1.0 - 1e-6

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_eckart_locations_are_local_maxima(self, ctx, symmetric):
        from dataclasses import replace

        v_minus = 0.0 if symmetric else 1.5
        e = Eckart(v_minus_inf=v_minus, v_plus_inf=0.0, v0=0.0, a=1.0)
        listing = analytic_resonances(e, "V0", 2, ctx, energy=2.0)
        for r in listing.reports:
            at = eckart_transmission(replace(e, v0=r.location), 2.0, ctx)
            for delta in (-1e-3, 1e-3):
                nearby = eckart_transmission(replace(e, v0=r.location + delta), 2.0, ctx)
                assert nearby < at

    def test_eckart_asymmetric_needs_energy(self, ctx):
        e = Eckart(v_minus_inf=1.5, v_plus_inf=0.0, v0=0.0, a=1.0)
        with pytest.raises(InvalidInputError):
            analytic_resonances(e, "V0", 1, ctx)

    def test_eckart_no_reflection_resonances(self, ctx):
        e = Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=0.0, a=1.0)
        listing = analytic_resonances(e, "V0", 2, ctx, kind=Kind.REFLECTION)
        assert listing.reports == ()
        assert "no reflection resonances" in listing.reason

    def test_delta_no_transmission_resonances(self, ctx):
        listing = analytic_resonances(Delta(alpha=1.0), "k", 3, ctx)
        assert listing.reports == ()
        assert "no transmission resonances" in listing.reason

    def test_delta_reflection_boundary(self, ctx):
        listing = analytic_resonances(Delta(alpha=1.0), "k", 1, ctx, kind=Kind.REFLECTION)
        (report,) = listing.reports
        assert report.location == 0.0
        assert report.at_boundary

    def test_rectangular_reflection_boundary(self, ctx):
        listing = analytic_resonances(
            Rectangular(v0=1.0, a=1.0), "k", 1, ctx, kind=Kind.REFLECTION
        )
        (report,) = listing.reports
        assert report.location == 0.0 and report.at_boundary

    def test_unsupported_pair(self, ctx):
        with pytest.raises(UnsupportedOperationError):
            analytic_resonances(Hulthen(v0=1.0, a=0.5, q=0.9), "E", 2, ctx)

    def test_bad_n_max(self, ctx):
        with pytest.raises(InvalidInputError):
            analytic_resonances(Rectangular(v0=1.0, a=1.0), "q", 0, ctx)


class TestNumeric:
    def test_recovers_rectangular_locations(self, ctx):
        reports = numeric_resonances(
            _listwise(_rect_t_curve(1.0, ctx)), (0.1, 5.0), grid_n=400, refine_tol=1e-8
        )
        resonant = [r for r in reports if r.label == "resonance"]
        expected = [math.pi / 2, math.pi, 3 * math.pi / 2]
        found = sorted(r.location for r in resonant)
        assert len(found) == 3
        for got, ref in zip(found, expected):
            assert abs(got - ref) < 1e-6

    def test_agrees_with_analytic_to_refinement_tolerance(self, ctx):
        refine_tol = 1e-8
        listing = analytic_resonances(Rectangular(v0=1.0, a=1.0), "q", 3, ctx)
        reports = numeric_resonances(
            _listwise(_rect_t_curve(1.0, ctx)), (0.1, 5.0), grid_n=400, refine_tol=refine_tol
        )
        for analytic, numeric in zip(listing.reports, reports):
            assert abs(analytic.location - numeric.location) < 10 * refine_tol

    def test_resonance_values_at_analytic_locations(self, ctx):
        for report in analytic_resonances(Rectangular(v0=1.0, a=1.0), "q", 5, ctx).reports:
            assert _rect_t_curve(1.0, ctx)(report.location) >= 1.0 - 1e-9

    def test_constant_curve_has_no_peaks(self):
        assert numeric_resonances(lambda xs: [0.5] * len(xs), (0.0, 1.0), grid_n=64) == []

    def test_hulthen_reference_curve(self):
        h = Hulthen(v0=1.0, a=0.5, q=0.9)

        def curve(energy):
            return probabilities_from_amplitudes(hulthen(h, energy)).transmission

        reports = numeric_resonances(_listwise(curve), (1.09, 10.0), grid_n=256, refine_tol=1e-8)
        assert len(reports) >= 1
        first = reports[0]
        assert first.label == "resonance"
        assert first.value >= 1.0 - 1e-6
        assert abs(first.location - HULTHEN_RESONANCE_E) < 1e-6

    def test_deterministic(self, ctx):
        args = (_listwise(_rect_t_curve(1.0, ctx)), (0.1, 5.0), 128, 1e-8)
        first = numeric_resonances(*args)
        second = numeric_resonances(*args)
        assert [(r.location, r.value) for r in first] == [
            (r.location, r.value) for r in second
        ]

    def test_grid_validation(self):
        with pytest.raises(InvalidInputError):
            numeric_resonances(lambda xs: xs, (0.0, 1.0), grid_n=8)
        with pytest.raises(InvalidInputError):
            numeric_resonances(lambda xs: xs, (1.0, 0.0))

    @pytest.mark.xfail(strict=True, reason=(
        "golden_section_max compares T values that tie to the last bit near a flat "
        "maximum, so rounding noise, not --refine-tol, places the peak: this scan puts "
        "the three peaks 1.0e-8, 8.9e-8 and 3.7e-8 from n pi/2"))
    def test_cli_peaks_within_refine_tol(self, capsys):
        refine_tol = 1e-8
        assert main(["resonances", "--potential", "rect", "--v0", "1", "--a", "1", "--var", "q",
                     "--numeric", "--lo", "0.1", "--hi", "5", "--grid-n", "400",
                     "--refine-tol", repr(refine_tol)]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        locations = [float(row.split(",")[1]) for row in rows]
        assert len(locations) == 3
        for n, location in enumerate(locations, 1):
            assert abs(location - n * math.pi / 2) <= refine_tol, (n, location)


class TestGoldenSection:
    def test_parabola_maximum(self):
        loc = golden_section_max(lambda x: -((x - 0.3) ** 2), 0.0, 1.0, 1e-10)
        assert loc == pytest.approx(0.3, abs=1e-9)

    def test_bit_identical_reruns(self):
        f = lambda x: math.sin(3 * x) * math.exp(-0.1 * x)
        a = golden_section_max(f, 0.0, 1.0, 1e-12)
        b = golden_section_max(f, 0.0, 1.0, 1e-12)
        assert a == b

    def test_stops_once_the_bracket_stops_shrinking(self):
        # at tol = 1e-300 the bracket reaches the spacing of the doubles near 1.2345
        # after ~75 steps; running on re-evaluated the same few points ~1400 times
        calls = []

        def f(x):
            calls.append(x)
            return -((x - 1.2345) ** 2)

        loc = golden_section_max(f, 1.0, 1.5, 1e-300)
        assert loc == pytest.approx(1.2345, abs=1e-15)
        assert len(calls) == len(set(calls)) < 80
