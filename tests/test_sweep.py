import math

import numpy as np
import pytest

import one_point
from qscat import (
    NATURAL_UNITS,
    Delta,
    Eckart,
    Hulthen,
    PhysicsContext,
    Rectangular,
    SweepSpec,
    run_sweep,
    wkb_for_potential,
)
from qscat import exact, specfun, wkb
from qscat.errors import InvalidInputError, QscatError
from qscat.exact import _connection_route, _hulthen_parameters
from qscat.cli import render_sweep_csv
from qscat.sweep import (
    METHOD_ORDER,
    MethodResult,
    SweepRow,
    SweepTable,
    _cells,
    evaluate_methods,
    evaluate_table,
    sweep_rows,
)


def _point_by_point(spec):
    """The rows of spec's grid, each from its own one-value batch, evaluated from the
    top of the grid down and returned in grid order."""
    return [sweep_rows(spec, [float(x)])[0] for x in spec.grid()[::-1]][::-1]

EXACT = frozenset({"exact"})


class TestGrid:
    def test_two_points_hit_both_endpoints(self):
        spec = SweepSpec(Delta(alpha=1.0), "k", lo=0.5, hi=2.0, points=2, methods=EXACT)
        rows = run_sweep(spec)
        assert [r.variable_value for r in rows] == [0.5, 2.0]

    def test_rows_ascend_uniformly(self):
        spec = SweepSpec(Delta(alpha=1.0), "k", lo=1.0, hi=2.0, points=11, methods=EXACT)
        values = [r.variable_value for r in run_sweep(spec)]
        np.testing.assert_allclose(np.diff(values), 0.1, rtol=1e-12)

    def test_log_spaced(self):
        spec = SweepSpec(
            Delta(alpha=1.0), "k", lo=0.1, hi=10.0, points=5, methods=EXACT, log_spaced=True
        )
        values = [r.variable_value for r in run_sweep(spec)]
        ratios = [b / a for a, b in zip(values, values[1:])]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)

    def test_log_spaced_needs_positive_lo(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(
                Delta(alpha=1.0), "k", lo=0.0, hi=1.0, points=3, methods=EXACT, log_spaced=True
            )


class TestDeltaRecipe:
    def test_transmission_rises_and_crosses_half_at_matched_k(self):
        # alpha = 1 puts k0 = 1; T = 1/2 exactly at k = k0
        spec = SweepSpec(Delta(alpha=1.0), "k", lo=0.02, hi=10.0, points=500, methods=EXACT)
        rows = run_sweep(spec)
        ts = [r.results["exact"].transmission for r in rows]
        assert ts[0] < 1e-3
        assert ts[-1] > 0.98
        assert all(b > a for a, b in zip(ts, ts[1:]))
        at_k0 = min(rows, key=lambda r: abs(r.variable_value - 1.0))
        assert abs(at_k0.variable_value - 1.0) < 1e-9
        assert at_k0.results["exact"].transmission == pytest.approx(0.5, abs=1e-12)
        rs = [r.results["exact"].reflection for r in rows]
        assert all(b < a for a, b in zip(rs, rs[1:]))


class TestPurityAndDeterminism:
    def test_rerun_is_identical(self):
        spec = SweepSpec(
            Rectangular(v0=1.0, a=1.0), "q", lo=0.1, hi=5.0, points=50, methods=EXACT
        )
        assert run_sweep(spec) == run_sweep(spec)

    def test_rows_independent_of_evaluation_order(self):
        spec = SweepSpec(
            Rectangular(v0=1.0, a=1.0), "q", lo=0.1, hi=5.0, points=20, methods=EXACT
        )
        rows = run_sweep(spec)
        assert rows == _point_by_point(spec)

    def test_hulthen_batch_equals_single_points(self):
        # run_sweep sums the 2F1 series of all 100 points in lockstep; each row
        # must still be exactly what the point gives on its own
        spec = SweepSpec(Hulthen(v0=1.0, a=0.5, q=0.9), "E", lo=1.09, hi=10.0, points=100)
        rows = run_sweep(spec)
        assert rows == _point_by_point(spec)
        assert all(r.results["exact"].error is None for r in rows)

    def test_hulthen_noconv_points_independent_of_batch(self, monkeypatch):
        # a mixed-route batch: up to E ~ 24, (1 - q)|nu| <= 5 and the points take
        # the connection route, whose series need <= 40 terms; above, the direct
        # series need ~350, and 350 terms are too few for the longest series of
        # some points: those points, and only those, give noconv whether batched
        # or alone
        monkeypatch.setattr(specfun, "_MAX_TERMS", 350)
        spec = SweepSpec(Hulthen(v0=1.0, a=0.5, q=0.9), "E", lo=1.09, hi=100.0, points=100)
        _, _, nu, lam = _hulthen_parameters(spec.potential, spec.grid(), 1.0)
        assert _connection_route(spec.potential.q, lam, nu).tolist() == [True] * 23 + [False] * 77
        rows = run_sweep(spec)
        assert rows == _point_by_point(spec)
        errors = [r.results["exact"].error for r in rows]
        assert errors[:23] == [None] * 23
        assert errors.count("noconv") == 48
        assert errors.count(None) == 52

    def test_wkb_and_bound_rows_independent_of_batch(self, monkeypatch):
        # the fixed-window actions of all 100 energies share Gauss-Legendre calls of
        # wkb._BATCH_OWNERS energies; each row is still what the point gives alone
        spec = SweepSpec(Hulthen(v0=1.0, a=0.5, q=0.9), "E", lo=0.02, hi=1.5, points=100,
                         methods=frozenset({"wkb", "bound"}))
        rows = run_sweep(spec)
        assert rows == _point_by_point(spec)
        monkeypatch.setattr(wkb, "_BATCH_OWNERS", 3)
        assert run_sweep(spec) == rows
        assert {r.results["wkb"].error for r in rows} == {None, "invalid"}

    def test_hulthen_rows_independent_of_points_per_call(self, monkeypatch):
        # a long sweep splits each route into calls of _BATCH_POINTS points
        spec = SweepSpec(Hulthen(v0=1.0, a=0.5, q=0.9), "E", lo=1.09, hi=60.0, points=30)
        rows = run_sweep(spec)
        monkeypatch.setattr(exact, "_BATCH_POINTS", 4)
        assert run_sweep(spec) == rows


class TestCaseBoundary:
    def test_gap_marker_at_barrier_top(self):
        spec = SweepSpec(
            Rectangular(v0=1.0, a=1.0), "E", lo=0.5, hi=1.5, points=3, methods=EXACT
        )
        rows = run_sweep(spec)
        assert not rows[0].gap_marker and not rows[2].gap_marker
        assert rows[1].gap_marker
        assert rows[1].results["exact"].error == "degenerate"
        # the sweep still produced usable data on both sides
        assert rows[0].results["exact"].transmission is not None
        assert rows[2].results["exact"].transmission is not None

    def test_error_rows_do_not_abort(self):
        # below-threshold Hulthen energies produce error cells, not exceptions
        spec = SweepSpec(
            Hulthen(v0=1.0, a=0.5, q=0.9), "E", lo=0.5, hi=2.0, points=4, methods=EXACT
        )
        rows = run_sweep(spec)
        assert rows[0].results["exact"].error == "wrongcase"
        assert rows[-1].results["exact"].error is None


class TestCrossMethod:
    def test_bound_below_exact_everywhere(self):
        spec = SweepSpec(
            Rectangular(v0=1.0, a=1.0),
            "E",
            lo=1.02,
            hi=20.0,
            points=60,
            methods=frozenset({"exact", "bound"}),
        )
        for row in run_sweep(spec):
            assert row.bound_gap is not None
            assert row.bound_gap >= -1e-12

    def test_wkb_column_for_tunneling_sweep(self):
        spec = SweepSpec(
            Rectangular(v0=4.0, a=1.0),
            "E",
            lo=0.2,
            hi=3.8,
            points=10,
            methods=frozenset({"exact", "wkb"}),
        )
        for row in run_sweep(spec):
            exact = row.results["exact"]
            wkb = row.results["wkb"]
            assert exact.error is None and wkb.error is None
            assert 0.0 < wkb.transmission <= 1.0

    def test_eckart_v0_sweep_uses_fixed_energy(self):
        spec = SweepSpec(
            Eckart(v_minus_inf=1.5, v_plus_inf=0.0, v0=0.0, a=1.0),
            "V0",
            lo=-4.0,
            hi=1.0,
            points=11,
            methods=EXACT,
            fixed={"energy": 2.0},
        )
        rows = run_sweep(spec)
        assert all(r.results["exact"].error is None for r in rows)
        # primary pair is (T, 1 - T)
        for r in rows:
            res = r.results["exact"]
            assert res.reflection == pytest.approx(1.0 - res.transmission, abs=1e-15)


class TestValidation:
    def test_eckart_v0_requires_energy(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(
                Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=0.0, a=1.0),
                "V0",
                lo=-4.0,
                hi=1.0,
                points=5,
                methods=EXACT,
            )

    def test_variable_validity(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(Hulthen(v0=1.0, a=0.5, q=0.9), "q", lo=0.1, hi=0.5, points=5)
        with pytest.raises(InvalidInputError):
            SweepSpec(Delta(alpha=1.0), "V0", lo=0.1, hi=0.5, points=5)

    def test_methods_validity(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(
                Delta(alpha=1.0), "k", lo=0.1, hi=1.0, points=5, methods=frozenset({"nope"})
            )
        with pytest.raises(InvalidInputError):
            SweepSpec(Delta(alpha=1.0), "k", lo=0.1, hi=1.0, points=5, methods=frozenset())

    def test_bounds_and_points(self):
        with pytest.raises(InvalidInputError):
            SweepSpec(Delta(alpha=1.0), "k", lo=1.0, hi=1.0, points=5)
        with pytest.raises(InvalidInputError):
            SweepSpec(Delta(alpha=1.0), "k", lo=0.1, hi=1.0, points=1)

    @pytest.mark.parametrize(
        "lo, hi", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan), (-1e308, 1e308)]
    )
    def test_bounds_and_their_span_must_be_finite(self, lo, hi):
        # an infinite bound or span would make every grid value NaN or infinite
        with pytest.raises(InvalidInputError, match="finite"):
            SweepSpec(Delta(alpha=1.0), "k", lo=lo, hi=hi, points=3)


# (potential, swept variable, [(value, code of its exact row)]): both branches of each
# closed form, and the points where they fail
CLOSED_FORM_BATCHES = {
    "delta-k": (Delta(1.0), "k", [
        (0.02, None), (1.0, None), (7.5, None),
        (1e200, "invalid"),  # (hbar k)^2 overflows in the sweep map
    ]),
    "delta-E": (Delta(1.0), "E", [
        (0.5, None), (50.0, None), (5e307, None),
        (0.0, "invalid"), (-1.0, "invalid"),
        (1e308, "invalid"),  # 2 m E overflows
    ]),
    "rect-E": (Rectangular(1.0, 1.0), "E", [
        (0.5, None), (2.0, None),
        (1.0, "degenerate"),  # E = v0: no point to evaluate
        (0.0, "invalid"), (-0.5, "invalid"),
        (5e307, "invalid"),  # (k + q)^2 overflows
    ]),
    "rect-phase": (Rectangular(1.0, 1e290), "E", [
        (0.5, None), (2.0, None),
        (1e40, "invalid"),  # 2ka is infinite
    ]),
    "rect-q": (Rectangular(0.5, 1.0), "q", [
        (0.0025, None), (1.0, None), (10.0, None),
        (0.0, "degenerate"),
        (1e200, "invalid"),  # (hbar q)^2 overflows in the sweep map
    ]),
    "hulthen-E": (Hulthen(1.0, 0.5, 0.999), "E", [
        (2.0, None), (7.5, None),
        (1.0, "wrongcase"), (0.5, "wrongcase"),  # E <= m
        (1e300, "invalid"),  # E^2 overflows
        (1e4, "noconv"),  # the direct series at q = 0.999 exceed the term cap
    ]),
}


def _one_point(p, energy):
    if isinstance(p, Delta):
        return one_point.delta(p.alpha, energy, NATURAL_UNITS)
    if isinstance(p, Hulthen):
        return one_point.hulthen(p, energy, NATURAL_UNITS.mass)
    return one_point.rectangular(p.v0, p.a, energy, NATURAL_UNITS)


@pytest.mark.parametrize("case", sorted(CLOSED_FORM_BATCHES))
def test_closed_form_rows_are_one_path_and_batch_independent(case):
    """Each delta, rectangular and Hulthen row is the same alone and in a mixed batch, and is
    the one-energy amplitude grid's result (or error) at that energy, bit for bit."""
    p, variable, points = CLOSED_FORM_BATCHES[case]
    spec = SweepSpec(p, variable, lo=1.0, hi=2.0, points=2)
    to_point = p.sweep_map(variable, NATURAL_UNITS, {})
    batch = sweep_rows(spec, [x for x, _ in points])
    for (x, code), row in zip(points, batch):
        assert sweep_rows(spec, [x]) == [row]
        res = row.results["exact"]
        assert res.error == code
        (energy,), _, (error,) = to_point([x])
        if error is not None:
            assert row.gap_marker
            continue
        energy = energy.item()
        if code is None:
            amps = _one_point(p, energy)
            probs = exact.probability_arrays(np.array([amps.t]), np.array([amps.r]))
            # T, R and the defect are >= 0, so == compares every bit
            assert (res.transmission, res.reflection, res.defect) == tuple(x.item() for x in probs)
        else:
            with pytest.raises(QscatError) as raised:
                _one_point(p, energy)
            assert raised.value.code == code


# (method, potential, ctx, [(energy, code of its row)]): numbers and every error code
# each method gives, mixed in one batch
METHOD_BATCHES = {
    "wkb-rect": ("wkb", Rectangular(1.0, 1.0), NATURAL_UNITS, [
        (0.5, None), (0.999, None), (2.0, "wrongcase"), (0.0, "wrongcase"),  # E >= v0 or E <= 0
    ]),
    "wkb-eckart": ("wkb", Eckart(0.0, 0.0, 1.0, 1.0), NATURAL_UNITS, [
        (0.5, None), (2.0, "nobarrier"), (-0.5, "nobarrier"),
    ]),
    "wkb-eckart-action": ("wkb", Eckart(0.0, 0.0, 1e134, 1e250), NATURAL_UNITS, [
        (1e-79, "invalid"),  # the action overflows
        (1e200, "nobarrier"),
    ]),
    "wkb-hulthen": ("wkb", Hulthen(1.0, 0.5, 0.9), NATURAL_UNITS, [
        (0.02, None), (0.5, None), (5.0, "invalid"),  # V < E in the fixed window
        (0.0, "wrongcase"), (-1.0, "wrongcase"),  # no channel propagates
    ]),
    "wkb-delta": ("wkb", Delta(1.0), NATURAL_UNITS, [(0.5, "unsupported"), (2.0, "unsupported")]),
    "bound-rect": ("bound", Rectangular(1.0, 1.0), NATURAL_UNITS, [
        (0.5, None), (2.0, None), (0.0, "invalid"), (-1.0, "invalid"),  # evanescent
    ]),
    "bound-rect-nan": ("bound", Rectangular(1e300, 1e300), NATURAL_UNITS, [
        (1.0, None), (1e308, "invalid"),  # inf / inf in the sech^2 exponent
    ]),
    "bound-eckart": ("bound", Eckart(0.0, 0.0, 1.0, 1.0), NATURAL_UNITS, [
        (0.5, None), (2.0, None), (-1.0, "invalid"),
    ]),
    "bound-eckart-unequal": ("bound", Eckart(1.5, 0.0, 1.0, 1.0), NATURAL_UNITS, [
        (2.0, "unsupported"), (0.5, "unsupported"),
    ]),
    "bound-hulthen-hbar": ("bound", Hulthen(1.0, 0.5, 0.9), PhysicsContext(hbar=1e-200), [
        (2.0, "invalid"), (0.5, "invalid"),  # hbar^2 underflows: m / hbar^2 divides by zero
    ]),
    "bound-delta": ("bound", Delta(1.0), NATURAL_UNITS, [(0.5, "unsupported")]),
}


def _scalar_method(method, p, energy, ctx):
    """(value, code) of method at energy alone: wkb_for_potential, or p.bound of a
    one-element list."""
    try:
        if method == "wkb":
            value = wkb_for_potential(p, energy, ctx)
        else:
            value = one_point.bound(p, energy, ctx).lower_bound
    except QscatError as exc:
        return None, exc.code
    except ArithmeticError:
        return None, "invalid"
    return value, None if math.isfinite(value) else "invalid"


@pytest.mark.parametrize("case", sorted(METHOD_BATCHES))
def test_wkb_and_bound_rows_are_batch_independent(case):
    """Each WKB and bound row is the same alone and in a mixed batch, and is the public
    scalar function's value (or error code) at that energy, bit for bit."""
    method, p, ctx, points = METHOD_BATCHES[case]
    spec = SweepSpec(p, "E", lo=1.0, hi=2.0, points=2, methods=frozenset({method}), ctx=ctx)
    batch = sweep_rows(spec, [energy for energy, _ in points])
    for (energy, code), row in zip(points, batch):
        assert sweep_rows(spec, [energy]) == [row]
        res = row.results[method]
        value, scalar_code = _scalar_method(method, p, energy, ctx)
        assert res.error == code == scalar_code
        if code is None:
            assert res.transmission == value


def test_one_family_call_per_potential_and_method(monkeypatch):
    """A V0 sweep makes one family call per method for all its points, with v0 as an
    array; wkb and bound, which have no array of heights, then call each distinct
    potential once."""
    calls = []
    for method in METHOD_ORDER:
        def recording(self, energies, ctx, *args, original=getattr(Eckart, method), method=method,
                      **swept):
            calls.append((method, self.v0, len(energies), sorted(swept)))
            return original(self, energies, ctx, *args, **swept)

        monkeypatch.setattr(Eckart, method, recording)
    spec = SweepSpec(Eckart(0.0, 0.0, 1.0, 1.0), "V0", lo=1.0, hi=2.0, points=2,
                     methods=frozenset(METHOD_ORDER), fixed={"energy": 0.5})
    sweep_rows(spec, [1.0, 2.0, 1.0, 3.0, 2.0, 1.0])
    assert sorted(calls) == sorted(
        [(method, 1.0, 6, ["v0"]) for method in METHOD_ORDER]
        + [(method, v0, n, []) for v0, n in ((1.0, 3), (2.0, 2), (3.0, 1)) for method in ("wkb", "bound")]
    )


def test_fig7_sweep_is_one_exact_call(monkeypatch):
    sizes = []
    exact = Eckart.exact

    def recording(self, energies, ctx, **swept):
        sizes.append(len(energies))
        return exact(self, energies, ctx, **swept)

    monkeypatch.setattr(Eckart, "exact", recording)
    spec = SweepSpec(Eckart(1.5, 0.0, 0.0, 1.0), "V0", -10.5, 2.0, 501, fixed={"energy": 2.0})
    rows = run_sweep(spec)
    assert sizes == [501]
    assert all(row.results["exact"].error is None for row in rows)


# (potential, variable, fixed, values) of every family/variable pair, with the points
# where the sweep map or a method fails mixed in
TABLE_CASES = {
    "delta-k": (Delta(1.0), "k", {}, [0.5, 1e200, 0.0, -1.0, 2.0]),  # (hbar k)^2 overflows
    "delta-E": (Delta(1.0), "E", {}, [0.5, 0.0, -1.0, 1e308, 2.0]),
    "rect-q": (Rectangular(0.5, 1.0), "q", {}, [1.0, 0.0, 1e200, -2.0, 10.0]),  # q = 0 is E = v0
    "rect-E": (Rectangular(1.0, 1.0), "E", {}, [0.5, 1.0, 0.0, -0.5, 5e307, 2.0]),  # (k + q)^2 overflows
    "eckart-E": (Eckart(0.0, 0.0, 1.0, 1.0), "E", {}, [0.5, 2.0, 0.0, -1.0, 1e308]),
    # unequal asymptotes: no bound; an infinite v0 is no potential
    "eckart-V0": (Eckart(1.5, 0.0, 0.0, 1.0), "V0", {"energy": 2.0}, [-10.5, 1.0, 1.0, math.inf, -3e307]),
    "eckart-V0-evanescent": (Eckart(1.5, 0.0, 0.0, 1.0), "V0", {"energy": 1.0}, [-1.0, 1.0]),
    "hulthen-E": (Hulthen(1.0, 0.5, 0.9), "E", {}, [2.0, 1.0, 0.5, -1.0, 1e300, 0.3]),
}


@pytest.mark.parametrize("case", sorted(TABLE_CASES))
def test_table_and_rows_follow_one_rule(case):
    """A sweep table renders as its list of rows does, and each of its rows is the
    one-value sweep at that value."""
    p, variable, fixed, values = TABLE_CASES[case]
    spec = SweepSpec(p, variable, lo=-1.0, hi=2.0, points=7, methods=frozenset(METHOD_ORDER),
                     fixed=fixed)
    for table in (sweep_rows(spec, values), run_sweep(spec)):
        assert render_sweep_csv(table, spec.methods) == render_sweep_csv(list(table), spec.methods)
        assert table == list(table) and list(table) == table
        for row in table:
            assert sweep_rows(spec, [row.variable_value]) == [row]
    codes = {res.error for row in sweep_rows(spec, values) for res in row.results.values()}
    assert None in codes or case == "eckart-V0-evanescent"
    assert codes - {None}


def test_rows_built_one_energy_at_a_time_render_as_the_family_table():
    """A list of SweepRow, each from wkb_for_potential at one energy (a MethodResult
    with T, or with the error code), renders as the table of the family's wkb over
    all energies: the rows perfbench/run.py builds for its hulthen_turning_points panel."""
    p, methods = Hulthen(1.0, 0.5, 0.9), frozenset({"wkb"})
    peak = p.v0 / (1.0 - p.q)
    energies = SweepSpec(p, "E", 0.005 * peak, 0.95 * peak, 100).grid().tolist() + [peak, 12.0, 0.0]
    rows = []
    for energy in energies:
        try:
            t = wkb_for_potential(p, energy, NATURAL_UNITS, solve_turning_points=True)
            res = MethodResult("wkb", transmission=t)
        except QscatError as exc:
            res = MethodResult("wkb", error=exc.code)
        rows.append(SweepRow(energy, {"wkb": res}))
    columns = {"wkb": _cells(p.wkb(energies, NATURAL_UNITS, solve_turning_points=True), [], None)}
    table = SweepTable(energies, columns, [None] * len(energies), [False] * len(energies))
    assert {row.results["wkb"].error for row in rows} == {None, "nobarrier"}
    assert render_sweep_csv(rows, methods) == render_sweep_csv(table, methods)


@pytest.mark.parametrize("p, energy", [
    (Delta(1.0), 0.5), (Rectangular(1.0, 1.0), 0.5), (Rectangular(1.0, 1.0), 1.0),
    (Eckart(0.0, 0.0, 1.0, 1.0), 0.5), (Eckart(1.5, 0.0, 1.0, 1.0), 2.0), (Hulthen(1.0, 0.5, 0.9), 2.0),
])
def test_evaluate_methods_is_row_zero_of_evaluate_table(p, energy):
    # row 0 of a batch whose other rows fail in some methods
    methods = frozenset(METHOD_ORDER)
    row = evaluate_table(p, [energy, 2.0 * energy + 1.0, -1.0], methods)[0]
    assert evaluate_methods(p, energy, methods) == (row.results, row.bound_gap)
