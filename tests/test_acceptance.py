"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line.

Criterion 4 measures WKB accuracy in the tunnelling exponent, the quantity the
semiclassical method determines (Landau & Lifshitz, *Quantum Mechanics*, sec.
50): ln T is given up to an O(1) error and the prefactor of the exponential is
left open.  The relative error in T itself is the wrong measure for the bare
exponential T_w = exp(-2 sqrt(2m)/hbar * integral sqrt(V - E) dx).  For the
rectangular barrier at f = E/V0 the exact T/T_w tends to 16 f (1 - f), so at
f = 1/2 (exact T = sech^2(2Qa) -> 4 exp(-4Qa)) |T_w - T|/T rises toward 3/4 as
the barrier grows, while |ln T_w - ln T| / |ln T| falls like 1/(Qa).  See
``test_wkb.py::TestAccuracyTrend`` for the absolute-error trend and the
relative-error trend near the barrier top.
"""

import cmath
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from oracles import mp_hyp2f1, probabilities_from_amplitudes, rectangular_bound_closed_form, unitarity_defect
from one_point import bound, delta, eckart_transmission, hulthen, rectangular
from qscat import (
    Eckart,
    Hulthen,
    PhysicsContext,
    Rectangular,
    analytic_resonances,
    gauss_2f1,
    log_gamma,
    numeric_resonances,
    wkb_for_potential,
)
from qscat.cli import main

NATURAL = PhysicsContext()


def _report(number: int, name: str, ok: bool) -> bool:
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def _probs(amps):
    return probabilities_from_amplitudes(amps)


# ---------------------------------------------------------------------------
# 1. unitarity


def test_criterion_1_unitarity_suite(rng):
    worst = {"delta": 0.0, "rect_above": 0.0, "rect_below": 0.0, "hulthen": 0.0}
    for _ in range(200):
        ctx = PhysicsContext(hbar=rng.uniform(0.5, 2.0), mass=rng.uniform(0.5, 2.0))
        worst["delta"] = max(
            worst["delta"],
            unitarity_defect(_probs(delta(rng.uniform(0.1, 10), rng.uniform(0.01, 50), ctx))),
        )
        v0, a = rng.uniform(0.1, 10.0), rng.uniform(0.1, 3.0)
        worst["rect_above"] = max(
            worst["rect_above"],
            unitarity_defect(_probs(rectangular(v0, a, v0 * rng.uniform(1.01, 10.0), ctx))),
        )
        worst["rect_below"] = max(
            worst["rect_below"],
            unitarity_defect(_probs(rectangular(v0, a, v0 * rng.uniform(0.01, 0.99), ctx))),
        )
    fig10a = Hulthen(v0=1.0, a=0.5, q=0.9)
    for energy in np.linspace(1.09, 10.0, 100):
        worst["hulthen"] = max(
            worst["hulthen"],
            unitarity_defect(_probs(hulthen(fig10a, float(energy), 1.0))),
        )
    ok = (
        worst["delta"] < 1e-9
        and worst["rect_above"] < 1e-9
        and worst["rect_below"] < 1e-9
        and worst["hulthen"] < 1e-9
    )
    assert _report(1, "unitarity (delta/rect I/rect II/hulthen grid < 1e-9)", ok), worst


# ---------------------------------------------------------------------------
# 2. rectangular resonances


def test_criterion_2_rectangular_resonances():
    ok = True
    details = []
    for a in (1.0, 2.0):
        for n in range(1, 6):
            q = n * math.pi / (2.0 * a)
            t = _probs(rectangular(1.0, a, 1.0 + 0.5 * q * q, NATURAL)).transmission
            if abs(t - 1.0) >= 1e-12:
                ok = False
                details.append((a, n, t))

        def curve(q, a=a):
            return _probs(rectangular(1.0, a, 1.0 + 0.5 * q * q, NATURAL)).transmission

        hi = 5.5 * math.pi / (2.0 * a)
        found = [
            r.location
            for r in numeric_resonances(
                lambda qs: [curve(q) for q in qs], (0.05, hi), grid_n=800, refine_tol=1e-9
            )
            if r.label == "resonance"
        ]
        expected = [n * math.pi / (2.0 * a) for n in range(1, 6)]
        if len(found) < 5 or any(
            min(abs(f - e) for f in found) >= 1e-6 for e in expected
        ):
            ok = False
            details.append((a, "numeric", found))
    assert _report(2, "rectangular resonances at q = n pi / 2a", ok), details


# ---------------------------------------------------------------------------
# 3. WKB closed form


def test_criterion_3_wkb_closed_form(rng):
    worst = 0.0
    for _ in range(50):
        v0 = rng.uniform(0.2, 10.0)
        a = rng.uniform(0.2, 3.0)
        energy = v0 * rng.uniform(0.05, 0.95)
        expected = math.exp(-4.0 * math.sqrt(2.0 * (v0 - energy)) * a)
        got = wkb_for_potential(Rectangular(v0=v0, a=a), energy, NATURAL)
        worst = max(worst, abs(got - expected) / expected)
    assert _report(3, "WKB quadrature matches exp(-4Qa) to 1e-9", worst < 1e-9), worst


# ---------------------------------------------------------------------------
# 4. WKB accuracy trend, measured in the tunnelling exponent


def test_criterion_4_wkb_relative_error_trend():
    a, ratio = 1.0, 0.5

    def exponent_error(v0):
        energy = ratio * v0
        log_exact = math.log(_probs(rectangular(v0, a, energy, NATURAL)).transmission)
        log_wkb = math.log(wkb_for_potential(Rectangular(v0=v0, a=a), energy, NATURAL))
        qa = math.sqrt(2.0 * NATURAL.mass * (v0 - energy)) / NATURAL.hbar * a
        return abs(log_wkb - log_exact) / abs(log_exact), log_exact - log_wkb, qa

    err_low, _, qa_low = exponent_error(1.0)
    err_high, log_ratio_high, qa_high = exponent_error(100.0)
    # ln T - ln T_w = ln(16 f (1 - f)) - 2 ln(1 + exp(-4Qa)); the second term is
    # ~1e-17 at Qa = 10, so only the quadrature tolerance of criterion 3 remains
    prefactor = math.log(16.0 * ratio * (1.0 - ratio))
    scales = err_high / err_low <= qa_low / qa_high
    prefactor_ok = abs(log_ratio_high - prefactor) < 1e-9
    ok = _report(
        4,
        "WKB relative error at E/V0 = 0.5 shrinks from V0=1 to V0=100",
        scales and prefactor_ok,
    )
    assert ok, (
        f"relative error in ln T: {err_low:.9f} (V0=1, Qa={qa_low:g}) -> "
        f"{err_high:.9f} (V0=100, Qa={qa_high:g}), ratio {err_high / err_low:.4f} "
        f"(semiclassical order needs <= {qa_low / qa_high:.4f}); "
        f"ln(T/T_w) at V0=100 is {log_ratio_high!r}, closed form ln(16 f (1 - f)) = "
        f"{prefactor!r}. WKB fixes ln T up to an O(1) prefactor term, so its error "
        "relative to |ln T| ~ 4Qa must fall at least like 1/(Qa); the relative "
        "error in T itself tends to 1 - 1/(16 f (1 - f)) = 3/4 here and is not "
        "a measure the bare exponential promises"
    )


# ---------------------------------------------------------------------------
# 5. bound validity and tightness


def test_criterion_5_bound_validity_and_tightness(rng):
    ok = True
    worst_violation = 0.0
    worst_quad = 0.0
    for _ in range(200):
        v0 = rng.uniform(0.1, 5.0)
        a = rng.uniform(0.1, 3.0)
        energy = v0 * rng.uniform(1.01, 50.0)
        exact = _probs(rectangular(v0, a, energy, NATURAL)).transmission
        closed = rectangular_bound_closed_form(v0, a, energy, NATURAL).lower_bound
        numeric = bound(Rectangular(v0=v0, a=a), energy, NATURAL).lower_bound
        worst_violation = max(worst_violation, closed - exact)
        worst_quad = max(worst_quad, abs(numeric - closed))
    if worst_violation > 1e-12 or worst_quad > 1e-10:
        ok = False

    def gap(v0, a, energy):
        exact = _probs(rectangular(v0, a, energy, NATURAL)).transmission
        return exact - rectangular_bound_closed_form(v0, a, energy, NATURAL).lower_bound

    for v0, a in ((1.0, 1.0), (0.5, 2.0), (3.0, 0.7)):
        if not gap(v0, a, 100.0 * v0) < gap(v0, a, 2.0 * v0):
            ok = False
    assert _report(5, "sech^2 bound below exact, tighter at high energy", ok), (
        worst_violation,
        worst_quad,
    )


# ---------------------------------------------------------------------------
# 6. Eckart resonances


def test_criterion_6_eckart_resonances():
    ok = True
    details = []
    for a in (1.0, 2.0):
        for n in (1, 2):
            v0 = -n * (n + 1) / (2.0 * a**2)
            e = Eckart(v_minus_inf=0.0, v_plus_inf=0.0, v0=v0, a=a)
            t = eckart_transmission(e, 1.3, NATURAL)
            if abs(t - 1.0) >= 1e-9:
                ok = False
                details.append((a, n, t))
    assert _report(6, "Eckart T = 1 at V0 = -n(n+1)/(2a^2) (symmetric)", ok), details


# ---------------------------------------------------------------------------
# 7. special functions


def test_criterion_7_special_functions(rng):
    ok = True
    for _ in range(100):
        z = complex(rng.uniform(0.05, 20.0), rng.uniform(-20.0, 20.0))
        if abs(cmath.exp(log_gamma(z + 1) - log_gamma(z)) - z) >= 1e-10 * abs(z):
            ok = False
    for _ in range(100):
        z = complex(rng.uniform(0.01, 0.99), rng.uniform(0.05, 10.0) * rng.choice([-1, 1]))
        expected = math.pi / cmath.sin(math.pi * z)
        if abs(cmath.exp(log_gamma(z) + log_gamma(1 - z)) - expected) >= 1e-10 * abs(expected):
            ok = False
    # closed-form identity F(1,1;2;z) = -log(1-z)/z on z <= 0.9
    for z in np.linspace(0.05, 0.9, 18):
        expected = -math.log1p(-z) / z
        if abs(gauss_2f1(1.0, 1.0, 2.0, float(z)).real - expected) >= 1e-9 * expected:
            ok = False
    # Euler transformation on random complex parameter draws
    for _ in range(50):
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3))
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-3, 3))
        c = complex(rng.uniform(1.0, 3.0), rng.uniform(-3, 3))
        z = rng.uniform(0.05, 0.9)
        lhs = gauss_2f1(a, b, c, z)
        rhs = (1.0 - z) ** (c - a - b) * gauss_2f1(c - a, c - b, c, z)
        if abs(lhs - rhs) >= 1e-9 * max(1.0, abs(lhs)):
            ok = False
    # doubled-precision oracle at the slow-convergence corner
    got = gauss_2f1(0.1j, 0.1j, 1.2, 0.9)
    ref = mp_hyp2f1(0.1j, 0.1j, 1.2, 0.9)
    if abs(got - ref) >= 1e-9 * abs(ref):
        ok = False
    assert _report(7, "log_gamma and 2F1 identity suites", ok)


# ---------------------------------------------------------------------------
# 8. figure presets


@pytest.fixture(scope="module")
def figure_dirs(tmp_path_factory):
    dirs = {}
    for preset in ("fig1", "fig3", "fig3a", "fig4", "fig5", "fig7", "fig10", "fig11"):
        out = tmp_path_factory.mktemp(preset)
        assert main(["figure", preset, "--out", str(out)]) == 0
        dirs[preset] = out
    return dirs


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            columns[name].append(float(cell) if not cell.startswith("ERR:") else math.nan)
    return columns


def _count_prominent_maxima(values, threshold=0.5):
    count = 0
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1] and values[i] >= threshold:
            count += 1
    return count


def test_criterion_8_figure_shapes(figure_dirs):
    ok = True
    # fig1: delta transmission monotone increasing in k, every panel
    for letter in "abcde":
        ts = _read_csv(figure_dirs["fig1"] / f"fig1{letter}.csv")["exact_T"]
        if not all(b > a for a, b in zip(ts, ts[1:])):
            ok = False
    # fig3: reflection oscillation count grows with barrier strength
    counts = [
        _count_prominent_maxima(_read_csv(figure_dirs["fig3"] / f"fig3{letter}.csv")["exact_R"])
        for letter in "abcde"
    ]
    if not all(b >= a for a, b in zip(counts, counts[1:])) or not counts[-1] > counts[0]:
        ok = False
    # fig5: exact and WKB columns are probabilities rising toward the barrier top
    for letter in "abcd":
        cols = _read_csv(figure_dirs["fig5"] / f"fig5{letter}.csv")
        for name in ("exact_T", "wkb_T"):
            if not all(0.0 <= v <= 1.0 + 1e-12 for v in cols[name]):
                ok = False
        if not (cols["exact_T"][-1] > cols["exact_T"][0]):
            ok = False
    # fig7: transmission peaks reach the resonance ceiling
    for letter in "ab":
        ts = _read_csv(figure_dirs["fig7"] / f"fig7{letter}.csv")["exact_T"]
        if not all(0.0 <= v <= 1.0 + 1e-12 for v in ts) or max(ts) <= 0.99:
            ok = False
    # fig10: unitarity on every emitted row
    for letter in "ab":
        cols = _read_csv(figure_dirs["fig10"] / f"fig10{letter}.csv")
        if not all(d < 1e-9 for d in cols["exact_defect"]):
            ok = False
    # fig11: WKB transmission drops as the barrier grows, pointwise
    panels = [_read_csv(figure_dirs["fig11"] / f"fig11{letter}.csv")["wkb_T"] for letter in "abcd"]
    for weaker, stronger in zip(panels, panels[1:]):
        if not all(s < w for w, s in zip(weaker, stronger)):
            ok = False
    assert _report(8, "figure presets reproduce the published shapes", ok), counts


def test_figure_presets_byte_identical_to_golden(figure_dirs):
    # every CSV and manifest of the eight presets, against the committed digests
    table = Path(__file__).with_name("preset_sha256.txt").read_text().splitlines()
    golden = {name: digest for digest, name in (line.split() for line in table if not line.startswith("#"))}
    produced = {
        f"{preset}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for preset, out in figure_dirs.items()
        for path in out.iterdir()
    }
    changed = sorted(name for name in golden.keys() | produced.keys() if golden.get(name) != produced.get(name))
    assert not changed, f"preset output differs from tests/preset_sha256.txt: {changed}"


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_cli_determinism(tmp_path, capsys):
    ok = True
    # figure preset rerun
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    main(["figure", "fig10", "--out", str(a_dir)])
    main(["figure", "fig10", "--out", str(b_dir)])
    for name in ("fig10a.csv", "fig10b.csv", "fig10_manifest.json"):
        if (a_dir / name).read_bytes() != (b_dir / name).read_bytes():
            ok = False
    # sweep rerun
    sweep_args = [
        "sweep", "--potential", "eckart", "--v0", "0", "--a", "1",
        "--v-minus-inf", "1.5", "--var", "V0", "--lo", "-4", "--hi", "1",
        "--points", "40", "--energy", "2",
    ]
    first = tmp_path / "s1.csv"
    second = tmp_path / "s2.csv"
    main(sweep_args + ["--out", str(first)])
    main(sweep_args + ["--out", str(second)])
    if first.read_bytes() != second.read_bytes():
        ok = False
    # eval rerun on stdout
    eval_args = ["eval", "--potential", "hulthen", "--v0", "1", "--a", "0.5",
                 "--q", "0.9", "--energy", "2", "--method", "exact"]
    main(eval_args)
    out1 = capsys.readouterr().out
    main(eval_args)
    out2 = capsys.readouterr().out
    if out1 != out2:
        ok = False
    assert _report(9, "CLI reruns are byte-identical", ok)
