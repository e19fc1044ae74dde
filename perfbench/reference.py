"""Correctness gate: program output against independent references.

Runs after the timed region.  Each checked value is compared with a
reference that does not use qscat's code paths:

* delta exact        k^2 / (k^2 + k0^2)
* rectangular exact  ``tests/oracles.rectangular_matching`` (4x4 linear solve)
* Eckart exact       mpmath gamma-function |t|^2
* Hulthen exact      ``tests/oracles.mp_hulthen_probabilities`` (mpmath 2F1)
* WKB                mpmath.quad of the action between the same limits
* bound              mpmath.quad of |V - V_inf| over the whole line
* and every bound <= exact T on every row that has both.

ERR cells are not checked values.  Each one is classified instead: an error
is *expected* where the method has no defined answer (WKB above the barrier
top, the Hulthen dispersion below E = m, ...), and *unexpected* otherwise.
Unexpected ERR cells are failures of the program and are reported as such.
All workloads use natural units (hbar = m = 1).
"""

from __future__ import annotations

import math
import random
import sys
from collections import Counter
from pathlib import Path

import mpmath as mp

EXACT_RTOL = 1e-9
R_ATOL = 1e-12  # reflection near 0 where T is near 1
WKB_RTOL = 1e-7  # adaptive Simpson abs_tol 1e-10 on the action
BOUND_RTOL = 1e-6  # auto_window truncates the integral at 1e-8 of the scale
SAMPLES_PER_PANEL = 5
QUAD_DPS = 30
MAX_MESSAGES = 10


def load_oracles(root: Path):
    sys.path.insert(0, str(root / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


def panel_point(panel, x: float):
    """(potential params, energy) of one grid value, mirroring map_sweep_variable."""
    params = panel.params
    if panel.variable == "E":
        return params, x
    if panel.variable == "k":
        return params, x**2 / 2.0
    if panel.variable == "q":
        return params, params["v0"] + x**2 / 2.0
    return {**params, "v0": x}, panel.fixed_energy


def asymptote(family: str, params: dict) -> tuple[float, float]:
    if family == "eckart":
        return params["v_minus_inf"], params["v_plus_inf"]
    return 0.0, 0.0


def barrier_top(family: str, params: dict) -> float:
    if family == "rect":
        return params["v0"]
    if family == "hulthen":
        return params["v0"] / (1.0 - params["q"])
    vm, vp = asymptote(family, params)
    # symmetric Eckart: the sech^2 bump sits on a flat floor
    return max(vm, vp, vm + params["v0"])


def expected_errors(family: str, params: dict, method: str, energy: float, turning_points: bool) -> set:
    """ERR codes that are the defined answer at this point (empty: a number is due)."""
    if family == "rect" and energy == params["v0"]:
        return {"degenerate"}
    vm, vp = asymptote(family, params)
    if method == "exact":
        if family == "hulthen" and energy <= 1.0:
            return {"wrongcase"}
        if family == "eckart" and energy <= max(vm, vp):
            return {"wrongcase"}
        return set()
    if family == "delta":
        return {"unsupported"}
    if method == "wkb":
        if family == "rect":
            return set() if 0 < energy < params["v0"] else {"wrongcase"}
        if family == "hulthen" and not turning_points:
            edge = params["v0"] / (math.exp(params["a"]) - params["q"])
            return {"invalid"} if edge < energy else set()
        return {"nobarrier"} if energy >= barrier_top(family, params) else set()
    if vm != vp:
        return {"unsupported"}
    return {"invalid"} if energy <= vp else set()


def potential(family: str, params: dict):
    """V(x) as an mpmath function."""
    if family == "rect":
        return lambda x: mp.mpf(params["v0"]) if abs(x) <= params["a"] else mp.mpf(0)
    if family == "hulthen":
        v0, a, q = (mp.mpf(params[k]) for k in ("v0", "a", "q"))
        return lambda x: v0 / (mp.exp(a * abs(x)) - q)
    vm, vp, v0, a = (mp.mpf(params[k]) for k in ("v_minus_inf", "v_plus_inf", "v0", "a"))
    return lambda x: (vp + vm) / 2 + (vp - vm) / 2 * mp.tanh(x / a) + v0 / mp.cosh(x / a) ** 2


class Gate:
    """Accumulates checked values, mismatches and ERR-cell classifications."""

    def __init__(self, root: Path):
        self.oracles = load_oracles(root)
        self.checked = 0
        self.wrong = 0
        self.err_cells = 0
        self.unexpected_err = 0
        self.err_codes = Counter()  # "method:code" -> ERR cells
        self.wrong_messages = []
        self.err_messages = []
        self._bound_integrals = {}

    # -- references -------------------------------------------------------

    def exact_ref(self, family: str, params: dict, energy: float) -> tuple[float, float]:
        if family == "delta":
            k_sq, k0_sq = 2.0 * energy, params["alpha"] ** 2
            return k_sq / (k_sq + k0_sq), k0_sq / (k_sq + k0_sq)
        if family == "rect":
            t, r = self.oracles.rectangular_matching(params["v0"], params["a"], energy)
            return float(t), float(r)
        if family == "hulthen":
            return self.oracles.mp_hulthen_probabilities(energy, 1.0, params["v0"], params["q"], params["a"])
        with mp.workdps(QUAD_DPS):
            vm, vp, v0, a, e = (
                mp.mpf(v) for v in (params["v_minus_inf"], params["v_plus_inf"], params["v0"], params["a"], energy)
            )
            km, kp = mp.sqrt(2 * (e - vm)), mp.sqrt(2 * (e - vp))
            kb = (km + kp) / 2
            s = mp.sqrt(mp.mpc(mp.mpf(1) / 4 - 2 * v0 * a**2))
            j = mp.mpc(0, 1)
            t = (
                -j / (mp.sqrt(kp * km) * a)
                * mp.gamma(j * kb * a + mp.mpf(1) / 2 + s)
                * mp.gamma(j * kb * a + mp.mpf(1) / 2 - s)
                / (mp.gamma(j * kp * a) * mp.gamma(j * km * a))
            )
            t_sq = abs(t) ** 2
            return float(t_sq), float(1 - t_sq)

    def wkb_ref(self, family: str, params: dict, energy: float, turning_points: bool) -> float:
        with mp.workdps(QUAD_DPS):
            v = potential(family, params)
            e = mp.mpf(energy)

            def root(x):
                return mp.sqrt(max(v(x) - e, 0))

            if family == "rect":
                action = mp.quad(root, [-params["a"], params["a"]])
            elif family == "hulthen" and not turning_points:
                action = mp.quad(root, [-1, 0, 1])
            else:
                # both supported smooth barriers are even in x with a single crossing
                if family == "hulthen":
                    edge = mp.log(params["q"] + params["v0"] / e) / params["a"]
                else:
                    edge = params["a"] * mp.acosh(mp.sqrt(params["v0"] / e))
                action = 2 * mp.quad(root, [0, edge])
            return float(mp.exp(-2 * mp.sqrt(2) * action))

    def bound_ref(self, family: str, params: dict, energy: float) -> float:
        key = (family, tuple(sorted(params.items())))
        if key not in self._bound_integrals:
            with mp.workdps(QUAD_DPS):
                v = potential(family, params)
                v_inf = mp.mpf(asymptote(family, params)[1])
                if family == "rect":
                    area = mp.quad(lambda x: abs(v(x) - v_inf), [-params["a"], params["a"]])
                else:
                    area = mp.quad(lambda x: abs(v(x) - v_inf), [-mp.inf, 0, mp.inf])
            self._bound_integrals[key] = area
        with mp.workdps(QUAD_DPS):
            k0 = mp.sqrt(2 * (mp.mpf(energy) - asymptote(family, params)[1]))
            return float(mp.sech(self._bound_integrals[key] / k0) ** 2)

    # -- comparisons --------------------------------------------------------

    def compare(self, label: str, value: float, ref: float, rtol: float, atol: float = 0.0) -> None:
        self.checked += 1
        if not abs(value - ref) <= rtol * abs(ref) + atol:
            self.wrong += 1
            if len(self.wrong_messages) < MAX_MESSAGES:
                self.wrong_messages.append(f"{label}: got {value!r}, reference {ref!r}")

    def check_point(self, label, family, params, energy, cells: dict, turning_points=False) -> None:
        """Compare the numeric cells of one point (column name -> number) with references."""
        if "exact_T" in cells or "exact_R" in cells:
            t_ref, r_ref = self.exact_ref(family, params, energy)
            if "exact_T" in cells:
                self.compare(f"{label} exact_T", cells["exact_T"], t_ref, EXACT_RTOL)
            if "exact_R" in cells:
                self.compare(f"{label} exact_R", cells["exact_R"], r_ref, EXACT_RTOL, R_ATOL)
        if "wkb_T" in cells:
            ref = self.wkb_ref(family, params, energy, turning_points)
            self.compare(f"{label} wkb_T", cells["wkb_T"], ref, WKB_RTOL)
        if "bound_T" in cells:
            self.compare(f"{label} bound_T", cells["bound_T"], self.bound_ref(family, params, energy), BOUND_RTOL)

    def classify_errors(self, label, family, params, energy, errors: dict, turning_points=False) -> int:
        """Count ERR cells (method -> code); returns how many were unexpected."""
        unexpected = 0
        for method, code in errors.items():
            self.err_cells += 1
            self.err_codes[f"{method}:{code}"] += 1
            if code not in expected_errors(family, params, method, energy, turning_points):
                unexpected += 1
                if len(self.err_messages) < MAX_MESSAGES:
                    self.err_messages.append(f"{label} {method}: unexpected ERR:{code} at E={energy!r}")
        self.unexpected_err += unexpected
        return unexpected

    # -- whole outputs ----------------------------------------------------

    def check_panel(self, panel, text: str, seed: int) -> int:
        """Gate one rendered panel CSV; returns its unexpected ERR cells."""
        lines = text.rstrip("\n").split("\n")
        header = lines[0].split(",")
        table = [line.split(",") for line in lines[1:]]
        if len(table) != panel.points or any(len(row) != len(header) for row in table):
            self.checked += 1
            self.wrong += 1
            self.wrong_messages.append(f"{panel.name}: malformed table ({len(table)} rows)")
            return 0
        rng = random.Random(f"{seed}:{panel.name}")
        sample = {0, len(table) - 1, *rng.sample(range(len(table)), SAMPLES_PER_PANEL)}
        unexpected = 0
        for i, row in enumerate(table):
            x = float(row[0])
            params, energy = panel_point(panel, x)
            cells, errors = {}, {}
            for col, cell in zip(header[1:], row[1:]):
                method = col.split("_")[0]
                if cell.startswith("ERR:"):
                    if col in ("exact_T", "wkb_T", "bound_T"):
                        errors[method] = cell[4:]
                else:
                    cells[col] = float(cell)
            label = f"{panel.name}[{i}] {panel.variable}={x!r}"
            unexpected += self.classify_errors(label, panel.family, params, energy, errors, panel.turning_points)
            if "exact_T" in cells and "bound_T" in cells:
                # the sech^2 bound is rigorous: it may never exceed the exact T
                self.compare(f"{label} bound<=exact", min(cells["bound_T"], cells["exact_T"]), cells["bound_T"], 0.0)
            if i in sample:
                self.check_point(label, panel.family, params, energy, cells, panel.turning_points)
        return unexpected

    def check_request(self, req, stdout: str) -> int:
        """Gate one CLI request's stdout; returns unexpected ERR cells."""
        lines = stdout.rstrip("\n").split("\n")
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        if req.kind == "eval":
            if len(rows) != 1 or len(rows[0]) != len(header):
                self.checked += 1
                self.wrong += 1
                self.wrong_messages.append(f"{req.name}: malformed output {stdout!r}")
                return 0
            cells, errors = {}, {}
            for col, cell in zip(header[1:], rows[0][1:]):
                if cell.startswith("ERR:"):
                    if col.endswith("_T"):
                        errors[col.split("_")[0]] = cell[4:]
                else:
                    cells[col] = float(cell)
            unexpected = self.classify_errors(req.name, req.family, req.params, req.energy, errors)
            self.check_point(req.name, req.family, req.params, req.energy, cells)
            return unexpected
        if req.kind == "analytic":
            self.compare(f"{req.name} count", len(rows), req.n, 0.0)
            for n, row in enumerate(rows, start=1):
                self.compare(f"{req.name} location {n}", float(row[1]), n * math.pi / (2.0 * req.params["a"]), 1e-12)
                self.compare(f"{req.name} value {n}", float(row[2]), 1.0, 0.0, 1e-12)
            return 0
        # numeric scan: each reported peak is a local maximum of the reference T
        self.compare(f"{req.name} found a peak", min(len(rows), 1), 1, 0.0)
        h = (req.hi - req.lo) / (req.grid_n - 1) / 4.0
        for row in rows:
            loc, value = float(row[1]), float(row[2])
            t = self.exact_ref("hulthen", req.params, loc)[0]
            self.compare(f"{req.name} peak value at {loc!r}", value, t, EXACT_RTOL)
            for side in (loc - h, loc + h):
                t_side = self.exact_ref("hulthen", req.params, side)[0]
                self.compare(f"{req.name} peak at {loc!r} vs {side!r}", min(t_side, t), t_side, 0.0)
        return 0
