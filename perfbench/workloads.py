"""Seeded workload definitions: figure-style sweep panels and CLI request mixes.

Everything here is plain data, so the runner, the tracer and the reference
checks all read the same description.  Seed 0 reproduces the shipped
``qscat figure`` presets (and the README's CLI examples) exactly.  Any other
seed draws every preset ladder value log-uniformly within 10% of its seed-0
value, clipped to the ladder's own range; values that are single in their
preset stay fixed.  The sweeps and requests that are not presets jitter
their parameters the same way.  The 10% keeps the work per point (2F1 series length,
quadrature refinement) close to seed 0, so seeds change the inputs and the
checked numbers without changing how much work a run measures.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

JITTER = 1.1


@dataclass(frozen=True)
class Panel:
    """One sweep: a potential, a swept variable, a grid and the methods asked for.

    ``turning_points`` panels call ``wkb_for_potential(...,
    solve_turning_points=True)`` point by point instead of ``run_sweep``,
    because the sweep engine has no flag for the physical turning points.
    """

    name: str
    family: str  # delta | rect | eckart | hulthen
    params: dict
    variable: str  # k | q | E | V0
    lo: float
    hi: float
    points: int
    methods: tuple
    fixed_energy: float | None = None
    turning_points: bool = False


@dataclass(frozen=True)
class Request:
    """One single-point CLI request: ``python -m qscat <argv>``."""

    name: str
    argv: tuple
    kind: str  # eval | analytic | scan
    family: str
    params: dict = field(default_factory=dict)
    energy: float | None = None
    lo: float | None = None
    hi: float | None = None
    grid_n: int | None = None
    n: int | None = None


class Draw:
    """Parameter source: seed 0 returns preset values, other seeds jitter them."""

    def __init__(self, seed: int):
        self._rng = None if seed == 0 else random.Random(seed)

    def __call__(self, value: float, lo: float | None = None, hi: float | None = None) -> float:
        if self._rng is None:
            return value
        lo = value / JITTER if lo is None else max(lo, value / JITTER)
        hi = value * JITTER if hi is None else min(hi, value * JITTER)
        return math.exp(self._rng.uniform(math.log(lo), math.log(hi)))


def grid_closed_form(draw: Draw) -> list[Panel]:
    """fig1, fig3, fig3a, fig4, fig5 and fig7 (40802 points, closed forms only)."""
    exact = ("exact",)
    panels = []
    for letter, k0 in zip("abcde", (1.0, 2.0, 10.0, 100.0, 1000.0)):
        k0 = draw(k0, 1.0, 1000.0)
        panels.append(Panel(f"fig1{letter}", "delta", {"alpha": k0}, "k", 0.02 * k0, 10.0 * k0, 500, exact))
    for letter, k0 in zip("abcde", (1.0, 2.0, 10.0, 100.0, 1000.0)):
        k0 = draw(k0, 1.0, 1000.0)
        panels.append(
            Panel(f"fig3{letter}", "rect", {"v0": 0.5 * k0**2, "a": 1.0}, "q", 0.0025, 10.0, 4000, exact)
        )
    for letter, a in zip("abcd", (1.0, 2.0, 10.0, 100.0)):
        a = draw(a, 1.0, 100.0)
        hi = 10.0 / a
        panels.append(Panel(f"fig3a{letter}", "rect", {"v0": 0.5, "a": a}, "q", hi / 4000.0, hi, 4000, exact))
    panels.append(Panel("fig4", "rect", {"v0": 1.0, "a": 1.0}, "E", 1.02, 20.0, 500, ("exact", "bound")))
    for letter, v0 in zip("abcd", (1.0, 10.0, 50.0, 100.0)):
        v0 = draw(v0, 1.0, 100.0)
        panels.append(
            Panel(f"fig5{letter}", "rect", {"v0": v0, "a": 1.0}, "E", 0.005 * v0, 0.995 * v0, 200, ("exact", "wkb"))
        )
    for letter, a in zip("ab", (1.0, 2.0)):
        a = draw(a, 1.0, 2.0)
        panels.append(
            Panel(
                f"fig7{letter}",
                "eckart",
                {"v_minus_inf": 1.5, "v_plus_inf": 0.0, "v0": 0.0, "a": a},
                "V0",
                -10.5,
                2.0,
                501,
                exact,
                fixed_energy=2.0,
            )
        )
    return panels


def hulthen_grid(draw: Draw) -> list[Panel]:
    """fig10 (q = 0.9), the same two sweeps at q = 0.99 and the a = 0.5 one at
    q = 0.5.

    Latency percentiles pool the samples of every panel, so with five panels
    of distinct cost each panel holds a fifth of them: the median lies in the
    middle of the costlier q = 0.9 panel's samples and the 90th percentile in
    the middle of the costlier q = 0.99 panel's, not on a gap between costs.
    """
    panels = []
    sweeps = ((0.9, "fig10", (0.5, 1.0)), (0.5, "hulthen_q0.5_", (0.5,)), (0.99, "hulthen_q0.99_", (0.5, 1.0)))
    for q, tag, ladder in sweeps:
        for letter, a in zip("ab", ladder):
            a = draw(a, 0.5, 1.0)
            panels.append(
                Panel(f"{tag}{letter}", "hulthen", {"v0": 1.0, "a": a, "q": q}, "E", 1.09, 10.0, 100, ("exact",))
            )
    return panels


def quadrature(draw: Draw) -> list[Panel]:
    """fig11 plus Eckart exact/WKB/bound, Hulthen exact/bound (a = 0.5) and
    Hulthen physical-turning-point WKB sweeps.

    Latency percentiles pool the samples of every panel, so with seven panels
    each holds a seventh of them: the median lies in the middle of the fourth
    costliest panel's samples (fig11b) and the 90th percentile in the lower
    third of the costliest one's (fig11d), not on a gap between costs.
    The turning-point sweep keeps energies up to 0.95 of the barrier top.  At
    seed 0, 23 of its 100 points fail with ERR:invalid (the bisected turning
    points leave V - E below the 1e-12 slack) and 5 with ERR:nobarrier (the
    bracket scan misses the narrow barrier); those cells count as failures
    and stay in the workload.
    """
    panels = []
    for letter, v0 in zip("abcd", (1.0, 2.0, 10.0, 50.0)):
        v0 = draw(v0, 1.0, 50.0)
        panels.append(
            Panel(f"fig11{letter}", "hulthen", {"v0": v0, "a": 0.5, "q": 0.9}, "E", 0.02, 1.0, 200, ("wkb",))
        )
    v0, a = draw(1.0), draw(1.0)
    panels.append(
        Panel(
            "eckart_sym",
            "eckart",
            {"v_minus_inf": 0.0, "v_plus_inf": 0.0, "v0": v0, "a": a},
            "E",
            0.05 * v0,
            3.0 * v0,
            30,
            ("exact", "wkb", "bound"),
        )
    )
    a = draw(0.5, 0.5, 1.0)
    panels.append(
        Panel("hulthen_bound", "hulthen", {"v0": 1.0, "a": a, "q": 0.9}, "E", 1.09, 10.0, 10, ("exact", "bound"))
    )
    v0 = draw(1.0, 1.0, 50.0)
    peak = v0 / (1.0 - 0.9)
    panels.append(
        Panel(
            "hulthen_turning_points",
            "hulthen",
            {"v0": v0, "a": 0.5, "q": 0.9},
            "E",
            0.005 * peak,
            0.95 * peak,
            100,
            ("wkb",),
            turning_points=True,
        )
    )
    return panels


def _potential_flags(family: str, params: dict) -> list[str]:
    if family == "delta":
        return ["--potential", "delta", "--alpha", repr(params["alpha"])]
    flags = ["--potential", family, "--v0", repr(params["v0"]), "--a", repr(params["a"])]
    if family == "hulthen":
        flags += ["--q", repr(params["q"])]
    return flags


def scalar_requests(draw: Draw) -> list[Request]:
    """One cycle of nine requests, sent one after another by a single client.

    Seven are single-point requests; two are the README's numeric Hulthen
    resonance scan, each with its own draw of a near 0.5 so both cost about
    the same.  Latency percentiles pool every sample: the median lies among
    the single-point requests' and the 90th percentile in the middle of the
    scans' (the top 2/9), not on a gap between costs.
    """
    reqs = []

    def single(name, cmd, family, params, energy):
        argv = (cmd, *_potential_flags(family, params), "--energy", repr(energy))
        reqs.append(Request(name, argv, "eval", family, params, energy))

    alpha = draw(1.0, 1.0, 1000.0)
    single("eval_delta", "eval", "delta", {"alpha": alpha}, draw(0.5))
    rect = {"v0": draw(1.0, 1.0, 100.0), "a": 1.0}
    single("eval_rect", "eval", "rect", rect, 0.5 * rect["v0"])
    eck = {"v_minus_inf": 0.0, "v_plus_inf": 0.0, "v0": draw(1.0), "a": draw(1.0)}
    single("eval_eckart", "eval", "eckart", eck, 0.5 * eck["v0"])
    hul = {"v0": 1.0, "a": draw(0.5, 0.5, 1.0), "q": 0.9}
    single("eval_hulthen", "eval", "hulthen", hul, draw(2.0))
    single("wkb_rect", "wkb", "rect", rect, 0.5 * rect["v0"])
    single("bound_rect", "bound", "rect", rect, 2.0 * rect["v0"])

    res = {"v0": rect["v0"], "a": draw(1.0, 1.0, 100.0)}
    argv = ("resonances", *_potential_flags("rect", res), "--var", "q", "--n", "3")
    reqs.append(Request("resonances_rect", argv, "analytic", "rect", res, n=3))
    for letter in "ab":
        scan = {"v0": 1.0, "a": draw(0.5, 0.5, 1.0), "q": 0.9}
        argv = (
            "resonances",
            *_potential_flags("hulthen", scan),
            "--var", "E", "--numeric", "--lo", "1.09", "--hi", "10", "--grid-n", "256",
        )
        reqs.append(Request(f"scan_hulthen_{letter}", argv, "scan", "hulthen", scan, lo=1.09, hi=10.0, grid_n=256))
    return reqs


SWEEP_WORKLOADS = {
    "grid_closed_form": grid_closed_form,
    "hulthen_grid": hulthen_grid,
    "quadrature": quadrature,
}
WORKLOADS = (*SWEEP_WORKLOADS, "scalar_requests")
