"""Span tracer that wraps qscat's public functions from the outside.

Each entry of ``WRAPPED`` names a function as the *calling* module sees it
(``qscat.sweep.hulthen_amplitudes`` is what ``run_sweep`` calls), so the
wrapper sits on a layer boundary.  A wrapper records a span (name, start,
end, parent) in memory and charges its duration, minus the time of wrapped
calls it made, to its layer as self time.  Hot leaf calls (potential values,
number formatting) are counted and timed but keep no span record.  For
the names in ``COUNT_RETURNED`` the length of the returned list is summed too.

A name that a later refactor removes is reported as an absent layer entry,
never as an error.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("potentials", "exact", "specfun", "wkb", "bound", "sweep", "resonance", "cli")

# (module, attribute, span name, layer, keep span records)
WRAPPED = (
    ("qscat.sweep", "run_sweep", "sweep.run_sweep", "sweep", True),
    ("qscat.sweep", "delta_amplitudes", "exact.delta", "exact", True),
    ("qscat.sweep", "rectangular_above", "exact.rect", "exact", True),
    ("qscat.sweep", "rectangular_below", "exact.rect", "exact", True),
    ("qscat.sweep", "eckart_transmission", "exact.eckart", "exact", True),
    ("qscat.sweep", "hulthen_amplitudes", "exact.hulthen", "exact", True),
    ("qscat.exact", "gauss_2f1", "specfun.gauss_2f1", "specfun", True),
    ("qscat.exact", "log_gamma", "specfun.log_gamma", "specfun", True),
    ("qscat.sweep", "wkb_for_potential", "wkb", "wkb", True),
    ("qscat.wkb", "wkb_for_potential", "wkb", "wkb", True),
    ("qscat.wkb", "find_turning_points", "wkb.turning_points", "wkb", True),
    ("qscat.wkb", "evaluate", "potentials.evaluate", "potentials", False),
    ("qscat.sweep", "bound_for_potential", "bound", "bound", True),
    ("qscat.bound", "auto_window", "bound.window", "bound", True),
    ("qscat.bound", "evaluate", "potentials.evaluate", "potentials", False),
    ("qscat.cli", "render_sweep_csv", "cli.render", "cli", True),
    ("qscat.cli", "format_number", "cli.format_number", "cli", False),
    ("qscat.cli", "evaluate_methods", "sweep.evaluate_methods", "sweep", True),
    ("qscat.cli", "numeric_resonances", "resonance.numeric", "resonance", True),
    ("qscat.cli", "analytic_resonances", "resonance.analytic", "resonance", True),
    ("qscat.cli", "main", "cli.main", "cli", True),
)

# span names whose returned list length is summed (peaks found per scan)
COUNT_RETURNED = frozenset({"resonance.numeric"})


class Tracer:
    """In-memory spans plus per-name call counts and per-layer self time."""

    def __init__(self):
        self._installed = []
        self.absent = []
        self.reset(keep_spans=False)

    def reset(self, keep_spans: bool) -> None:
        self.keep_spans = keep_spans
        self.spans = []  # (id, name, start, end, parent id)
        self.calls = Counter()  # name -> calls
        self.calls_under = Counter()  # (name, caller span name) -> calls
        self.inclusive_s = defaultdict(float)  # name -> seconds including children
        self.self_s = defaultdict(float)  # layer -> seconds excluding wrapped children
        self.returned = Counter()  # name in COUNT_RETURNED -> summed len() of returned lists
        # frame: [span id, name, time spent in wrapped children]
        self._stack = [[0, None, 0.0]]
        self._next_id = 1

    def _wrap(self, fn, name, layer, keep):
        tracer = self
        clock = time.perf_counter
        count_returned = name in COUNT_RETURNED

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]
            frame = [tracer._next_id, name, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - start
                parent[2] += duration
                tracer.self_s[layer] += duration - frame[2]
                tracer.inclusive_s[name] += duration
                tracer.calls[name] += 1
                tracer.calls_under[(name, parent[1])] += 1
                if keep and tracer.keep_spans:
                    tracer.spans.append((frame[0], name, start, end, parent[0]))
            if count_returned:
                tracer.returned[name] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module_name, attr, name, layer, keep in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, name, layer, keep))
            self._installed.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._installed):
            setattr(module, attr, fn)
        self._installed.clear()

    def summary(self) -> dict:
        """Counts and times as plain JSON-ready data."""
        return {
            "calls": dict(self.calls),
            "calls_under": [[n, p, c] for (n, p), c in self.calls_under.items()],
            "inclusive_s": dict(self.inclusive_s),
            "self_s": dict(self.self_s),
            "returned": dict(self.returned),
        }


def merge(summaries: list[dict]) -> dict:
    """Sum several ``Tracer.summary()`` results (one per traced process)."""
    out = {"calls": Counter(), "calls_under": Counter(), "inclusive_s": Counter(), "self_s": Counter(),
           "returned": Counter()}
    for s in summaries:
        for key in ("calls", "inclusive_s", "self_s", "returned"):
            out[key].update(s[key])
        out["calls_under"].update({(n, p): c for n, p, c in s["calls_under"]})
    return out


def layer_metrics(m: dict, rows: int) -> dict:
    """Per-layer metric values from merged counts/times of one repetition."""
    calls, under, incl = m["calls"], m["calls_under"], m["inclusive_s"]

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    # potential values asked for by the integrand, not by turning points or the window
    wkb_evals = under[("potentials.evaluate", "wkb")]
    bound_evals = under[("potentials.evaluate", "bound")]
    curve_calls = under[("sweep.evaluate_methods", "resonance.numeric")]
    values = {
        "potentials.evals": calls["potentials.evaluate"],
        "exact.calls": sum(calls[f"exact.{f}"] for f in ("delta", "rect", "eckart", "hulthen")),
        "specfun.gauss_2f1.calls": calls["specfun.gauss_2f1"],
        "specfun.gauss_2f1.s": incl["specfun.gauss_2f1"],
        "specfun.log_gamma.calls": calls["specfun.log_gamma"],
        "wkb.calls": calls["wkb"],
        "wkb.s": incl["wkb"],
        "wkb.integrand_evals": wkb_evals,
        "wkb.evals_per_point": per(wkb_evals, calls["wkb"]),
        "wkb.turning_points_s": incl["wkb.turning_points"],
        "bound.calls": calls["bound"],
        "bound.s": incl["bound"],
        "bound.window_s": incl["bound.window"],
        "bound.integrand_evals": bound_evals,
        "bound.evals_per_point": per(bound_evals, calls["bound"]),
        "resonance.curve_calls": curve_calls,
        "resonance.curve_calls_per_peak": per(curve_calls, m["returned"]["resonance.numeric"]),
        "cli.format_number.calls": calls["cli.format_number"],
        "cli.render_us_per_row": per(incl["cli.render"], rows, 1e6),
    }
    for family in ("delta", "rect", "eckart", "hulthen"):
        name = f"exact.{family}"
        values[f"{name}.us_per_call"] = per(incl[name], calls[name], 1e6)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = m["self_s"][layer]
    return values
