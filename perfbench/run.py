"""qscat benchmark: seeded workloads through the public API and CLI, timed
end to end, traced per layer on request, and checked against independent
references outside the timed region.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

qscat is imported from ``src`` of the checkout that holds this file, and the
CLI requests run as ``python -m qscat`` with that ``src`` on PYTHONPATH.  All
load comes from this one process, one request or sweep at a time.

Workloads (see workloads.py for the panels and why each was chosen):
  grid_closed_form  fig1/3/3a/4/5/7 panels: sweep dispatch, closed forms, CSV rendering
  hulthen_grid      fig10 panels at q = 0.5, 0.9, 0.99: the 2F1 series
  quadrature        fig11 panels plus Eckart and Hulthen WKB/bound sweeps
  scalar_requests   a closed loop of nine CLI requests from one client

With ``--trace 0`` the run reports the end-to-end metrics:
  points_per_s    grid rows (scalar_requests: requests) per CPU second of a
                  repetition of all panels (requests), median over repetitions
  request_ms_p50, request_ms_p90
                  percentiles of the CPU time of every request sample of every
                  repetition; a request is a panel (run_sweep plus
                  render_sweep_csv, what ``qscat figure`` does per CSV) or one
                  CLI process; the sample count is printed next to them
  setup_s         median over fresh interpreters of the CPU time of
                  ``import qscat.cli`` plus a first call of each method
                  (probe.py)
  peak_rss_mb     peak resident set of the process doing the work (for
                  scalar_requests, of the largest request process)

All timings are CPU time: ``time.process_time`` around in-process work, and
the ``RUSAGE_CHILDREN`` user plus system time of each request process (the
children are waited for one at a time).  CPU time leaves out the time this
process waits for the CPU, but not a CPU that runs slower: on the 2-vCPU
Firecracker VM this was tuned on, a fixed spin loop's CPU time ranged
106-150 ms within 20 s, as its wall time did, and qscat's own work slowed by
up to 1.7x for minutes at a time.  No estimator inside one run removes such a
phase.  Within one, the median over repetitions had the smallest worst case
for points_per_s: over eight 25 s runs per grid workload its quartile
distance over median was 7-10%, where the sum of each panel's fastest
repetition gave 3-21%.

With ``--trace 1`` the run repeats the work untraced for half the time and
with tracer.py's wrappers for the other half, and reports per-layer counts
(from one repetition; they repeat exactly), per-layer times (median over
repetitions), the ``specfun.kernel_2f1_ms`` kernel set and the tracing
overhead (untraced minus traced points_per_s, in percent of untraced).  Spans
of one traced repetition are written to ``.perfbench_out/``.

Every run prints report lines, a ``meta`` line and, last, one JSON object
with ``correct`` (no checked value outside tolerance, outputs identical in
every repetition), ``attempted`` (cells, one per method and grid point;
requests for scalar_requests) and ``failed`` (cells lost to an escaped
exception plus ERR cells where the reference says a number is due; failed
requests).
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one process, no helper threads: the workloads make no BLAS calls, so the
# thread pools numpy would start only compete with the measured work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = BENCH / "seed0_digests.json"

SETUP_PROBES = 7
KERNEL_REPS = 7
REQUEST_TIMEOUT_S = 120
ERROR_CODES = ("invalid", "wrongcase", "degenerate", "unsupported", "pole", "noconv", "nobarrier", "other")

END_TO_END = {
    "points_per_s": "points/s",
    "request_ms_p50": "ms",
    "request_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "potentials.evals": "count",
    "potentials.self_s": "s",
    "exact.calls": "count",
    "exact.delta.us_per_call": "us",
    "exact.rect.us_per_call": "us",
    "exact.eckart.us_per_call": "us",
    "exact.hulthen.us_per_call": "us",
    "exact.self_s": "s",
    "specfun.gauss_2f1.calls": "count",
    "specfun.gauss_2f1.s": "s",
    "specfun.log_gamma.calls": "count",
    "specfun.kernel_2f1_ms": "ms",
    "specfun.self_s": "s",
    "wkb.calls": "count",
    "wkb.s": "s",
    "wkb.integrand_evals": "count",
    "wkb.evals_per_point": "count/point",
    "wkb.turning_points_s": "s",
    "wkb.self_s": "s",
    "bound.calls": "count",
    "bound.s": "s",
    "bound.window_s": "s",
    "bound.integrand_evals": "count",
    "bound.evals_per_point": "count/point",
    "bound.self_s": "s",
    "sweep.self_s": "s",
    "sweep.lost_cells": "count",
    "resonance.curve_calls": "count",
    "resonance.curve_calls_per_peak": "count/peak",
    "resonance.self_s": "s",
    "cli.render_us_per_row": "us",
    "cli.format_number.calls": "count",
    "cli.import_ms.numpy": "ms",
    "cli.import_ms.qscat": "ms",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
    **{f"{m}.errors.{code}": "count" for m in ("exact", "wkb", "bound") for code in ERROR_CODES},
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def repeat(fn, seconds: float) -> list:
    """Call fn() once, then again while another call should end within ``seconds``
    of wall time."""
    out, last = [], 0.0
    start = time.perf_counter()
    while not out or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        out.append(fn())
        last = time.perf_counter() - t0
    return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# fresh-interpreter probes and the 2F1 kernel set


def probe_setup() -> dict:
    """Medians over SETUP_PROBES fresh interpreters running probe.py."""
    results = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "probe.py")],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(r[key] for r in results) for key in results[0]}


def kernel_2f1_ms() -> tuple[float, float]:
    """The six 2F1 factors of a 100-point Hulthen sweep at q = 0.9 (600 series)
    through the public ``specfun.gauss_2f1``; fastest CPU ms and a checksum."""
    from qscat.specfun import gauss_2f1

    q, v0, a = 0.9, 1.0, 0.5
    triples = []
    for i in range(100):
        energy = 1.09 + (10.0 - 1.09) * i / 99
        mu = 1j * math.sqrt(energy**2 - 1.0) / a
        nu = 1j * math.sqrt((energy + v0 / q) ** 2 - 1.0) / a
        lam = 1j * v0 / (a * q)
        triples += [
            (1 + lam - mu - nu, 1 + lam - mu + nu, 2 - 2 * mu),
            (lam + mu - nu, lam + mu + nu, 1 + 2 * mu),
            (1 + lam + mu - nu, 1 + lam + mu + nu, 2 + 2 * mu),
            (lam - mu - nu, lam - mu + nu, 1 - 2 * mu),
            (1 - lam - mu - nu, 1 - lam - mu + nu, 2 - 2 * mu),
            (-lam - mu - nu, -lam - mu + nu, 1 - 2 * mu),
        ]
    times, checksum = [], 0.0
    for _ in range(KERNEL_REPS):
        t0 = time.process_time()
        checksum = sum(abs(gauss_2f1(x, y, c, q)) for x, y, c in triples)
        times.append(time.process_time() - t0)
    return 1e3 * min(times), checksum


# ---------------------------------------------------------------------------
# sweep workloads (in process)


class Sweeps:
    """The panels of one sweep workload, runnable as one repetition.

    Calls go through module attributes (``qscat.sweep.run_sweep``, ...) at
    call time, so the tracer's wrappers see them.
    """

    def __init__(self, panels):
        import qscat.cli
        import qscat.sweep
        import qscat.wkb

        self.qscat = qscat
        self.panels = panels
        self.texts = {}
        self._compute = [self._computer(p) for p in panels]

    def _potential(self, panel):
        kinds = {"delta": "Delta", "rect": "Rectangular", "eckart": "Eckart", "hulthen": "Hulthen"}
        return getattr(self.qscat, kinds[panel.family])(**panel.params)

    def _computer(self, panel):
        q = self.qscat
        potential = self._potential(panel)
        if panel.turning_points:
            from qscat.errors import QscatError
            from qscat.sweep import MethodResult, SweepRow

            grid = [float(x) for x in q.SweepSpec(potential, "E", panel.lo, panel.hi, panel.points).grid()]

            def turning_point_sweep():
                rows = []
                for energy in grid:
                    try:
                        t = q.wkb.wkb_for_potential(potential, energy, q.NATURAL_UNITS, solve_turning_points=True)
                        res = MethodResult("wkb", transmission=t)
                    except QscatError as exc:
                        res = MethodResult("wkb", error=exc.code)
                    rows.append(SweepRow(energy, {"wkb": res}))
                return rows

            return turning_point_sweep
        fixed = {} if panel.fixed_energy is None else {"energy": panel.fixed_energy}
        spec = q.SweepSpec(
            potential, panel.variable, panel.lo, panel.hi, panel.points, methods=frozenset(panel.methods), fixed=fixed
        )
        return lambda: q.sweep.run_sweep(spec)

    def rep(self) -> list:
        """One repetition: [(CPU s, SHA-256 of the CSV or None, escaped error or None)]
        per panel.  The CSV texts of the first repetition are kept for the gate."""
        out = []
        for panel, compute in zip(self.panels, self._compute):
            start = time.process_time()
            try:
                text, error = self.qscat.cli.render_sweep_csv(compute(), frozenset(panel.methods)), None
            except Exception as exc:  # an escaped exception fails every cell of its panel
                text, error = None, f"{panel.name}: {type(exc).__name__}: {exc}"
            latency = time.process_time() - start
            if text is not None:
                self.texts.setdefault(panel.name, text)
            out.append((latency, None if text is None else sha256(text), error))
        return out

    def cells(self) -> int:
        return sum(p.points * len(p.methods) for p in self.panels)

    def lost_cells(self, rep) -> int:
        return sum(p.points * len(p.methods) for p, r in zip(self.panels, rep) if r[1] is None)

    def points_per_s(self, reps) -> float:
        done = sum(p.points for p, r in zip(self.panels, reps[0]) if r[1] is not None)
        return statistics.median(done / sum(r[0] for r in rep) for rep in reps)


def latency_metrics(samples_s: list, report: dict) -> dict:
    """Percentiles over every request sample; the sample counts go to ``report``."""
    ms = [1e3 * v for v in samples_s]
    p90 = percentile(ms, 90)
    report["request_samples"] = len(ms)
    report["request_samples_beyond_p90"] = sum(1 for v in ms if v > p90)
    return {"request_ms_p50": statistics.median(ms), "request_ms_p90": p90}


def run_sweeps(args, panels, report) -> tuple:
    from tracer import Tracer, layer_metrics, merge

    work = Sweeps(panels)
    probe = probe_setup()
    report["warmup_failed"] = probe["warmup_failed"]
    traced_reps, layer_runs, spans = [], [], []
    if args.trace:
        reps = repeat(work.rep, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        report["absent"] = tracer.absent
        rows = sum(p.points for p in panels)

        def traced_rep():
            tracer.reset(keep_spans=not layer_runs)
            rep = work.rep()
            layer_runs.append(layer_metrics(merge([tracer.summary()]), rows))
            spans.extend(tracer.spans)
            return rep

        try:
            traced_reps = repeat(traced_rep, args.seconds / 2)
        finally:
            tracer.uninstall()
    else:
        reps = repeat(work.rep, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from reference import Gate

    gate = Gate(ROOT)
    unexpected = sum(gate.check_panel(p, work.texts[p.name], args.seed) for p in panels if p.name in work.texts)
    all_reps = reps + traced_reps
    deterministic = all(
        r[1] is None or r[1] == sha256(work.texts[p.name]) for rep in all_reps for p, r in zip(panels, rep)
    )
    report["lost"] = sorted({r[2] for rep in all_reps for r in rep if r[2]})
    attempted = work.cells() * len(all_reps)
    failed = unexpected * len(all_reps) + sum(work.lost_cells(r) for r in all_reps)
    report.update(
        reps=len(reps), traced_reps=len(traced_reps),
        err_frac=(gate.err_cells + work.lost_cells(reps[0])) / work.cells(),
    )

    if args.trace:
        pps, pps_traced = work.points_per_s(reps), work.points_per_s(traced_reps)
        metrics = layer_summary(layer_runs, gate, work.lost_cells(reps[0]), probe, report)
        metrics["trace.overhead_pct"] = 100.0 * (pps - pps_traced) / pps
        write_spans(args, spans)
    else:
        metrics = {
            "points_per_s": work.points_per_s(reps),
            **latency_metrics([r[0] for rep in reps for r in rep], report),
            "setup_s": probe["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }
    return metrics, gate, work.texts, deterministic, attempted, failed


# ---------------------------------------------------------------------------
# scalar requests (one CLI process each)


def send(req, traced_out: Path | None = None) -> tuple:
    """One request, waited for; (CPU s of its process, ok, stdout)."""
    if traced_out is None:
        cmd = [sys.executable, "-m", "qscat", *req.argv]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(traced_out), *req.argv]
    start = children_cpu_s()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
        ok, stdout = proc.returncode == 0, proc.stdout
    except subprocess.TimeoutExpired:
        ok, stdout = False, ""
    return children_cpu_s() - start, ok, stdout


def run_requests(args, requests, report) -> tuple:
    from tracer import layer_metrics, merge

    def cycle(traced_summaries=None):
        out = []
        for i, req in enumerate(requests):
            if traced_summaries is None:
                out.append(send(req))
                continue
            path = OUT_DIR / f"request-{i}.json"
            out.append(send(req, path))
            if path.is_file():
                traced_summaries.append(json.loads(path.read_text()))
                path.unlink()
        return out

    def rps(cs):
        return statistics.median(len(requests) / sum(s[0] for s in c) for c in cs)

    traced_cycles, traced = [], []
    if args.trace:
        probe = probe_setup()
        cycles = repeat(cycle, args.seconds / 2)
        OUT_DIR.mkdir(exist_ok=True)
        traced_start = time.perf_counter()
        traced_cycles = [cycle(traced)]
        traced_cycles += repeat(lambda: cycle([]), args.seconds / 2 - (time.perf_counter() - traced_start))
    else:
        cycles = repeat(cycle, args.seconds)
        # children are reaped one by one, so this is the largest single request
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        probe = probe_setup()

    report["warmup_failed"] = probe["warmup_failed"]

    from reference import Gate

    gate = Gate(ROOT)
    outputs = {req.name: stdout for req, (_, ok, stdout) in zip(requests, cycles[0]) if ok}
    unexpected = {req.name: gate.check_request(req, outputs[req.name]) for req in requests if req.name in outputs}
    samples = [(req, s) for c in cycles + traced_cycles for req, s in zip(requests, c)]
    deterministic = all(not ok or stdout == outputs.get(req.name) for req, (_, ok, stdout) in samples)
    failed = sum(1 for req, (_, ok, _) in samples if not ok or unexpected.get(req.name))
    report["lost"] = sorted({req.name for req, (_, ok, _) in samples if not ok})
    report.update(
        reps=len(cycles), traced_reps=len(traced_cycles),
        err_frac=(gate.err_cells + len(requests) - len(outputs)) / len(requests),
    )

    if args.trace:
        merged = merge([t["summary"] for t in traced])
        report["absent"] = traced[0]["absent"] if traced else []
        metrics = layer_summary([layer_metrics(merged, 0)], gate, 0, probe, report)
        metrics["trace.overhead_pct"] = 100.0 * (rps(cycles) - rps(traced_cycles)) / rps(cycles)
        write_spans(args, [[req.name, t["spans"]] for req, t in zip(requests, traced)])
    else:
        metrics = {
            "points_per_s": rps(cycles),
            **latency_metrics([s[0] for c in cycles for s in c], report),
            "setup_s": probe["setup_s"],
            "peak_rss_mb": peak_rss_mb,
        }
    return metrics, gate, outputs, deterministic, len(samples), failed


# ---------------------------------------------------------------------------
# reporting


def layer_summary(layer_runs: list, gate, lost_cells: int, probe: dict, report: dict) -> dict:
    """Counts from the first traced repetition, times as medians over repetitions."""
    out = {}
    out["specfun.kernel_2f1_ms"], report["kernel_2f1_checksum"] = kernel_2f1_ms()
    for name, unit in PER_LAYER.items():
        if name not in layer_runs[0]:
            continue
        if unit.startswith("count"):
            out[name] = layer_runs[0][name]
        else:
            out[name] = statistics.median(run[name] for run in layer_runs)
    out["sweep.lost_cells"] = lost_cells
    out["cli.import_ms.numpy"] = probe["numpy_ms"]
    out["cli.import_ms.qscat"] = probe["qscat_ms"]
    for method in ("exact", "wkb", "bound"):
        for code in ERROR_CODES:
            out[f"{method}.errors.{code}"] = 0
    for key, count in gate.err_codes.items():
        method, code = key.split(":")
        out[f"{method}.errors.{code if code in ERROR_CODES else 'other'}"] += count
    return out


def write_spans(args, spans) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w") as f:
        json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": spans}, f)


def src_lines() -> tuple[int, int]:
    """(all lines, non-blank lines) of the package sources."""
    lines = [line for path in (ROOT / "src" / "qscat").rglob("*.py") for line in path.read_text().splitlines()]
    return len(lines), sum(1 for line in lines if line.strip())


def digest_report(args, outputs: dict) -> dict:
    if args.seed != 0:
        return {}
    digests = {name: sha256(text) for name, text in outputs.items()}
    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}) if DIGESTS.is_file() else {}
    changed = sum(1 for name, d in digests.items() if recorded.get(name) != d)
    return {"digests": digests, "digest_changed": changed}


def main() -> int:
    from workloads import SWEEP_WORKLOADS, WORKLOADS, Draw, scalar_requests

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/qscat/__init__.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a qscat checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    draw = Draw(args.seed)
    report = {"lost": []}
    if args.workload in SWEEP_WORKLOADS:
        result = run_sweeps(args, SWEEP_WORKLOADS[args.workload](draw), report)
    else:
        result = run_requests(args, scalar_requests(draw), report)
    metrics, gate, outputs, deterministic, attempted, failed = result

    import numpy
    import qscat

    kernels = sys.modules.get("qscat._kernels")
    all_lines, nonblank_lines = src_lines()
    wrong_frac = gate.wrong / gate.checked if gate.checked else 1.0
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_found": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.active_backend() if hasattr(kernels, "active_backend") else None,
        "qscat_version": getattr(qscat, "__version__", None),
        "src_lines": all_lines,
        "src_nonblank_lines": nonblank_lines,
        "checked": gate.checked,
        "wrong": gate.wrong,
        "err_cells": gate.err_cells,
        "unexpected_err_cells": gate.unexpected_err,
        "deterministic": deterministic,
        "wrong_messages": gate.wrong_messages,
        "unexpected_err_messages": gate.err_messages,
        **report,
        **digest_report(args, outputs),
    }

    units = PER_LAYER if args.trace else END_TO_END
    print(f"qscat benchmark  workload={args.workload} seed={args.seed} trace={args.trace}")
    notes = {}
    if not args.trace:
        n, beyond = report["request_samples"], report["request_samples_beyond_p90"]
        notes["request_ms_p50"] = f" (n={n} samples)"
        notes["request_ms_p90"] = f" (n={n} samples, {beyond} beyond p90" + (", fewer than 10)" if beyond < 10 else ")")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {unit}{notes.get(name, '')}")
    print(f"  {'err_frac':32s} {report['err_frac']:>16.6g} ratio (ERR cells plus lost cells, of cells attempted)")
    print(f"  {'wrong_frac':32s} {wrong_frac:>16.6g} ratio ({gate.wrong} of {gate.checked} checked values)")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": gate.wrong == 0 and gate.checked > 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
