"""Set-up probe, run in a fresh interpreter with ``src`` on PYTHONPATH.

Times, in CPU time of this process, ``import numpy``, then the rest of
``import qscat.cli`` (qscat's own import share), then a first call of every
method on every family and one CSV render (the warm-up).  Prints one JSON
object.
"""

import json
import time

t0 = time.process_time()
import numpy  # noqa: E402,F401

t1 = time.process_time()
import qscat  # noqa: E402
import qscat.cli  # noqa: E402

t2 = time.process_time()
exact_only = frozenset({"exact"})
all_methods = frozenset({"exact", "wkb", "bound"})
spec = qscat.SweepSpec(qscat.Rectangular(v0=1.0, a=1.0), "E", 0.5, 2.0, 4, methods=all_methods)
warmups = (
    lambda: qscat.evaluate_methods(qscat.Delta(alpha=1.0), 0.5, exact_only),
    lambda: qscat.evaluate_methods(qscat.Rectangular(v0=1.0, a=1.0), 0.5, all_methods),
    lambda: qscat.evaluate_methods(qscat.Eckart(0.0, 0.0, 1.0, 1.0), 0.5, all_methods),
    lambda: qscat.evaluate_methods(qscat.Hulthen(v0=1.0, a=0.5, q=0.9), 2.0, all_methods),
    lambda: qscat.cli.render_sweep_csv(qscat.run_sweep(spec), spec.methods),
)
failed = 0
for call in warmups:
    try:
        call()
    except Exception:  # a failing first call is the workloads' to count, not set-up's
        failed += 1
t3 = time.process_time()

print(json.dumps({
    "numpy_ms": 1e3 * (t1 - t0),
    "qscat_ms": 1e3 * (t2 - t1),
    "warmup_ms": 1e3 * (t3 - t2),
    "setup_s": t3 - t0,
    "warmup_failed": failed,
}))
