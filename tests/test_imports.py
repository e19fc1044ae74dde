"""No module of the package imports a name it never uses; ``__init__.py`` imports
names to re-export them and is left out.  A deletion that leaves an import behind
fails here, and so does one that changes the public names of the package or removes
a name the benchmark harness in ``perfbench/`` calls."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "qscat"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_import_is_found():
    assert _unused_imports("import math\nimport numpy as np\nfrom .core import each, method_result\n"
                           "each(np.sqrt)\n") == ["math", "method_result"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_uses_every_import(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


PUBLIC = [
    "Delta", "Eckart", "Hulthen", "Kind", "MethodResult", "NATURAL_UNITS", "PhysicsContext",
    "PotentialSpec", "Rectangular", "ResonanceListing", "ResonanceReport", "Source",
    "SweepRow", "SweepSpec", "SweepTable",
    "analytic_resonances", "asymptotic_wavenumbers", "bound", "core", "delta_amplitudes_grid",
    "eckart_reflection_paper", "eckart_transmission_grid", "errors", "evaluate_methods",
    "evaluate_table", "exact", "gauss_2f1", "hulthen_amplitudes_grid", "log_gamma",
    "numeric_resonances", "potentials", "rectangular_amplitudes_grid", "resonance", "run_sweep",
    "specfun", "sweep", "sweep_rows", "wkb", "wkb_for_potential",
]


def test_public_surface():
    assert sorted(importlib.import_module("qscat").__all__) == PUBLIC


# every qscat name the benchmark harness reaches: perfbench/probe.py lines 22-28,
# perfbench/run.py lines 190 and 244-274 (the families by name in Sweeps._potential)
# and perfbench/traced_cli.py line 24
PERFBENCH_NAMES = [
    "qscat.SweepSpec", "qscat.Delta", "qscat.Rectangular", "qscat.Eckart", "qscat.Hulthen",
    "qscat.evaluate_methods", "qscat.run_sweep", "qscat.NATURAL_UNITS", "qscat.cli.render_sweep_csv",
    "qscat.cli.main", "qscat.errors.QscatError", "qscat.specfun.gauss_2f1", "qscat.sweep.MethodResult",
    "qscat.sweep.SweepRow", "qscat.sweep.run_sweep", "qscat.wkb.wkb_for_potential",
]


@pytest.mark.parametrize("dotted", PERFBENCH_NAMES)
def test_benchmark_names_exist(dotted):
    module, _, name = dotted.rpartition(".")
    assert hasattr(importlib.import_module(module), name)
