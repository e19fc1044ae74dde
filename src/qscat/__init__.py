"""Exact, WKB, and rigorously bounded 1D quantum scattering probabilities.

Four canonical potentials (delta, rectangular, Eckart, Hulthen), closed-form
amplitudes, a semiclassical tunneling approximation, a sech^2 transfer-matrix
lower bound, resonance finding, and a sweep/CSV front end.
"""

from .core import NATURAL_UNITS, PhysicsContext
from .potentials import Delta, Eckart, Hulthen, PotentialSpec, Rectangular
from .exact import (
    asymptotic_wavenumbers,
    delta_amplitudes_grid,
    eckart_reflection_paper,
    eckart_transmission_grid,
    hulthen_amplitudes_grid,
    rectangular_amplitudes_grid,
)
from .specfun import gauss_2f1, log_gamma
from .wkb import wkb_for_potential
from .resonance import (
    Kind,
    ResonanceListing,
    ResonanceReport,
    Source,
    analytic_resonances,
    numeric_resonances,
)
from .sweep import (
    MethodResult,
    SweepRow,
    SweepSpec,
    SweepTable,
    evaluate_methods,
    evaluate_table,
    run_sweep,
    sweep_rows,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
