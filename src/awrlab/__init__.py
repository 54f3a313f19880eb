"""Exact Riemann solvers, vanishing-pressure sweeps and a finite-volume
simulator for traffic-flow systems with modified Chaplygin gas pressure."""

import importlib

from .core import (
    ORIGINAL,
    PERTURBED,
    TRANSPORT,
    BranchError,
    Conserved,
    DegenerateDensityError,
    InapplicableError,
    NoThresholdError,
    PressureParams,
    State,
    WaveSpeedPair,
    eigenvalues_original,
    eigenvalues_perturbed,
    from_conserved,
    genuine_nonlinearity_original,
    pressure,
    to_conserved,
)
from .original import RegionLabel14, RiemannSolution14, classify, solve, threshold_A0
from .perturbed import (
    BumpTestFunction,
    RegionLabel17,
    RiemannSolution17,
    classify_perturbed,
    solve_perturbed,
    weak_form_residual,
)
from .transport import (
    DeltaShock,
    EntropyClass,
    SweepRecord,
    SweepReport,
    TransportSolution,
    Verdict,
    default_schedule,
    entropy_check,
    grh_residual,
    limit_delta_consistency,
    special_delta,
    sweep_original,
    sweep_perturbed,
    transport_solve,
)

__version__ = "0.1.0"

# fv is the only module that needs numpy.  It loads on first use, so that
# ``import awrlab`` and the CLI commands that do no array work start without
# numpy (PEP 562).
_FV_NAMES = {
    "FieldSnapshot", "GridConfig", "delta_weight_estimate", "l1_error_vs_exact", "simulate",
}


def __getattr__(name: str):
    if name == "fv" or name in _FV_NAMES:
        # import_module, not ``from . import fv``: the latter looks the name
        # up on this package first and would call back into __getattr__
        fv = importlib.import_module(".fv", __name__)
        return fv if name == "fv" else getattr(fv, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
