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
    DensityUnderflowError,
    InapplicableError,
    NoThresholdError,
    PressureParams,
    State,
    WaveSpeedPair,
    default_schedule,
    eigenvalues_original,
    eigenvalues_perturbed,
    from_conserved,
    genuine_nonlinearity_original,
    pressure,
    to_conserved,
)

__version__ = "0.1.0"

# Every other submodule the package serves, with the public names it serves
# from each.  A submodule loads on first access (PEP 562), so ``import awrlab``
# loads ``core`` alone and each CLI command loads only what it runs; of them
# only fv needs numpy.
_LAZY = {
    "original": ("RegionLabel14", "RiemannSolution14", "classify", "solve", "threshold_A0"),
    "perturbed": (
        "BumpTestFunction", "RegionLabel17", "RiemannSolution17", "classify_perturbed",
        "solve_perturbed", "weak_form_residual",
    ),
    "transport": (
        "DeltaShock", "EntropyClass", "SweepRecord", "SweepReport", "TransportSolution",
        "Verdict", "entropy_check", "grh_residual", "limit_delta_consistency",
        "special_delta", "sweep_original", "sweep_perturbed", "transport_solve",
    ),
    "fv": (
        "FieldSnapshot", "GridConfig", "delta_weight_estimate", "l1_error_vs_exact", "simulate",
    ),
    "rootfind": (), "quadrature": (),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import <module>``: the latter looks the name
    # up on this package first and would call back into __getattr__
    mod = importlib.import_module("." + module, __name__)
    return mod if module == name else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})
