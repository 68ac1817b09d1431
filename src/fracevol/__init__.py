"""Caputo fractional evolution equations with discrete nonlocal initial data.

A small numerical library built in layers:

``specfun``
    Gamma and the two-parameter Mittag-Leffler function on the real line.
``fraccalc``
    Uniform time grids, fractional integral/derivative discretizations,
    and product quadrature for weakly singular convolutions.
``spectral``
    Diagonal models of the generator and the associated solution and
    resolvent operator families.
``greens``
    Nonlocal initial conditions, the Green's kernel, the mild-solution
    fixed point, and an independent residual check.
``control``
    Forcing-to-state maps, regularized solution maps, per-mode Gramians,
    steering, and reachability experiments.
``config`` / ``cli`` / ``serialize``
    Run configuration, command line front end, and deterministic text
    formats.
"""
from __future__ import annotations

from .constants import SOLVE_TOL_DEFAULT, STEER_TOL_DEFAULT
from .control import (
    ControlSignal,
    ReachabilityTable,
    SteeringResult,
    apply_K,
    gramian,
    reachability_experiment,
    regularized_W,
    solution_map_W,
    steer,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    SourceError,
    UnsupportedRegimeError,
)
from .fraccalc import (
    SampledFn,
    TimeGrid,
    caputo_derivative,
    rl_integral,
)
from .greens import (
    NonlocalSpec,
    Nonlinearity,
    ProblemSpec,
    SolveReport,
    Trajectory,
    VerificationReport,
    build_O,
    check_H1,
    mode_gain_source,
    sine_collocation_source,
    solve_mild,
    verify_mild,
)
from .specfun import gamma, mittag_leffler, mittag_leffler_array
from .spectral import SpectralModel

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "ConfigError",
    "ConvergenceError",
    "DomainError",
    "SourceError",
    "UnsupportedRegimeError",
    "SOLVE_TOL_DEFAULT",
    "STEER_TOL_DEFAULT",
    "gamma",
    "mittag_leffler",
    "mittag_leffler_array",
    "TimeGrid",
    "SampledFn",
    "rl_integral",
    "caputo_derivative",
    "SpectralModel",
    "NonlocalSpec",
    "Nonlinearity",
    "ProblemSpec",
    "Trajectory",
    "SolveReport",
    "VerificationReport",
    "check_H1",
    "build_O",
    "solve_mild",
    "verify_mild",
    "sine_collocation_source",
    "mode_gain_source",
    "ControlSignal",
    "SteeringResult",
    "ReachabilityTable",
    "apply_K",
    "gramian",
    "steer",
    "reachability_experiment",
    "solution_map_W",
    "regularized_W",
    "__version__",
]
