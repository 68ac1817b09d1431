"""Steering layer: forcing-to-state operators, the controllability weights,
and minimum-energy control synthesis.

Everything is assembled from the same product quadrature the solver uses,
so the regularized normal equation holds exactly in the discrete algebra:
for the linear problem the achieved endpoint error per mode is
rho * |target| / (rho + Gamma) to rounding, not merely to quadrature order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import (
    SOLVE_MAX_ITER_DEFAULT,
    SOLVE_TOL_DEFAULT,
    STEER_MAX_OUTER_DEFAULT,
    STEER_TOL_DEFAULT,
)
from .errors import ConvergenceError, DomainError, UnsupportedRegimeError
from .fraccalc import SampledFn, TimeGrid
from .greens import (
    ProblemSpec,
    ResponseAssembly,
    SolveReport,
    Trajectory,
    _check_tol,
    _eval_source,
    _forcing_base,
    _ratio,
    solve_mild,
)

__all__ = [
    "ControlSignal",
    "SteeringResult",
    "ReachabilityTable",
    "apply_K",
    "solution_map_W",
    "regularized_W",
    "gramian",
    "steer",
    "reachability_experiment",
    "trapezoid_weights",
    "trajectory_sup_norm",
    "signal_l2_norm",
    "operator_norm_estimate",
    "w_growth_fit",
]


class ControlSignal(SampledFn):
    """Per-mode control values on the solve grid, in control units."""


@dataclass(frozen=True)
class SteeringResult:
    control: ControlSignal
    endpoint: np.ndarray
    target: np.ndarray
    endpoint_error: float
    control_energy: float
    rho: float
    outer_iterations: int
    stagnant: bool = False

    def __post_init__(self) -> None:
        if self.endpoint_error < 0.0 or self.control_energy < 0.0:
            raise DomainError("error and energy must be nonnegative")


@dataclass(frozen=True)
class ReachabilityTable:
    """Rows of (target_id, rho, endpoint_error, control_energy, outer_iterations)."""

    rows: tuple[tuple[int, float, float, float, int], ...]
    targets: tuple[np.ndarray, ...] = field(repr=False)


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.n_steps + 1, grid.delta)
    w[[0, -1]] *= 0.5
    return w


def trajectory_sup_norm(traj: Trajectory) -> float:
    """sup over nodes of the mode vector length."""
    return float(np.max(np.sqrt(np.sum(traj.states ** 2, axis=1))))


def signal_l2_norm(grid: TimeGrid, values: np.ndarray) -> float:
    """Trapezoid L2 norm of a sampled mode-vector signal."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    w = trapezoid_weights(grid)
    return float(math.sqrt(np.sum(w[:, None] * vals * vals)))


def apply_K(problem: ProblemSpec, mu: SampledFn) -> Trajectory:
    """Trajectory of the linear response to the raw forcing mu.

    Linear and additive in mu; the nonlinearity and the control gains do
    not participate.  See operator_norm_estimate for the bound constant.
    """
    vals = _forcing_base(problem, mu.grid, None, mu)
    return Trajectory(mu.grid, ResponseAssembly(problem, mu.grid).response(vals))


def solution_map_W(
    problem: ProblemSpec,
    mu: SampledFn,
    *,
    tol: float = SOLVE_TOL_DEFAULT,
    max_iter: int = SOLVE_MAX_ITER_DEFAULT,
) -> tuple[Trajectory, SolveReport]:
    """Fixed point of u = K mu + K N u, by delegation to solve_mild."""
    return solve_mild(problem, mu.grid, raw_forcing=mu, tol=tol, max_iter=max_iter)


def regularized_W(
    problem: ProblemSpec,
    mu: SampledFn,
    n: int,
    *,
    tol: float = SOLVE_TOL_DEFAULT,
    max_iter: int = SOLVE_MAX_ITER_DEFAULT,
) -> tuple[Trajectory, SolveReport]:
    """Fixed point of u = (K + (1/n) I) N u + K mu.

    The identity share (1/n) N u bypasses the response quadrature, so the
    output only satisfies the pinning identity up to O(1/n); the report's
    nonlocal_residual states the honest interpolated gap.  Runs solve_mild's
    Picard solve (ResponseAssembly._picard) with that share in each step.
    """
    if int(n) != n or n < 1:
        raise DomainError("n must be a positive integer")
    base = _forcing_base(problem, mu.grid, None, mu)
    asm = ResponseAssembly(problem, mu.grid)
    return asm._picard(base, tol=tol, max_iter=max_iter, n=int(n))


def _steering_setup(problem: ProblemSpec, grid: TimeGrid):
    """(assembly, bare endpoint rows, gain-scaled rows, Gramian) of (problem, grid)."""
    if problem.alpha <= 0.5:
        raise UnsupportedRegimeError(
            f"gramian needs alpha > 1/2; alpha = {problem.alpha} makes the "
            "squared endpoint kernel non-integrable"
        )
    asm = ResponseAssembly(problem, grid)
    rows = asm.rows(grid.n_steps)
    scaled = problem.control_gains[:, None] * rows
    omega = trapezoid_weights(grid)
    return asm, rows, scaled, np.sum(scaled * scaled / omega[None, :], axis=1)


def gramian(problem: ProblemSpec, grid: TimeGrid) -> np.ndarray:
    """Per-mode controllability weights of the discrete endpoint map.

    Gamma_m = sum_j A_{m,j}**2 / omega_j with A the gain-scaled endpoint
    row and omega the trapezoid weights: the largest endpoint response
    reachable per unit of control energy, mode by mode.  The continuum
    counterpart integrates the squared endpoint kernel, which is only
    finite for alpha > 1/2; smaller orders are rejected because the
    discrete sum then diverges under grid refinement instead of
    converging.
    """
    return _steering_setup(problem, grid)[3]


def steer(
    problem: ProblemSpec,
    grid: TimeGrid,
    target: np.ndarray,
    rho: float,
    *,
    tol: float = STEER_TOL_DEFAULT,
    max_outer: int = STEER_MAX_OUTER_DEFAULT,
) -> SteeringResult:
    """Minimum-energy steering toward the target at the horizon.

    Each pass solves the regularized normal equation with the source
    contribution of the current trajectory frozen: per mode the control is
    the endpoint row scaled by (target - source endpoint) / (rho + Gamma),
    then the semilinear problem is re-solved under that control.  Stops
    when the achieved endpoint moves less than tol between passes; every
    solve stops at SOLVE_TOL_DEFAULT.  The Gramian, the endpoint rows and
    every solve share one ResponseAssembly.
    """
    target = _check_target(problem, target)
    if not (np.isfinite(rho) and rho > 0.0):
        raise DomainError("rho must be positive")
    if max_outer < 1:
        raise DomainError("max_outer must be positive")
    _check_tol(tol)
    setup = _steering_setup(problem, grid)
    return _steer_cell(problem, grid, setup, target, rho, tol=tol, max_outer=max_outer)


def _check_target(problem: ProblemSpec, target) -> np.ndarray:
    target = np.asarray(target, dtype=float)
    if target.shape != (problem.n_modes,) or not np.all(np.isfinite(target)):
        raise DomainError("target must be a finite mode vector")
    return target


def _steer_cell(
    problem: ProblemSpec,
    grid: TimeGrid,
    setup,
    target: np.ndarray,
    rho: float,
    *,
    tol: float,
    max_outer: int,
) -> SteeringResult:
    """The outer loop of ``steer`` on a prepared ``_steering_setup``."""
    asm, rows, scaled, gamma_modes = setup
    omega = trapezoid_weights(grid)

    traj, _ = asm.solve()
    endpoint = traj.final
    if np.all(problem.control_gains == 0.0):
        err = float(np.linalg.norm(endpoint - target))
        zero = ControlSignal(grid, np.zeros((grid.n_steps + 1, problem.n_modes)))
        return SteeringResult(
            control=zero,
            endpoint=endpoint,
            target=target,
            endpoint_error=err,
            control_energy=0.0,
            rho=float(rho),
            outer_iterations=0,
            stagnant=err > tol,
        )

    trace: list[float] = []
    for outer in range(1, max_outer + 1):
        source = _eval_source(problem, grid.nodes, traj.states)
        source_endpoint = np.einsum("mj,jm->m", rows, source)
        mismatch = (target - source_endpoint) / (rho + gamma_modes)
        v = (scaled / omega[None, :]) * mismatch[:, None]  # (modes, nodes)
        signal = ControlSignal(grid, v.T.copy())
        traj, _ = asm.solve(signal)
        change = float(np.linalg.norm(traj.final - endpoint))
        endpoint = traj.final
        trace.append(change)
        if change <= tol:
            break
    else:
        raise ConvergenceError(
            "steering outer loop did not settle",
            iterations=max_outer,
            final_residual=trace[-1],
            contraction_estimate=_ratio(trace, math.inf),
            trace=trace,
        )
    energy = float(np.sum(omega[None, :] * v * v))
    return SteeringResult(
        control=signal,
        endpoint=endpoint,
        target=target,
        endpoint_error=float(np.linalg.norm(endpoint - target)),
        control_energy=energy,
        rho=float(rho),
        outer_iterations=outer,
    )


def reachability_experiment(
    problem: ProblemSpec,
    grid: TimeGrid,
    targets: list[np.ndarray],
    rhos: list[float],
    *,
    tol: float = STEER_TOL_DEFAULT,
    max_outer: int = STEER_MAX_OUTER_DEFAULT,
) -> ReachabilityTable:
    """Steer toward each target across the regularization sweep.

    Every (target, rho) cell runs ``steer``'s loop on one shared
    assembly, endpoint rows and Gramian.
    """
    rhos = [float(r) for r in rhos]
    if not rhos or not all(math.isfinite(r) and r > 0.0 for r in rhos):
        raise DomainError("rhos must be positive")
    if any(b >= a for a, b in zip(rhos, rhos[1:])):
        raise DomainError("rhos must be strictly decreasing")
    if max_outer < 1:
        raise DomainError("max_outer must be positive")
    _check_tol(tol)
    kept = [_check_target(problem, target) for target in targets]
    if not kept:
        return ReachabilityTable(rows=(), targets=())
    setup = _steering_setup(problem, grid)
    rows: list[tuple[int, float, float, float, int]] = []
    for tid, target in enumerate(kept):
        for rho in rhos:
            res = _steer_cell(problem, grid, setup, target, rho, tol=tol, max_outer=max_outer)
            rows.append(
                (tid, rho, res.endpoint_error, res.control_energy, res.outer_iterations)
            )
    return ReachabilityTable(rows=tuple(rows), targets=tuple(kept))


def operator_norm_estimate(problem: ProblemSpec, grid: TimeGrid) -> float:
    """The exact norm sup ||K mu||_sup / ||mu||_L2 of apply_K on the grid.

    Mode m of (K mu)(t_i) is row m of ResponseAssembly.rows(i), R, dotted
    with mode m of mu.  Under the trapezoid norm (signal_l2_norm) that
    functional has norm sqrt(sum_j R_j**2 / omega_j), reached by mu_j =
    R_j / omega_j; the modes do not mix, so the norm is the largest of
    these over nodes and modes: the Gramian's form at every node.
    """
    asm = ResponseAssembly(problem, grid)
    omega = trapezoid_weights(grid)
    sums = [np.sum(asm.rows(i) ** 2 / omega, axis=1) for i in range(grid.n_steps + 1)]
    return math.sqrt(float(np.max(sums)))


def w_growth_fit(
    problem: ProblemSpec,
    grid: TimeGrid,
    scales: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0),
    seed: int = 1105,
) -> tuple[float, float]:
    """Affine envelope constants (A, B) with ||W mu|| <= A + B ||mu||.

    Fits a least squares line through sampled (||mu||, ||W mu||) pairs,
    then raises the intercept until every sample sits below the line.
    """
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal((grid.n_steps + 1, problem.n_modes))
    direction /= signal_l2_norm(grid, direction)
    asm = ResponseAssembly(problem, grid)
    xs, ys = [], []
    for s in scales:
        traj, _ = asm.solve(raw_forcing=SampledFn(grid, s * direction))
        xs.append(s)
        ys.append(trajectory_sup_norm(traj))
    xs_a, ys_a = np.asarray(xs), np.asarray(ys)
    slope, intercept = np.polyfit(xs_a, ys_a, 1)
    slope = max(float(slope), 0.0)
    intercept = float(np.max(ys_a - slope * xs_a))
    return intercept, slope
