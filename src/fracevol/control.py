"""Steering layer: forcing-to-state operators, the controllability weights,
and minimum-energy control synthesis.

Everything is assembled from the same product quadrature the solver uses,
so the regularized normal equation holds exactly in the discrete algebra:
for the linear problem the achieved endpoint error per mode is
rho * |target| / (rho + Gamma) to rounding, not merely to quadrature order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    _DIVERGENCE_MARGIN,
    ProblemSpec,
    ResponseAssembly,
    SolveReport,
    Trajectory,
    _check_tol,
    _eval_source,
    _fixed_point,
    _forcing_base,
    _sup_norm,
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
    stagnant: bool = False  # no nonzero gain, and the endpoint misses by more than tol

    def __post_init__(self) -> None:
        if self.endpoint_error < 0.0 or self.control_energy < 0.0:
            raise DomainError("error and energy must be nonnegative")


@dataclass(frozen=True)
class ReachabilityTable:
    """Rows of (target_id, rho, endpoint_error, control_energy, outer_iterations)."""

    rows: tuple[tuple[int, float, float, float, int], ...]
    failures: tuple[str, ...] = ()  # the message of each cell whose row has nan error and energy


def trapezoid_weights(grid: TimeGrid) -> np.ndarray:
    w = np.full(grid.n_steps + 1, grid.delta)
    w[[0, -1]] *= 0.5
    return w


def trajectory_sup_norm(traj: Trajectory) -> float:
    """sup over nodes of the mode vector length: the solver's norm, greens._sup_norm."""
    return _sup_norm(traj.states)


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
    Picard solve (ResponseAssembly.solve) with that share in each step.
    """
    base = _forcing_base(problem, mu.grid, None, mu)
    return ResponseAssembly(problem, mu.grid).solve(base, tol=tol, max_iter=max_iter, n=n)


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
    then the semilinear problem is re-solved under that control.  The
    passes run on greens._fixed_point with mix set: from the third pass on,
    the trajectory a pass starts from is the depth-1 Anderson (secant)
    combination of the last two passes' trajectories, which reaches the same
    fixed point in fewer passes.  They stop once a pass changes the
    trajectory it starts from by <= tol in the sup norm, or fail by the
    driver's rules (10 growing updates in a row is divergence), as Picard
    steps do; outer_iterations counts passes.  tol bounds that pass's update,
    from the mixed iterate; one more pass may move the returned states by the
    plain map's growth times tol.  The solves share one assembly and keep
    the SOLVE_*_DEFAULT stops; [solver] is not read.
    """
    (target,), (rho,) = _check_steering(problem, [target], [rho], tol, max_outer)
    return _steer_cell(_steering_setup(problem, grid), target, rho, tol=tol, max_outer=max_outer)


def _check_steering(problem: ProblemSpec, targets, rhos, tol: float, max_outer: int):
    """(targets as arrays, rhos as floats) of a sweep, or DomainError."""
    targets = [np.asarray(target, dtype=float) for target in targets]
    if not all(t.shape == (problem.n_modes,) and np.isfinite(t).all() for t in targets):
        raise DomainError("target must be a finite mode vector")
    rhos = [float(r) for r in rhos]
    ladder = [math.inf, *rhos, 0.0]  # inf > rhos[0] > ... > rhos[-1] > 0
    if len(ladder) < 3 or not all(a > b for a, b in zip(ladder, ladder[1:])):
        raise DomainError("rhos must be finite, positive and strictly decreasing")
    _check_tol(tol)
    if max_outer < 1:
        raise DomainError("max_outer must be positive")
    return targets, rhos


def _steer_cell(
    setup, target: np.ndarray, rho: float, *, tol: float, max_outer: int
) -> SteeringResult:
    """``steer``'s passes on a prepared ``_steering_setup``, as mixed steps of _fixed_point.

    A pass maps states (the uncontrolled solve's, then the first pass's,
    then the driver's Anderson mix of the last two passes) to the states
    solved under the control they give.  The driver returns the last
    pass's states, so v is the control that produced them.  Zero gains
    zero the control, so the first pass repeats the uncontrolled solve and
    ends the cell.
    """
    asm, rows, scaled, gamma_modes = setup
    problem, grid = asm.problem, asm.grid
    omega = trapezoid_weights(grid)
    v = None

    def step(states: np.ndarray) -> np.ndarray:
        nonlocal v
        source = _eval_source(problem, grid.nodes, states)
        source_endpoint = np.einsum("mj,jm->m", rows, source)
        mismatch = (target - source_endpoint) / (rho + gamma_modes)
        v = (scaled / omega[None, :]) * mismatch[:, None]  # (modes, nodes)
        return asm.solve(v.T * problem.control_gains[None, :])[0].states

    start = asm.solve(np.zeros((grid.n_steps + 1, problem.n_modes)))[0].states
    states, trace = _fixed_point(
        step, start, tol=tol, max_iter=max_outer, run_limit=_DIVERGENCE_MARGIN,
        name="steering pass", mix=True,
    )
    err = float(np.linalg.norm(states[-1] - target))
    return SteeringResult(
        control=ControlSignal(grid, v.T),
        endpoint=states[-1],
        target=target,
        endpoint_error=err,
        control_energy=float(np.sum(omega[None, :] * v * v)),
        rho=float(rho),
        outer_iterations=len(trace),
        stagnant=bool(np.all(problem.control_gains == 0.0)) and err > tol,
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

    Every (target, rho) cell runs ``steer``'s loop, [solver] unread as
    there, on one shared assembly, endpoint rows and Gramian.  A
    cell that does not converge, in its passes or in a pass's Picard solve,
    gets nan error and energy, the passes run up to the failed one, and its
    message, prefixed "target i, rho r: ", in failures.  A DomainError ends
    the sweep with the same prefix; any other error ends it as raised.
    """
    targets, rhos = _check_steering(problem, targets, rhos, tol, max_outer)
    if not targets:
        return ReachabilityTable(rows=())
    setup = _steering_setup(problem, grid)
    rows, failures = [], []
    for tid, target in enumerate(targets):
        for rho in rhos:
            label = f"target {tid}, rho {rho!r}: "
            try:
                res = _steer_cell(setup, target, rho, tol=tol, max_outer=max_outer)
                cell = (res.endpoint_error, res.control_energy, res.outer_iterations)
            except ConvergenceError as exc:
                cell = (math.nan, math.nan, exc.iterations)
                failures.append(label + str(exc))
            except DomainError as exc:
                raise type(exc)(label + str(exc)) from exc
            rows.append((tid, rho, *cell))
    return ReachabilityTable(rows=tuple(rows), failures=tuple(failures))


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
