"""Mild solutions of fractional evolution problems whose initial state is
pinned to a weighted combination of later states.

The initial condition u(0) = sum_k c_k u(t_k) is resolved through the
per-mode inverse factors of (I - sum_k c_k T(t_k)), which in the diagonal
model are exactly 1 / (1 - q_m), q_m = sum_k c_k E_alpha(-lambda_m t_k**alpha);
the trajectory is then the fixed point of

    u(t) = T(t) u(0) + integral_0^t S(t - s) [B v(s) + f(s, u(s))] ds

computed by Picard iteration, with every singular integral discretized by
the product quadrature from fraccalc.  solve_mild carries the combined
representation; verify_mild re-checks a finished trajectory with a
deliberately different quadrature so discretization errors cannot cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .constants import SOLVE_MAX_ITER_DEFAULT, SOLVE_TOL_DEFAULT
from .errors import AdmissibilityError, ConvergenceError, DomainError, SourceError
from .fraccalc import LagConvolution, ProductQuadrature, SampledFn, TimeGrid, _check_order
from .fraccalc import _panel_moments, singular_kernel_weights
from .spectral import SpectralModel, ml_table

__all__ = [
    "NonlocalSpec",
    "Nonlinearity",
    "ProblemSpec",
    "Trajectory",
    "SolveReport",
    "VerificationReport",
    "H1Report",
    "check_H1",
    "build_O",
    "green_apply",
    "green_weighted_sup",
    "solve_mild",
    "verify_mild",
    "ResponseAssembly",
    "endpoint_response_rows",
    "sine_collocation_source",
    "mode_gain_source",
]

# growing updates allowed past the transient of _transient_run's bound
# before _fixed_point stops as diverging
_DIVERGENCE_MARGIN = 10
# half-width over max(1, horizon) of green_apply's singular set {t} union {t_k}
_SINGULAR_TOL = 1e-13


@dataclass(frozen=True)
class NonlocalSpec:
    """Weighted multi-point pinning of the initial state.

    weights[k] multiplies the state at times[k]; times must be strictly
    increasing inside (0, horizon].  Zero points means the classical
    u(0) = 0 problem.
    """

    weights: np.ndarray
    times: np.ndarray
    horizon: float

    def __post_init__(self) -> None:
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        t = np.atleast_1d(np.asarray(self.times, dtype=float))
        if w.shape != t.shape or w.ndim != 1:
            raise DomainError("weights and times must be 1-D of equal length")
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise DomainError("horizon must be positive and finite")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(t))):
            raise DomainError("weights and times must be finite")
        if t.size:
            if t[0] <= 0.0 or t[-1] > self.horizon:
                raise DomainError("pinning times must lie in (0, horizon]")
            if np.any(np.diff(t) <= 0.0):
                raise DomainError("pinning times must be strictly increasing")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def n_points(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class Nonlinearity:
    """State-dependent source term with its declared growth data.

    fn maps (times, states), the (n_nodes,) node times and (n_nodes, n_modes)
    mode vectors, to source values shaped like states, for all nodes in one
    call; a single (t, mode_vector) row works when fn's arithmetic broadcasts.
    fn must be a deterministic function of (times, states): a
    ResponseAssembly evaluates it at the zero state once and reuses that
    value as the first Picard step of every later solve.  lipschitz_bound
    and source_bound are the constants entering the contraction and growth
    estimates; they describe fn, they are not enforced pointwise.
    """

    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz_bound: float
    source_bound: float

    def __post_init__(self) -> None:
        if self.lipschitz_bound < 0.0 or self.source_bound < 0.0:
            raise DomainError("growth constants must be nonnegative")


@dataclass(frozen=True)
class ProblemSpec:
    """Complete statement of one evolution problem.

    control_gains scales the control channel per mode (a scalar is
    broadcast).  alpha = 1 is admitted as the classical sanity limit.
    """

    model: SpectralModel
    alpha: float
    coupling: NonlocalSpec
    nonlinearity: Nonlinearity | None = None
    control_gains: np.ndarray | float = 0.0

    def __post_init__(self) -> None:
        alpha = _check_order(self.alpha, allow_one=True)
        gains = np.asarray(self.control_gains, dtype=float)
        if gains.ndim == 0:
            gains = np.full(self.model.n_modes, float(gains))
        if gains.shape != (self.model.n_modes,) or not np.all(np.isfinite(gains)):
            raise DomainError("control_gains must be a finite scalar or per-mode vector")
        object.__setattr__(self, "control_gains", gains)
        object.__setattr__(self, "alpha", alpha)

    @property
    def horizon(self) -> float:
        return self.coupling.horizon

    @property
    def n_modes(self) -> int:
        return self.model.n_modes


@dataclass(frozen=True)
class Trajectory:
    """Mode coefficients along a time grid; states[i] is the vector at node i."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self) -> None:
        s = np.asarray(self.states, dtype=float)
        if s.ndim != 2 or s.shape[0] != self.grid.n_steps + 1:
            raise DomainError("states must be (n_steps + 1, n_modes)")
        if not np.all(np.isfinite(s)):
            raise DomainError("states must be finite")
        object.__setattr__(self, "states", s)

    @property
    def initial(self) -> np.ndarray:
        return self.states[0]

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float
    nonlocal_residual: float
    contraction_estimate: float
    control_sup: float


@dataclass(frozen=True)
class VerificationReport:
    equation_residual: float
    nonlocal_residual: float
    node_residuals: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class H1Report:
    """Outcome of check_H1: whether the pinning weights pass, and by how much."""

    admissible: bool
    margin: float


def check_H1(model: SpectralModel, alpha: float, coupling: NonlocalSpec) -> H1Report:
    """Smallness check for the pinning weights.

    All model rates are strictly positive, so the decay family is a
    contraction and its sup over any horizon is exactly 1; the margin is
    therefore 1 - sum_k |c_k|.
    """
    _check_order(alpha, allow_one=True)
    margin = 1.0 - float(np.sum(np.abs(coupling.weights)))
    return H1Report(margin > 0.0, margin)


def _check_admissible(model: SpectralModel, alpha: float, coupling: NonlocalSpec) -> None:
    """Raise AdmissibilityError, carrying the margin, when check_H1 fails."""
    rep = check_H1(model, alpha, coupling)
    if not rep.admissible:
        raise AdmissibilityError(rep.margin)


def _inverse_factors(weights: np.ndarray, decay_at_pins: np.ndarray) -> np.ndarray:
    """1 / (1 - q) per mode, q summed over the flow rows at the pins in pin order."""
    q = np.zeros(decay_at_pins.shape[1])
    for ck, decay in zip(weights, decay_at_pins):
        q += ck * decay
    return 1.0 / (1.0 - q)


def build_O(model: SpectralModel, alpha: float, coupling: NonlocalSpec) -> np.ndarray:
    """Per-mode inverse factors of (I - sum_k c_k T(t_k)), in closed form.

    The flow is diagonal, so the operator is 1 / (1 - q_m) on mode m with
    q_m = sum_k c_k E_alpha(-lambda_m t_k**alpha): the sum of the Neumann
    series that the smallness margin makes converge, |q_m| < 1.  An
    inadmissible coupling raises before any Mittag-Leffler evaluation.
    """
    _check_admissible(model, alpha, coupling)
    decay_at_pins = ml_table(model.lambdas, alpha, 1.0, coupling.times)
    return _inverse_factors(coupling.weights, decay_at_pins)


def _eval_source(problem: ProblemSpec, times: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The Nemytskii operator: the source at every node, in one call.

    A non-finite or misshapen result raises SourceError naming its first node.
    """
    if problem.nonlinearity is None:
        return np.zeros_like(states)
    out = np.asarray(problem.nonlinearity.fn(times, states), dtype=float)
    if out.shape != states.shape:
        raise SourceError(
            f"source produced shape {out.shape} instead of {states.shape}, "
            f"starting at node 0, time t = {float(times[0])!r}"
        )
    if not np.isfinite(out).all():
        i = int(np.argmax(~np.all(np.isfinite(out), axis=1)))
        raise SourceError(
            f"source produced a non-finite value at node {i}, time t = {float(times[i])!r}"
        )
    return out


def _ratio(diffs: list[float], default: float) -> float:
    """Last residual over the one before it: the observed contraction."""
    return diffs[-1] / diffs[-2] if len(diffs) > 1 and diffs[-2] > 0.0 else default


def _transient_run(problem: ProblemSpec, max_iter: int, *, identity_share: float = 0.0) -> int:
    """Consecutive growing updates after which a Picard run counts as diverging.

    Every response kernel is at most t**(alpha - 1) / Gamma(alpha), so for
    the step u <- (R + identity_share) f(u), R the response integral
    without its pinning correction and f L-Lipschitz, the n-th update is
    at most the first one's sup times

        B_n = sum_j C(n, j) a**(n - j) b**j / Gamma(j alpha + 1),
        a = L identity_share,  b = L horizon**alpha.

    For a < 1 the bound grows for a transient and then collapses, so the
    updates of this part always converge in the end; they may grow for
    about as long as the bound does (about (L horizon**alpha)**(1/alpha)
    / alpha updates when identity_share is 0).  Returns that transient
    plus _DIVERGENCE_MARGIN, or max_iter when B_n never collapses.  The
    pinning correction is left out of the bound: for a pinned problem a
    longer run is taken as divergence, not proved one.
    """
    lip = 0.0 if problem.nonlinearity is None else problem.nonlinearity.lipschitz_bound
    a = lip * identity_share
    b = lip * problem.horizon ** problem.alpha
    if a >= 1.0:
        return max_iter
    log_a = math.log(a) if a > 0.0 else -math.inf
    log_b = math.log(b) if b > 0.0 else -math.inf
    # log of the coefficient of 1/Gamma(j alpha + 1) in B_n, j = 0..n
    log_coef = np.zeros(1)
    log_gamma = [0.0]
    log_bound = 0.0
    for n in range(1, max_iter):
        log_coef = np.logaddexp(
            np.append(log_coef + log_a, -math.inf), np.insert(log_coef + log_b, 0, -math.inf)
        )
        log_gamma.append(math.lgamma(n * problem.alpha + 1.0))
        log_next = float(np.logaddexp.reduce(log_coef - np.asarray(log_gamma)))
        if not log_next > log_bound:
            return n - 1 + _DIVERGENCE_MARGIN
        log_bound = log_next
    return max_iter


def _check_tol(tol: float) -> None:
    """Reject a stopping tolerance that is not positive and finite.

    nan and negative values are never met, and inf is met by any first
    update, however far from the fixed point.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _fixed_point(
    step: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    *,
    tol: float,
    max_iter: int,
    run_limit: int,
) -> tuple[np.ndarray, list[float]]:
    """Iterate u <- step(u) from start until the sup-norm update is <= tol.

    Returns the last iterate and the update history.  Raises
    ConvergenceError with both when max_iter updates do not get there,
    and fails fast when the iteration diverges: on a non-finite iterate,
    or after run_limit consecutive growing updates (see _transient_run).
    A DomainError from the step comes back prefixed with its iteration,
    of the same type.
    """
    if max_iter < 1:
        raise DomainError("max_iter must be positive")
    _check_tol(tol)
    u = start
    diffs: list[float] = []
    growing = 0
    for k in range(1, max_iter + 1):
        with np.errstate(all="ignore"):  # overflow fails a check, not as a warning
            try:
                u_next = step(u)
            except DomainError as exc:
                raise type(exc)(f"Picard iteration {k}: {exc}") from exc
            diff = float(np.max(np.abs(u_next - u)))
        growing = growing + 1 if diffs and diff > diffs[-1] else 0
        diffs.append(diff)
        u = u_next
        if diff <= tol:
            return u, diffs
        if not math.isfinite(diff):
            message = "Picard iteration diverged to a non-finite iterate"
            break
        if growing >= run_limit:
            message = f"Picard iteration diverged: {growing} consecutive growing updates"
            break
    else:
        message = "Picard iteration did not reach tolerance"
    raise ConvergenceError(
        message,
        iterations=len(diffs),
        final_residual=diffs[-1],
        contraction_estimate=_ratio(diffs, math.inf),
        trace=diffs,
    )


class ResponseAssembly:
    """Everything about (problem, grid) that does not change across iterations.

    Holds the inverse factors o, the decay samples and the response in one
    form per mode: the product quadrature's lag weights plus one pinning
    row P = sum_k c_k (quadrature row at t_k).  The initial state is o *
    (P . F) for forcing F, and row i of the response is the quadrature's
    row i plus decay_nodes[i] * o * P (rows(i); the endpoint rows are row
    n).  Once needed, it also holds the source at the zero state (the
    first Picard step) and the run limit per (max_iter, identity share).
    Build it once per (problem, grid): its _picard runs every Picard solve
    (solve_mild, control.regularized_W) and rows gives the steering
    functionals under exactly the same discretization.
    """

    def __init__(self, problem: ProblemSpec, grid: TimeGrid):
        if not math.isclose(grid.horizon, problem.horizon, rel_tol=1e-12):
            raise DomainError("grid horizon must match the problem horizon")
        self.problem = problem
        self.grid = grid
        coupling = problem.coupling
        lams, alpha = problem.model.lambdas, problem.alpha
        _check_admissible(problem.model, alpha, coupling)
        # one flow table for the nodes and the pins; each entry keeps the
        # bits it has in a table of its own (mittag_leffler_array)
        flow = ml_table(lams, alpha, 1.0, np.concatenate([grid.nodes, coupling.times]))
        self.decay_nodes, self.decay_at_pins = np.split(flow, [grid.n_steps + 1])
        self.o = _inverse_factors(coupling.weights, self.decay_at_pins)
        kernel = partial(ml_table, lams, alpha, alpha)
        lags = np.arange(grid.n_steps + 1) * grid.delta
        self._quadrature = ProductQuadrature(alpha, grid, kernel(lags))
        # the pinning row: sum_k c_k times the weight rows of the response
        # integral at t_k, which may sit strictly between nodes
        self.pinning = np.zeros((problem.n_modes, grid.n_steps + 1))
        for ck, tk in zip(coupling.weights, coupling.times):
            self.pinning += ck * singular_kernel_weights(alpha, kernel, grid, float(tk)).T
        self._run_limits: dict[tuple[int, float], int] = {}

    @cached_property
    def _zero_source(self) -> np.ndarray:
        """A read-only copy of the source at the zero state.

        A source that raises here leaves nothing cached, so the next solve
        calls it again.
        """
        zero = np.zeros((self.grid.n_steps + 1, self.problem.n_modes))
        source = np.array(_eval_source(self.problem, self.grid.nodes, zero))
        source.flags.writeable = False
        return source

    def _run_limit(self, max_iter: int, identity_share: float) -> int:
        """_transient_run of this problem, computed once per (max_iter, identity_share)."""
        key = (max_iter, identity_share)
        if key not in self._run_limits:
            self._run_limits[key] = _transient_run(
                self.problem, max_iter, identity_share=identity_share
            )
        return self._run_limits[key]

    def _pinned(self, forcing: np.ndarray) -> np.ndarray:
        """P . F: sum_k c_k times the response integral at t_k, per mode."""
        return np.einsum("mi,im->m", self.pinning, forcing)

    def response(self, forcing: np.ndarray) -> np.ndarray:
        """States of the linear problem driven by the sampled forcing."""
        u0 = self.o * self._pinned(forcing)
        return self.decay_nodes * u0[None, :] + self._quadrature(forcing)

    def rows(self, i: int) -> np.ndarray:
        """Per-mode weight rows of the forcing-to-state map at node i, gains excluded.

        Row m dotted with sampled mode-m forcing gives mode m of
        response(forcing)[i] up to the FFT's rounding: the quadrature's row
        i plus the pinning row routed through the flow and the inverse
        factor.  rows(n_steps) are the endpoint rows.
        """
        return self._quadrature.row(i) + (self.decay_nodes[i] * self.o)[:, None] * self.pinning

    def solve(
        self,
        control: SampledFn | None = None,
        *,
        raw_forcing: SampledFn | None = None,
        tol: float = SOLVE_TOL_DEFAULT,
        max_iter: int = SOLVE_MAX_ITER_DEFAULT,
    ) -> tuple[Trajectory, SolveReport]:
        """solve_mild on this assembly's (problem, grid)."""
        base = _forcing_base(self.problem, self.grid, control, raw_forcing)
        return self._picard(base, tol=tol, max_iter=max_iter)

    def _picard(
        self, base: np.ndarray, *, tol: float, max_iter: int, n: int | None = None
    ) -> tuple[Trajectory, SolveReport]:
        """Every Picard solve: u <- response(base + f(u)), plus f(u) / n when n is set.

        base is the sampled forcing.  Without n this is solve_mild, whose
        pinning gap is taken under the solver's quadrature; with n it is
        control.regularized_W, whose gap is interpolated (_pinning_gap).
        """
        problem, grid = self.problem, self.grid
        forcing = base
        zero = np.zeros(base.shape)

        def step(u: np.ndarray) -> np.ndarray:
            nonlocal forcing
            source = self._zero_source if u is zero else _eval_source(problem, grid.nodes, u)
            forcing = base + source
            response = self.response(forcing)
            if not np.isfinite(response).all() and np.abs(source).max() > np.abs(base).max():
                # the source outweighs the forcing: it failed, not the iteration
                sup = float(np.max(np.abs(source)))
                raise SourceError(f"the response to a finite source (sup {sup:.3g}) is non-finite")
            return response if n is None else response + source / n

        identity_share = 0.0 if n is None else 1.0 / n
        u, diffs = _fixed_point(
            step,
            zero,
            tol=tol,
            max_iter=max_iter,
            run_limit=self._run_limit(max_iter, identity_share),
        )
        if n is None:
            # final consistency of the pinning identity, under the same
            # quadrature; u[0] is o * (P . forcing), as the flow is
            # exactly 1 and the quadrature exactly 0 at node 0
            u0 = u[0]
            q = problem.coupling.weights @ self.decay_at_pins
            gap = u0 - (q * u0 + self._pinned(forcing))
            nonlocal_residual = float(np.sqrt(np.sum(gap * gap)))
        else:
            nonlocal_residual = _pinning_gap(problem, u, grid)
        control_sup = float(np.max(np.sqrt(np.sum(base * base, axis=1)))) if base.size else 0.0
        report = SolveReport(
            iterations=len(diffs),
            final_residual=diffs[-1],
            nonlocal_residual=nonlocal_residual,
            contraction_estimate=_ratio(diffs, 0.0),
            control_sup=control_sup,
        )
        return Trajectory(grid, u), report


def endpoint_response_rows(problem: ProblemSpec, grid: TimeGrid) -> np.ndarray:
    """The single-use form of ResponseAssembly.rows at the horizon, probed by perfbench."""
    return ResponseAssembly(problem, grid).rows(grid.n_steps)


def _forcing_base(
    problem: ProblemSpec,
    grid: TimeGrid,
    control: SampledFn | None,
    raw_forcing: SampledFn | None,
) -> np.ndarray:
    n_nodes = grid.n_steps + 1
    base = np.zeros((n_nodes, problem.n_modes))
    for label, signal, gains in (
        ("control", control, problem.control_gains),
        ("raw_forcing", raw_forcing, None),
    ):
        if signal is None:
            continue
        vals = np.asarray(signal.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (n_nodes, problem.n_modes):
            raise DomainError(
                f"{label} values must be ({n_nodes}, {problem.n_modes}), got {vals.shape}"
            )
        if signal.grid.n_steps != grid.n_steps or not math.isclose(
            signal.grid.horizon, grid.horizon, rel_tol=1e-12
        ):
            raise DomainError(f"{label} must live on the solve grid")
        base = base + (vals * gains[None, :] if gains is not None else vals)
    return base


def solve_mild(
    problem: ProblemSpec,
    grid: TimeGrid,
    control: SampledFn | None = None,
    *,
    raw_forcing: SampledFn | None = None,
    tol: float = SOLVE_TOL_DEFAULT,
    max_iter: int = SOLVE_MAX_ITER_DEFAULT,
) -> tuple[Trajectory, SolveReport]:
    """Picard iteration for the mild formulation, from the zero trajectory.

    control enters through the per-mode gains; raw_forcing is added as-is
    (the control module uses it to probe the solution map with arbitrary
    forcing).  Stops when the sup-norm update falls to tol; raises
    ConvergenceError carrying the observed contraction ratio otherwise,
    and SourceError naming the Picard iteration, node and time where the
    source turned non-finite.  To solve repeatedly on one grid, build a
    ResponseAssembly once and call its solve.
    """
    return ResponseAssembly(problem, grid).solve(
        control, raw_forcing=raw_forcing, tol=tol, max_iter=max_iter
    )


def _pinning_gap(problem: ProblemSpec, states: np.ndarray, grid: TimeGrid) -> float:
    """|u(0) - sum_k c_k u(t_k)| with u(t_k) linearly interpolated."""
    pin_sum = np.zeros(problem.n_modes)
    for ck, tk in zip(problem.coupling.weights, problem.coupling.times):
        j, theta = grid.locate(float(tk))
        u = states[j] if theta == 0.0 else (1.0 - theta) * states[j] + theta * states[j + 1]
        pin_sum += ck * u
    gap = states[0] - pin_sum
    return float(np.sqrt(np.sum(gap * gap)))


def verify_mild(
    problem: ProblemSpec,
    traj: Trajectory,
    control: SampledFn | None = None,
    raw_forcing: SampledFn | None = None,
) -> VerificationReport:
    """Residuals of a finished trajectory under an independent quadrature.

    The response integral is re-computed with the panel-midpoint product
    rule (exact power moments, kernel and data frozen at panel midpoints)
    rather than the solver's piecewise linear rule, and the pinning
    identity is re-checked by linear interpolation of the trajectory, so
    agreement is evidence about the trajectory, not about shared code.
    The rule's weights and kernel samples are its own; only the summation
    over lags, fraccalc.LagConvolution, is shared with the solver.
    """
    grid = traj.grid
    n = grid.n_steps
    delta = grid.delta
    lams, alpha = problem.model.lambdas, problem.alpha
    base = _forcing_base(problem, grid, control, raw_forcing)
    forcing = base + _eval_source(problem, grid.nodes, traj.states)

    # midpoint smooth-kernel samples at half-integer lags, times the exact
    # panel moments of the power factor, by distance
    mid_table = ml_table(lams, alpha, alpha, (np.arange(n) + 0.5) * delta)
    kern = mid_table * (_panel_moments(alpha, np.arange(n))[0] * delta ** alpha)[:, None]

    # node i sums panels j = 0..i-1 at lag distance i-j-1/2: the panel
    # averages at nodes 0..n-1 against the kernel at lags 1..n
    avg = np.zeros_like(forcing)
    avg[:-1] = 0.5 * (forcing[:-1] + forcing[1:])
    conv = LagConvolution(np.concatenate([np.zeros((1, problem.n_modes)), kern]))(avg)
    # at node 0 the flow is 1 and the sum 0, so the gap is exactly 0
    gap = traj.states - (ml_table(lams, alpha, 1.0, grid.nodes) * traj.initial + conv)
    node_residuals = np.sqrt(np.sum(gap * gap, axis=1))

    return VerificationReport(
        equation_residual=float(np.max(node_residuals)),
        nonlocal_residual=_pinning_gap(problem, traj.states, grid),
        node_residuals=node_residuals,
    )


def _green_values(problem: ProblemSpec, t: np.ndarray, s: np.ndarray, w: np.ndarray):
    """G(t_i, s_i) w_i off the singular set from one table per beta, in kernel_factors' bits."""
    lams, alpha, coupling = problem.model.lambdas, problem.alpha, problem.coupling
    o = build_O(problem.model, alpha, coupling)
    # lags t_k - s (pin by pin), then t - s, of the samples before each end
    ends = list(coupling.times) + [t]
    before = [s < end for end in ends]
    lags = np.concatenate([(end - s)[m] for end, m in zip(ends, before)])
    powers = np.array([lag ** (alpha - 1.0) for lag in lags.tolist()])
    kern = powers[:, None] * ml_table(lams, alpha, alpha, lags)
    parts = np.split(kern, np.cumsum([m.sum() for m in before])[:-1])
    decay = ml_table(lams, alpha, 1.0, t)
    out = np.zeros(w.shape)
    for ck, m, part in zip(coupling.weights, before, parts):
        out[m] += ck * decay[m] * o * (part * w[m])
    out[before[-1]] += parts[-1] * w[before[-1]]
    return out


def green_apply(
    problem: ProblemSpec, t: float, s: float, w: np.ndarray
) -> np.ndarray:
    """Apply the combined response kernel G(t, s) to a mode vector.

    G collects the direct response at lag t - s plus the pinning
    corrections routed through the inverse factors.  s must avoid the
    singular set {t} union {t_k}: there the kernel has no finite value.
    """
    horizon = problem.horizon
    if not (0.0 <= t <= horizon and 0.0 <= s <= horizon):
        raise DomainError("t and s must lie in [0, horizon]")
    w = np.asarray(w, dtype=float)
    if w.shape != (problem.n_modes,):
        raise DomainError("w must be a mode vector")
    tol = _SINGULAR_TOL * max(1.0, horizon)
    if abs(t - s) <= tol:
        raise DomainError("kernel is singular on the diagonal s = t")
    for tk in problem.coupling.times:
        if abs(s - tk) <= tol:
            raise DomainError(f"kernel is singular at the pinning time s = {tk}")
    one = np.array([t, s], dtype=float)[:, None]
    return _green_values(problem, one[0], one[1], w[None])[0]


def green_weighted_sup(
    problem: ProblemSpec, n_t: int = 16, n_s: int = 48
) -> float:
    """Sampled sup of (t - s)**(1 - alpha) * max-mode |G(t, s) e|.

    Sample points are placed at irrational-looking fractions so they never
    collide with the singular set; the pinning terms keep their own
    (t_k - s)**(alpha - 1) growth, which this weight does not cancel, so
    the reported sup documents the sampled grid only.
    """
    a, times = problem.horizon, problem.coupling.times
    t = np.repeat(a * (np.arange(n_t) + 0.61803398875) / n_t, n_s)
    s = t * np.tile(np.arange(n_s) + 0.38196601125, n_t) / n_s
    # skip what green_apply rejects: s on the diagonal or at a pinning time
    tol = _SINGULAR_TOL * max(1.0, a)
    keep = (np.abs(t - s) > tol) & np.all(np.abs(s[:, None] - times) > tol, axis=1)
    t, s = t[keep], s[keep]
    g = _green_values(problem, t, s, np.ones((t.size, problem.n_modes)))
    weights = np.array([d ** (1.0 - problem.alpha) for d in (t - s).tolist()])
    return float(np.max(weights * np.max(np.abs(g), axis=1), initial=0.0))


def sine_collocation_source(n_modes: int, collocation: int = 64) -> Nonlinearity:
    """Bounded sine source evaluated by collocation in the sine basis.

    Represents u(x) on (0, pi) from its first n_modes coefficients,
    applies x -> sin(x) pointwise with the 1/(t**2 + 1) decay factor, and
    projects back.  Pointwise 1-Lipschitz transforms preserve the discrete
    norms, so the declared constants are 1 and sqrt(pi).

    The Lipschitz constant 1 holds per node for the Euclidean length of
    the mode vector.  In the max-abs norm over nodes and modes, which
    ``_fixed_point`` measures, it can reach sqrt(n_modes): 20,000 random
    pairs of states reached 1.20 at 8 modes.

    Both sine transforms (DST-I) are products with one precomputed
    (collocation x collocation) sine matrix, of which a call uses the rows
    of its modes; all rows of a call go through one product each way, so a
    row's bits may differ by rounding with the number of rows around it.
    The decay factor is constant along a row, so it divides the n_modes
    result columns after the projection rather than the collocation points
    before it.
    """
    if collocation < n_modes:
        raise DomainError("collocation must be at least the mode count")
    k = int(collocation)
    # sin(pi m j / (k + 1)) with the integer product reduced mod 2 (k + 1)
    # before scaling, so large products lose no argument bits; rows past
    # n_modes serve states with more coefficients, as the DST did
    j = np.arange(1, k + 1)
    sines = np.sin(math.pi * (np.outer(j, j) % (2 * (k + 1))) / (k + 1))
    synthesis = 2.0 * math.sqrt(1.0 / (2.0 * math.pi)) * sines  # modes -> points
    analysis = 2.0 * math.sqrt(math.pi / 2.0) / (k + 1) * sines  # points -> modes

    def fn(t, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        t = np.asarray(t, dtype=float)
        n = u.shape[-1]
        point_vals = u @ synthesis[:n]
        np.sin(point_vals, out=point_vals)
        return point_vals @ analysis[:n].T / (t * t + 1.0)[..., None]

    return Nonlinearity(fn=fn, lipschitz_bound=1.0, source_bound=math.sqrt(math.pi))


def mode_gain_source(gains: np.ndarray) -> Nonlinearity:
    """Linear diagonal source f(t, u) = gains * u, on one row or all rows."""
    gains = np.atleast_1d(np.asarray(gains, dtype=float))
    if gains.ndim != 1 or not np.all(np.isfinite(gains)):
        raise DomainError("gains must be a finite vector")

    def fn(t, u: np.ndarray) -> np.ndarray:
        return gains * u

    return Nonlinearity(
        fn=fn, lipschitz_bound=float(np.max(np.abs(gains))), source_bound=0.0
    )
