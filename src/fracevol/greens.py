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
# relative to the iterate's sup, an update this small that stops shrinking is rounding
_ROUNDING_FLOOR = 8 * np.finfo(float).eps


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
    """nonlocal_residual: for solve_mild, the pinning identity under the solver's
    quadrature, rounding by construction as u(0) = o * (P . F), so verify's
    interpolated gap is the independent check; for regularized_W, that gap.
    control_sup: _sup_norm of the whole forcing base, so in simulate the steady forcing's.
    """

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

    Sizes are _sup_norm's, in which f is L-Lipschitz per node.  The
    response is diagonal in the modes and every kernel is at most
    t**(alpha - 1) / Gamma(alpha), so for the step u <- (R +
    identity_share) f(u), R the response integral without its pinning
    correction, the n-th update is at most the first one's size times

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


def _check_horizon(problem: ProblemSpec, grid: TimeGrid, what: str) -> None:
    """DomainError naming both horizons unless grid's is problem's to 1e-12 relative."""
    if not math.isclose(grid.horizon, problem.horizon, rel_tol=1e-12):
        raise DomainError(
            f"{what} horizon {grid.horizon!r} is not the problem's {problem.horizon!r}"
        )


def _check_tol(tol: float) -> None:
    """Reject a stopping tolerance that is not positive and finite.

    nan and negative values are never met, and inf is met by any first
    update, however far from the fixed point.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")


def _sup_norm(x: np.ndarray) -> float:
    """The state space's norm: the largest Euclidean row length of (nodes, modes) x.

    Finite for a finite x whose size is below the float ceiling: an
    overflowing squared sum is taken again on x scaled by its largest |entry|.
    """
    size = math.sqrt(float(np.max(np.einsum("ij,ij->i", x, x))))
    if math.isinf(size) and np.isfinite(x).all():
        size = float(np.abs(x).max())
        return size * _sup_norm(x / size)
    return size


def _secant(u: np.ndarray, r: np.ndarray, u_prev: np.ndarray, r_prev: np.ndarray) -> np.ndarray:
    """The depth-1 Anderson iterate of _fixed_point from the last two (step, update) pairs.

    A function, so that its temporaries are freed before the next step runs.
    """
    with np.errstate(all="ignore"):
        dr = r - r_prev
        dd = float(np.vdot(dr, dr))
        g = float(np.vdot(dr, r)) / dd if dd > 0.0 else 0.0
    return u - g * (u - u_prev) if math.isfinite(g) else u


def _fixed_point(
    step: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    *,
    tol: float,
    max_iter: int,
    run_limit: int,
    name: str = "Picard iteration",
    mix: bool = False,
) -> tuple[np.ndarray, list[float]]:
    """Iterate step from start until the update's _sup_norm is <= tol.

    The update of step k is r_k = step(x_k) - x_k; the run returns step(x_k)
    once _sup_norm(r_k) <= tol.  Without mix the next iterate is step(x_k).
    With mix (steering passes only) it is the depth-1 Anderson (secant) step
    of Walker & Ni (2011), step(x_k) - g (step(x_k) - step(x_{k-1})) with
    g = <dr, r_k> / <dr, dr> and dr = r_k - r_{k-1}, or step(x_k) when dr = 0
    or g overflows: the same fixed point in fewer steps.
    name is what messages call one step.  Returns the last step's value and
    the update history.  Raises ConvergenceError with both when max_iter
    updates do not get there, and fails fast when they never will: on a
    non-finite iterate, after run_limit consecutive growing updates (see
    _transient_run), or when an update is no smaller than the one before
    and at most 8 eps times the step's _sup_norm (the rounding floor).
    A DomainError or ConvergenceError from step k comes back prefixed
    "<name> k: "; a ConvergenceError then counts k iterations, the rest the step's own.
    """
    if max_iter < 1:
        raise DomainError("max_iter must be positive")
    _check_tol(tol)
    x = start
    diffs: list[float] = []
    growing = 0
    last = ()  # (step(x_{k-1}), r_{k-1}) when mixing
    for k in range(1, max_iter + 1):
        with np.errstate(all="ignore"):  # overflow fails a check, not as a warning
            try:
                u = step(x)
            except (DomainError, ConvergenceError) as exc:
                exc.args = (f"{name} {k}: {exc}",)
                if isinstance(exc, ConvergenceError):
                    exc.iterations = k
                raise
            diff = _sup_norm(u - x)
        growing = growing + 1 if diffs and diff > diffs[-1] else 0
        diffs.append(diff)
        if diff <= tol:
            return u, diffs
        if not math.isfinite(diff):
            message = f"{name} diverged to a non-finite iterate"
            break
        if growing >= run_limit:
            message = f"{name} diverged: {growing} consecutive growing updates"
            break
        if len(diffs) > 1 and diffs[-2] <= diff <= _ROUNDING_FLOOR * _sup_norm(u):
            message = f"{name} stalled at the rounding floor: update {diff:.3e} > tol {tol:.3e}"
            break
        if mix:  # only a mixed run keeps updates alive across steps
            r = u - x
            x, last = (_secant(u, r, *last) if last else u), (u, r)
        else:
            x = u
    else:
        message = f"{name} did not reach tolerance"
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
    Build it once per (problem, grid): its solve runs every Picard solve
    (solve_mild, control.regularized_W, each steering pass) and rows gives
    the steering functionals under exactly the same discretization.
    """

    def __init__(self, problem: ProblemSpec, grid: TimeGrid):
        _check_horizon(problem, grid, "grid")
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
        base: np.ndarray,
        *,
        tol: float = SOLVE_TOL_DEFAULT,
        max_iter: int = SOLVE_MAX_ITER_DEFAULT,
        n: int | None = None,
    ) -> tuple[Trajectory, SolveReport]:
        """Every Picard solve: u <- response(base + f(u)), plus f(u) / n when n is set.

        base is the sampled forcing, a finite (n_nodes, n_modes) array, and n a
        positive integer, else DomainError.  Without n this is solve_mild; with
        n, control.regularized_W (SolveReport says how their pinning gaps differ).
        """
        problem, grid = self.problem, self.grid
        shape = (grid.n_steps + 1, problem.n_modes)
        if np.shape(base) != shape or not np.isfinite(base).all():
            raise DomainError(f"base must be a finite {shape} array, got shape {np.shape(base)}")
        if n is not None and (int(n) != n or n < 1):
            raise DomainError("n must be a positive integer")
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

        run_limit = self._run_limit(max_iter, 0.0 if n is None else 1.0 / n)
        u, diffs = _fixed_point(step, zero, tol=tol, max_iter=max_iter, run_limit=run_limit)
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
        report = SolveReport(
            iterations=len(diffs),
            final_residual=diffs[-1],
            nonlocal_residual=nonlocal_residual,
            contraction_estimate=_ratio(diffs, 0.0),
            control_sup=_sup_norm(base),
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
        # the shape check fixed the signal's n_steps (SampledFn has a row per node)
        _check_horizon(problem, signal.grid, label)
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
    base = _forcing_base(problem, grid, control, raw_forcing)
    return ResponseAssembly(problem, grid).solve(base, tol=tol, max_iter=max_iter)


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
    over lags, fraccalc.LagConvolution, is shared with the solver.  A
    horizon or mode count other than the problem's raises DomainError.
    """
    grid = traj.grid
    _check_horizon(problem, grid, "trajectory")
    if (m := traj.states.shape[1]) != problem.n_modes:
        raise DomainError(f"trajectory mode count {m} is not the problem's {problem.n_modes}")
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


def sine_collocation_source(n_modes: int) -> Nonlinearity:
    """Bounded sine source evaluated by collocation in the sine basis.

    Represents u(x) on (0, pi) from its first n_modes coefficients,
    applies x -> sin(x) pointwise with the 1/(t**2 + 1) decay factor, and
    projects back.  Pointwise 1-Lipschitz transforms preserve the discrete
    norms, so the declared constants are 1 and sqrt(pi), per node for the
    Euclidean length of the mode vector (_sup_norm's).

    Both sine transforms (DST-I) are products with one precomputed sine
    matrix at 64 points (so at most 64 modes), of which a call uses the
    rows of its modes; all rows of a call go through one product each way,
    so a row's bits may differ by rounding with the number of rows around it.
    The decay factor is constant along a row, so it divides the n_modes
    result columns after the projection rather than the collocation points
    before it.
    """
    k = 64
    if n_modes > k:
        raise DomainError(f"the sine source serves at most {k} modes, got {n_modes}")
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
