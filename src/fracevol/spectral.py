"""Diagonal spectral realization of the evolution operators.

The generator is represented by its eigenvalues: a state is a vector of
coefficients against a fixed orthonormal eigenbasis, and every operator
acts mode by mode.  The two one-parameter families that drive fractional
evolution, their classical resolvent, and the norm constants used by the
admissibility checks all reduce to Mittag-Leffler tables, one per
(alpha, beta), filled by ``ml_table``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .fraccalc import SampledFn, TimeGrid, _check_order, rl_integral
from .specfun import gamma, mittag_leffler_array


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues of the negated generator plus a basis description.

    All rates must be positive and strictly increasing: the generator is
    dissipative with spectral gap equal to the first rate.
    """

    lambdas: np.ndarray
    basis_label: str = "unspecified orthonormal basis"

    def __post_init__(self) -> None:
        lams = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        if lams.ndim != 1 or lams.size < 1:
            raise DomainError("need a one-dimensional, nonempty eigenvalue list")
        if not np.all(np.isfinite(lams)):
            raise DomainError("eigenvalues must be finite")
        if not np.all(lams > 0.0):
            raise DomainError("eigenvalues must be positive (dissipative model)")
        if lams.size > 1 and not np.all(np.diff(lams) > 0.0):
            raise DomainError("eigenvalues must be strictly increasing")
        object.__setattr__(self, "lambdas", lams)

    @property
    def n_modes(self) -> int:
        return self.lambdas.size

    @classmethod
    def dirichlet_laplacian(cls, n_modes: int) -> "SpectralModel":
        """Second derivative with zero boundary values on (0, pi): rates n**2."""
        if n_modes < 1:
            raise DomainError("need at least one mode")
        n = np.arange(1, n_modes + 1, dtype=float)
        return cls(n * n, basis_label="Dirichlet sine basis on (0, pi)")


class MsEstimate(NamedTuple):
    """Sup-norm data for the singular operator family.

    weighted: sup of t**(1-alpha) * operator norm, finite for all time.
    raw_grid_sup: plain sup of the operator norm over the scan grid; this
    one diverges like t**(alpha-1) as the scan approaches t = 0 and is
    reported only to document that blow-up.
    """

    weighted: float
    raw_grid_sup: float


def _as_modes(model: SpectralModel, x) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(x, dtype=float))
    if vec.shape != (model.n_modes,):
        raise DomainError(
            f"mode vector of length {vec.size} does not match {model.n_modes} modes"
        )
    if not np.all(np.isfinite(vec)):
        raise DomainError("mode coefficients must be finite")
    return vec


def ml_table(lambdas, alpha: float, beta: float, times) -> np.ndarray:
    """E_{alpha,beta}(-lambda_n * t**alpha) for every time and rate.

    Row i holds times[i], column n the rate lambdas[n].  t**alpha is the
    scalar float power, so an entry is bit for bit what the scalar
    mittag_leffler gives at that time and rate.  The whole table goes
    through one mittag_leffler_array call.
    """
    alpha = _check_order(alpha, allow_one=True)
    lams = np.atleast_1d(np.asarray(lambdas, dtype=float))
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    ok = np.isfinite(ts) & (ts >= 0.0)
    if not ok.all():
        raise DomainError(f"time must be finite and nonnegative, got {float(ts[~ok][0])!r}")
    t_alpha = np.array([float(t) ** alpha for t in ts])
    return mittag_leffler_array(alpha, beta, -lams[None, :] * t_alpha[:, None])


def decay_factors(model: SpectralModel, alpha: float, t: float) -> np.ndarray:
    """Per-mode multipliers E_alpha(-lambda_n * t**alpha) of the flow at time t."""
    return ml_table(model.lambdas, alpha, 1.0, t)[0]


def apply_T(model: SpectralModel, alpha: float, t: float, x) -> np.ndarray:
    """Propagate a coefficient vector with the order-alpha flow; exact at t=0."""
    vec = _as_modes(model, x)
    if float(t) == 0.0:
        _check_order(alpha, allow_one=True)
        return vec.copy()
    return decay_factors(model, alpha, t) * vec


def kernel_factors(model: SpectralModel, alpha: float, t: float) -> np.ndarray:
    """Per-mode values t**(alpha-1) * E_{alpha,alpha}(-lambda_n t**alpha), t > 0."""
    alpha = _check_order(alpha, allow_one=True)
    if t <= 0.0:
        raise DomainError(f"kernel time must be positive, got {t!r}")
    return t ** (alpha - 1.0) * ml_table(model.lambdas, alpha, alpha, t)[0]


def apply_S(model: SpectralModel, alpha: float, t: float, x) -> np.ndarray:
    """Apply the singular convolution-kernel family at time t > 0."""
    vec = _as_modes(model, x)
    return kernel_factors(model, alpha, t) * vec


def resolvent(model: SpectralModel, alpha: float, nu: float, x) -> np.ndarray:
    """(nu**alpha + lambda_n)**(-1) per mode: the Laplace transform of apply_S."""
    alpha = _check_order(alpha, allow_one=True)
    nu = float(nu)
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"transform rate nu must be positive, got {nu!r}")
    vec = _as_modes(model, x)
    return vec / (nu ** alpha + model.lambdas)


def estimate_MT(
    model: SpectralModel, alpha: float, horizon: float, scan_points: int = 257
) -> float:
    """Sup over [0, horizon] of the mode-max flow magnitude.

    For a dissipative model the sup is attained at t = 0 and equals 1;
    the dense scan confirms rather than assumes that.
    """
    alpha = _check_order(alpha, allow_one=True)
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    times = np.linspace(0.0, horizon, scan_points)[1:]
    table = ml_table(model.lambdas, alpha, 1.0, times)
    return float(np.max(np.abs(table), initial=1.0))  # t = 0 included analytically


def estimate_MS(
    model: SpectralModel, alpha: float, horizon: float, scan_points: int = 257
) -> MsEstimate:
    """Weighted and raw sup of the singular family over (0, horizon]."""
    alpha = _check_order(alpha, allow_one=True)
    if horizon <= 0.0:
        raise DomainError("horizon must be positive")
    times = np.linspace(0.0, horizon, scan_points)[1:]
    mode_max = np.max(np.abs(ml_table(model.lambdas, alpha, alpha, times)), axis=1)
    # the t -> 0 limit 1/Gamma(alpha) is a maximum for dissipative models
    weighted = float(np.max(mode_max, initial=1.0 / gamma(alpha)))
    raw = float(np.max(times ** (alpha - 1.0) * mode_max, initial=0.0))
    return MsEstimate(weighted=weighted, raw_grid_sup=raw)


@dataclass(frozen=True)
class OperatorIdentityReport:
    """Node-wise defect of the integral characterization of the flow."""

    sup_residual: float
    node_residuals: np.ndarray


def check_solution_operator_identity(
    model: SpectralModel, alpha: float, x, grid: TimeGrid
) -> OperatorIdentityReport:
    """Residual of u(t) = x + I^alpha (A u)(t) along u(t) = flow(t) x.

    Per mode the identity reads u_n(t) - x_n + lambda_n times the
    fractional integral of u_n; rl_integral takes it with the same product
    quadrature as the solver, so this doubles as a scheme check.
    """
    alpha = _check_order(alpha, allow_one=True)
    vec = _as_modes(model, x)
    states = ml_table(model.lambdas, alpha, 1.0, grid.nodes) * vec[None, :]
    integral = rl_integral(alpha, SampledFn(grid, states)).values
    defect = states - vec[None, :] + integral * model.lambdas[None, :]
    node_residuals = np.max(np.abs(defect), axis=1)
    return OperatorIdentityReport(
        sup_residual=float(np.max(node_residuals)), node_residuals=node_residuals
    )
