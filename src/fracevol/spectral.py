"""Diagonal spectral realization of the evolution operators.

The generator is represented by its eigenvalues: a state is a vector of
coefficients against a fixed orthonormal eigenbasis, and every operator
acts mode by mode.  The two one-parameter families that drive fractional
evolution and their classical resolvent reduce to Mittag-Leffler tables,
one per (alpha, beta), filled by ``ml_table``.

Their sup norms are closed forms, not scans.  For 0 < alpha <= 1 both
E_alpha(-x) and E_{alpha,alpha}(-x) are completely monotone on x >= 0
(Pollard, Bull. AMS 54, 1948; Schneider, Expo. Math. 14, 1996), so on a
dissipative model they lie in [0, 1] and [0, 1/Gamma(alpha)] and take
their largest value at t = 0.  The admissibility check uses the first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fraccalc import SampledFn, TimeGrid, _check_order, rl_integral
from .specfun import mittag_leffler_array


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


def resolvent(model: SpectralModel, alpha: float, nu: float, x) -> np.ndarray:
    """(nu**alpha + lambda_n)**(-1) per mode.

    The Laplace transform at nu of the kernel
    t**(alpha-1) * E_{alpha,alpha}(-lambda_n t**alpha).
    """
    alpha = _check_order(alpha, allow_one=True)
    nu = float(nu)
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"transform rate nu must be positive, got {nu!r}")
    vec = _as_modes(model, x)
    return vec / (nu ** alpha + model.lambdas)


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
