"""Exception types shared across the package.

Each maps to one CLI exit code; see fracevol.cli.
"""
from __future__ import annotations

__all__ = [
    "DomainError",
    "SourceError",
    "ConfigError",
    "AdmissibilityError",
    "ConvergenceError",
    "UnsupportedRegimeError",
]


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class SourceError(DomainError):
    """The source term returned a misshapen or non-finite value."""


class ConfigError(ValueError):
    """A run configuration or serialized input could not be parsed or validated."""


class AdmissibilityError(ValueError):
    """The nonlocal condition violates the smallness requirement.

    The flow's sup is 1, so the inverse (I - sum_k c_k T(t_k))^{-1} is
    only constructed when sum_k |c_k| < 1.  ``margin`` records
    1 - sum_k |c_k|, which is <= 0 whenever this error is raised.
    """

    def __init__(self, margin: float):
        self.margin = float(margin)
        super().__init__(
            f"nonlocal condition inadmissible: margin 1 - sum|c_k| = {self.margin:.6g} "
            "is not positive"
        )


class ConvergenceError(RuntimeError):
    """An iterative solve failed to reach its tolerance.

    Carries the observed contraction ratio so callers can tell a slow
    contraction from a genuinely expanding iteration.
    """

    def __init__(self, message: str, *, iterations: int, final_residual: float,
                 contraction_estimate: float, trace: list[float]):
        self.iterations = int(iterations)
        self.final_residual = float(final_residual)
        self.contraction_estimate = float(contraction_estimate)
        self.trace = list(trace)  # per-iteration residual history
        super().__init__(
            f"{message} (iterations={self.iterations}, "
            f"final_residual={self.final_residual:.3e}, "
            f"contraction_estimate={self.contraction_estimate:.3f})"
        )


class UnsupportedRegimeError(ValueError):
    """The requested computation is outside the supported parameter regime.

    Raised e.g. for steering with alpha <= 1/2, where the squared
    endpoint kernel is not integrable and no Gramian exists.
    """
