"""Accuracy targets fixed package-wide.

Single source of truth: tests and internal accept/reject gates read these
values instead of restating literals.

==========================  =========  ====================================
constant                    value      meaning
==========================  =========  ====================================
GAMMA_REL_TOL               1e-13      gamma(), relative, x > 0
ML_REL_TOL                  1e-10      mittag_leffler(), relative, |z| <= 50
ML_IDENTITY_TOL             1e-12      closed-form identity checks
ML_RECURRENCE_TOL           1e-10      shift recurrence check
QUADRATURE_MATCH_TOL        1e-12      alternative quadrature paths agreement
CAPUTO_CONST_TOL            1e-14      Caputo derivative of a constant
RESOLVENT_LAPLACE_TOL       1e-4       resolvent vs truncated Laplace quadrature
OPERATOR_IDENTITY_TOL       1e-3       integrated-form residual at 512 steps
NEUMANN_CLOSED_FORM_TOL     1e-10      build_O vs 1 / (1 - q), per mode
SOLVE_TOL_DEFAULT           1e-8       Picard stop, update's sup norm
SOLVE_MAX_ITER_DEFAULT      200        Picard iteration cap
STEER_TOL_DEFAULT           1e-9       steering pass stop, update's sup norm
STEER_MAX_OUTER_DEFAULT     50         outer steering iteration cap
==========================  =========  ====================================

Sup norm: the largest Euclidean length of a node's mode vector (greens._sup_norm).
"""
from __future__ import annotations

GAMMA_REL_TOL = 1e-13
ML_REL_TOL = 1e-10
ML_IDENTITY_TOL = 1e-12
ML_RECURRENCE_TOL = 1e-10
QUADRATURE_MATCH_TOL = 1e-12
CAPUTO_CONST_TOL = 1e-14
RESOLVENT_LAPLACE_TOL = 1e-4
OPERATOR_IDENTITY_TOL = 1e-3
NEUMANN_CLOSED_FORM_TOL = 1e-10
SOLVE_TOL_DEFAULT = 1e-8
SOLVE_MAX_ITER_DEFAULT = 200
STEER_TOL_DEFAULT = 1e-9
STEER_MAX_OUTER_DEFAULT = 50

# internal accept gates for the Mittag-Leffler evaluation regimes; kept a
# couple of orders tighter than ML_REL_TOL so regime hand-off cannot eat
# the public tolerance
ML_TAYLOR_ACCEPT = 5e-13
ML_ASYMP_ACCEPT = 1e-13
