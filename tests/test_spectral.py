"""Tests for the diagonal spectral operator layer."""

import math

import numpy as np
import pytest

import oracles
from fracevol.constants import OPERATOR_IDENTITY_TOL, RESOLVENT_LAPLACE_TOL
from fracevol.errors import DomainError
from fracevol.fraccalc import TimeGrid
from fracevol.spectral import (
    SpectralModel,
    apply_T,
    check_solution_operator_identity,
    decay_factors,
    ml_table,
    resolvent,
)
from fracevol.specfun import gamma, mittag_leffler


def model(*rates):
    return SpectralModel(np.array(rates, dtype=float))


# -------------------------------------------------------------------- domain


def test_model_validation():
    with pytest.raises(DomainError):
        model()
    with pytest.raises(DomainError):
        model(1.0, 1.0)
    with pytest.raises(DomainError):
        model(2.0, 1.0)
    with pytest.raises(DomainError):
        model(0.0, 1.0)
    with pytest.raises(DomainError):
        model(-1.0, 2.0)
    m = model(1.0, 4.0, 9.0)
    assert m.n_modes == 3


def test_dirichlet_factory():
    m = SpectralModel.dirichlet_laplacian(5)
    assert np.array_equal(m.lambdas, np.array([1.0, 4.0, 9.0, 16.0, 25.0]))
    assert "sine" in m.basis_label


def test_mode_vector_shape_checked():
    m = model(1.0, 2.0)
    with pytest.raises(DomainError):
        apply_T(m, 0.5, 1.0, np.ones(3))
    with pytest.raises(DomainError):
        apply_T(m, 0.5, 1.0, np.array([1.0, np.inf]))


# ------------------------------------------------------------------ operators


def test_decay_copies_state_at_time_zero():
    m = model(1.0, 50.0)
    x = np.array([2.0, -3.0])
    out = apply_T(m, 0.6, 0.0, x)
    assert np.array_equal(out, x)
    assert out is not x


def test_decay_matches_exponential_at_order_one():
    m = model(1.0, 2.0)
    out = apply_T(m, 1.0, 0.5, np.ones(2))
    assert out[0] == pytest.approx(math.exp(-0.5), rel=1e-14)
    assert out[1] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_decay_matches_series_oracle():
    m = model(2.0)
    t, alpha = 0.5, 0.75
    ref = oracles.ml_oracle(alpha, 1.0, -2.0 * t ** alpha)
    assert apply_T(m, alpha, t, np.ones(1))[0] == pytest.approx(ref, rel=1e-12)


def test_decay_requires_nonnegative_time():
    with pytest.raises(DomainError):
        apply_T(model(1.0), 0.5, -0.1, np.ones(1))


def test_resolvent_closed_form():
    m = model(1.0, 3.0)
    out = resolvent(m, 0.5, 1.0, np.array([2.0, 4.0]))
    assert out[0] == pytest.approx(1.0, rel=1e-15)
    assert out[1] == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(DomainError):
        resolvent(m, 0.5, 0.0, np.ones(2))


def test_resolvent_is_laplace_transform_of_kernel():
    for alpha in (0.5, 0.75):
        for nu in (1.0, 2.0, 5.0):
            for lam in (1.0, 4.0):
                lhs = resolvent(model(lam), alpha, nu, np.ones(1))[0]
                rhs = oracles.laplace_of_resolvent_kernel(alpha, lam, nu, 16.0 / nu)
                assert lhs == pytest.approx(rhs, rel=RESOLVENT_LAPLACE_TOL)


def test_decay_strong_continuity_near_zero():
    # |T(h)x - x| <= lam * h**a / gamma(1+a) (1 + o(1)) for one mode
    lam, alpha = 4.0, 0.6
    m = model(lam)
    x = np.ones(1)
    prev = None
    for h in (1e-2, 1e-3, 1e-4):
        gap = abs(apply_T(m, alpha, h, x)[0] - 1.0)
        assert gap <= 1.1 * lam * h ** alpha / gamma(1.0 + alpha)
        if prev is not None:
            assert gap < prev
        prev = gap


def test_operators_commute_with_diagonal_coefficients():
    m = model(1.0, 4.0, 9.0)
    x = np.array([0.3, -1.2, 2.0])
    scaled_first = apply_T(m, 0.7, 0.4, m.lambdas * x)
    scaled_last = m.lambdas * apply_T(m, 0.7, 0.4, x)
    assert np.array_equal(scaled_first, scaled_last)


# ---------------------------------------------------------------- ML table


def test_ml_table_equals_scalar_evaluation_bit_for_bit():
    rng = np.random.default_rng(11)
    lams = np.sort(rng.uniform(0.1, 80.0, 5))
    times = np.concatenate([[0.0], rng.uniform(0.0, 2.0, 9)])
    for alpha in (0.45, 0.75, 1.0):
        for beta in (1.0, alpha):
            table = ml_table(lams, alpha, beta, times)
            assert table.shape == (times.size, lams.size)
            ref = np.array(
                [[mittag_leffler(alpha, beta, -lam * float(t) ** alpha) for lam in lams]
                 for t in times]
            )
            assert np.array_equal(table, ref)


def test_decay_factors_are_table_rows():
    m = model(1.0, 4.0, 9.0)
    alpha = 0.7
    for t in (0.0, 0.37, 1.9):
        assert np.array_equal(decay_factors(m, alpha, t), ml_table(m.lambdas, alpha, 1.0, [t])[0])


def test_ml_table_rejects_negative_or_nonfinite_time():
    for bad in (-0.1, math.inf, math.nan):
        with pytest.raises(DomainError, match="time"):
            ml_table([1.0, 4.0], 0.75, 1.0, [0.5, bad])


def test_ml_table_rejects_order_zero():
    with pytest.raises(DomainError):
        ml_table([1.0, 4.0], 0.0, 1.0, [0.5])


@pytest.mark.parametrize("alpha", [0.3, 0.4, 0.6, 0.75, 0.9, 0.99, 1.0])
def test_ml_table_sups_are_the_closed_forms(alpha):
    # E_alpha(-x) and E_{alpha,alpha}(-x) are completely monotone, so on a
    # dissipative model their sups over t >= 0 are 1 and 1/Gamma(alpha),
    # taken at t = 0, and no entry is negative
    times = np.linspace(0.0, 2.0, 257)
    for beta, sup in ((1.0, 1.0), (alpha, 1.0 / gamma(alpha))):
        table = ml_table([1.0, 9.0, 100.0, 4096.0], alpha, beta, times)
        assert np.all(table >= 0.0)
        assert np.all(table <= sup)
        assert np.all(table[0] == table.max())
        assert table[0, 0] == pytest.approx(sup, rel=1e-15)


# ----------------------------------------------------- integrated-form check


def test_operator_identity_single_mode():
    m = model(1.0)
    rep = check_solution_operator_identity(m, 0.75, np.ones(1), TimeGrid(1.0, 512))
    assert rep.sup_residual <= OPERATOR_IDENTITY_TOL


def test_operator_identity_refines():
    m = model(1.0)
    r_coarse = check_solution_operator_identity(m, 0.75, np.ones(1), TimeGrid(1.0, 128))
    r_fine = check_solution_operator_identity(m, 0.75, np.ones(1), TimeGrid(1.0, 512))
    order = math.log(r_coarse.sup_residual / r_fine.sup_residual) / math.log(4.0)
    assert order >= 0.9


def test_operator_identity_classical_limit():
    m = model(1.0)
    rep = check_solution_operator_identity(m, 1.0, np.ones(1), TimeGrid(1.0, 512))
    assert rep.sup_residual <= 1e-6


def test_operator_identity_multi_mode():
    m = SpectralModel.dirichlet_laplacian(4)
    x = np.array([1.0, -0.5, 0.25, 0.125])
    rep = check_solution_operator_identity(m, 0.75, x, TimeGrid(1.0, 512))
    assert rep.sup_residual <= OPERATOR_IDENTITY_TOL
    assert rep.node_residuals.shape == (513,)


def test_operator_identity_zero_state():
    m = model(2.0)
    rep = check_solution_operator_identity(m, 0.6, np.zeros(1), TimeGrid(1.0, 64))
    assert rep.sup_residual == 0.0
