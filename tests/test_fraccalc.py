"""Tests for the discrete fractional calculus layer.

Closed-form targets come from the power-rule formulas; everything else is
checked against the high-precision quadrature oracles in oracles.py or
against refinement behavior.
"""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracevol.errors import DomainError
from fracevol.fraccalc import (
    LagConvolution,
    ProductQuadrature,
    SampledFn,
    TimeGrid,
    _fast_len,
    _panel_moments,
    _uniform_kernel,
    caputo_derivative,
    rl_integral,
    singular_convolution_all,
    singular_kernel_weights,
)
from fracevol.constants import CAPUTO_CONST_TOL, QUADRATURE_MATCH_TOL
from fracevol.specfun import gamma, mittag_leffler
from fracevol.spectral import SpectralModel, ml_table


def grid_fn(horizon, n, func):
    g = TimeGrid(horizon, n)
    return g, SampledFn(g, func(g.nodes))


# ---------------------------------------------------------------- domain types


def test_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid(0.0, 8)
    with pytest.raises(DomainError):
        TimeGrid(-1.0, 8)
    with pytest.raises(DomainError):
        TimeGrid(1.0, 0)
    g = TimeGrid(2.0, 4)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert g.delta == 0.5


def test_sampled_fn_rejects_a_scalar_or_a_misfit_length():
    with pytest.raises(DomainError, match=r"expected 5 samples, got shape \(\)"):
        SampledFn(TimeGrid(1.0, 4), 3.0)
    with pytest.raises(DomainError, match=r"expected 5 samples, got shape \(4, 2\)"):
        SampledFn(TimeGrid(1.0, 4), np.ones((4, 2)))


def test_grid_locate_snaps_to_nodes():
    g = TimeGrid(1.0, 512)
    for i in (0, 1, 255, 512):
        j, theta = g.locate(g.nodes[i])
        assert (j, theta) == (i, 0.0)
    j, theta = g.locate(0.3)
    assert j == 153 and 0.0 < theta < 1.0
    with pytest.raises(DomainError):
        g.locate(1.5)
    with pytest.raises(DomainError):
        g.locate(-0.1)


def test_sampled_fn_validation():
    g = TimeGrid(1.0, 4)
    with pytest.raises(DomainError):
        SampledFn(g, np.zeros(4))
    with pytest.raises(DomainError):
        SampledFn(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))
    f = SampledFn(g, np.zeros((5, 3)))
    assert f.values.shape == (5, 3)
    assert not f.node0_extrapolated


def test_order_validation():
    g, f = grid_fn(1.0, 8, lambda t: t)
    for bad in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(DomainError):
            rl_integral(bad, f)
    with pytest.raises(DomainError):
        caputo_derivative(1.0, f)  # derivatives stay strictly below 1


# ------------------------------------------------------------ integral, exact


def test_rl_integral_of_zero():
    g, f = grid_fn(1.0, 16, lambda t: 0.0 * t)
    assert np.all(rl_integral(0.5, f).values == 0.0)


def test_rl_integral_constant_closed_form():
    # product quadrature is exact for piecewise linear data
    g, f = grid_fn(1.0, 64, lambda t: np.ones_like(t))
    out = rl_integral(0.5, f).values
    for i, t in enumerate(g.nodes):
        ref = oracles.frac_integral_power(0.5, 0.0, t) if t > 0 else 0.0
        assert out[i] == pytest.approx(ref, abs=1e-13, rel=1e-12)


def test_rl_integral_linear_closed_form():
    g, f = grid_fn(1.0, 64, lambda t: t)
    out = rl_integral(0.75, f).values
    for i, t in enumerate(g.nodes):
        ref = oracles.frac_integral_power(0.75, 1.0, t) if t > 0 else 0.0
        assert out[i] == pytest.approx(ref, abs=1e-13, rel=1e-12)


def test_rl_integral_quadratic_second_order():
    alpha = 0.6
    errs = []
    for n in (64, 128, 256):
        g, f = grid_fn(1.0, n, lambda t: t ** 2)
        out = rl_integral(alpha, f).values
        ref = np.array([oracles.frac_integral_power(alpha, 2.0, t) if t else 0.0
                        for t in g.nodes])
        errs.append(np.max(np.abs(out - ref)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_rl_integral_at_matches_node_values():
    # the power weights at a node t, dotted with the data, are rl_integral there
    g, f = grid_fn(1.0, 32, lambda t: np.cos(t))
    nodewise = rl_integral(0.7, f).values
    for i in (1, 7, 32):
        at_t = singular_kernel_weights(0.7, np.ones_like, g, g.nodes[i]) @ f.values / gamma(0.7)
        assert at_t == pytest.approx(nodewise[i], rel=1e-13, abs=1e-15)


def test_rl_integral_at_off_grid_exact_for_linear():
    # partial trailing panel must keep piecewise-linear exactness
    alpha = 0.55
    g, f = grid_fn(1.0, 32, lambda t: t)
    for t in (0.3, 0.617, 0.999):
        ref = oracles.frac_integral_power(alpha, 1.0, t)
        at_t = singular_kernel_weights(alpha, np.ones_like, g, t) @ f.values / gamma(alpha)
        assert at_t == pytest.approx(ref, rel=1e-12)


def test_power_weights_total_mass():
    # weights applied to f = 1 give the zeroth kernel moment t**a / a
    g = TimeGrid(1.0, 17)
    ones = np.ones(18)
    for alpha in (0.4, 0.75, 1.0):
        for t in (g.nodes[5], 0.42, 1.0):
            w = singular_kernel_weights(alpha, np.ones_like, g, t)
            assert w @ ones == pytest.approx(t ** alpha / alpha, rel=1e-13)


def test_power_weights_zero_time():
    g = TimeGrid(1.0, 8)
    assert np.all(singular_kernel_weights(0.5, np.ones_like, g, 0.0) == 0.0)


# ----------------------------------------------------------------- derivatives


def test_caputo_annihilates_constants():
    g, f = grid_fn(1.0, 128, lambda t: 7.0 + 0.0 * t)
    out = caputo_derivative(0.3, f)
    assert np.max(np.abs(out.values)) <= CAPUTO_CONST_TOL
    assert out.node0_extrapolated


def test_caputo_linear_power_rule():
    # L1 is exact when the derivative of the data is piecewise constant
    g, f = grid_fn(1.0, 64, lambda t: t)
    out = caputo_derivative(0.5, f).values
    for i, t in enumerate(g.nodes[1:], start=1):
        assert out[i] == pytest.approx(oracles.caputo_power(0.5, 1.0, t), rel=1e-12)


def test_caputo_quadratic_power_rule_converges():
    alpha = 0.75
    errs = []
    for n in (128, 256):
        g, f = grid_fn(1.0, n, lambda t: t ** 2)
        out = caputo_derivative(alpha, f).values
        ref = np.array([oracles.caputo_power(alpha, 2.0, t) if t else 0.0
                        for t in g.nodes])
        errs.append(np.max(np.abs(out[1:] - ref[1:])))
    assert errs[0] < 2e-3
    # L1 order is 2 - alpha
    assert errs[0] / errs[1] > 2.0 ** (2.0 - alpha - 0.25)


def test_caputo_against_defining_integral():
    import mpmath as mp

    alpha = 0.6
    g, f = grid_fn(0.7, 512, lambda t: np.sin(t))
    out = caputo_derivative(alpha, f).values
    ref = oracles.caputo_quadrature(alpha, mp.sin, mp.cos, 0.7)
    assert out[-1] == pytest.approx(ref, abs=5e-4)


def test_caputo_node0_extrapolation_rule():
    g, f = grid_fn(1.0, 16, lambda t: t ** 1.5)
    out = caputo_derivative(0.4, f).values
    assert out[0] == pytest.approx(3 * out[1] - 3 * out[2] + out[3], rel=1e-12)


def test_fractional_operators_are_linear():
    rng = np.random.default_rng(915)
    g = TimeGrid(1.0, 48)
    a_vals = rng.standard_normal(49)
    b_vals = rng.standard_normal(49)
    fa, fb = SampledFn(g, a_vals), SampledFn(g, b_vals)
    combo = SampledFn(g, 2.5 * a_vals - 1.25 * b_vals)
    for op in (lambda f: rl_integral(0.65, f).values,
               lambda f: caputo_derivative(0.65, f).values):
        lhs = op(combo)
        rhs = 2.5 * op(fa) - 1.25 * op(fb)
        scale = np.max(np.abs(rhs)) + 1.0
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12


def test_semigroup_law_on_linear_data():
    alpha, beta = 0.35, 0.45
    errs = []
    for n in (128, 256, 512):
        g, f = grid_fn(1.0, n, lambda t: t)
        twice = rl_integral(alpha, rl_integral(beta, f)).values
        once = rl_integral(alpha + beta, f).values
        errs.append(np.max(np.abs(twice - once)))
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_caputo_inverts_rl_integral():
    alpha = 0.6
    errs = []
    for n in (128, 256):
        g, f = grid_fn(1.0, n, lambda t: np.sin(2.0 * t))
        rec = caputo_derivative(alpha, rl_integral(alpha, f)).values
        errs.append(np.max(np.abs(rec[1:] - f.values[1:])))
    order = np.log(errs[0] / errs[1]) / np.log(2.0)
    assert order >= 0.9


# ------------------------------------------------------ singular convolutions


def test_singular_convolution_unit_kernel_moment():
    alpha = 0.7
    g, f = grid_fn(1.0, 20, lambda t: np.ones_like(t))
    h = lambda tau: np.ones_like(np.asarray(tau, dtype=float))
    for i in range(21):
        ref = g.nodes[i] ** alpha / alpha
        conv = singular_kernel_weights(alpha, h, g, g.nodes[i]) @ f.values
        assert conv == pytest.approx(ref, rel=1e-13, abs=1e-15)


def test_singular_convolution_zero_data():
    g, f = grid_fn(1.0, 12, lambda t: 0.0 * t)
    h = lambda tau: np.exp(-np.asarray(tau))
    assert singular_kernel_weights(0.5, h, g, g.nodes[12]) @ f.values == 0.0


def test_singular_convolution_ml_kernel_against_series_oracle():
    alpha, lam = 0.75, 4.0
    h = lambda tau: np.array(
        [mittag_leffler(alpha, alpha, -lam * x ** alpha) if x > 0 else 1.0 / gamma(alpha)
         for x in np.atleast_1d(tau)]
    )
    errs = []
    for n in (256, 512):
        g, f = grid_fn(1.0, n, lambda t: np.ones_like(t))
        lag_table = np.array(
            [mittag_leffler(alpha, alpha, -lam * (d * g.delta) ** alpha)
             if d else 1.0 / gamma(alpha) for d in range(n + 1)]
        )
        out = singular_convolution_all(alpha, lag_table, f)
        ref = np.array([oracles.resolvent_kernel_integral(alpha, lam, t) if t else 0.0
                        for t in g.nodes])
        errs.append(np.max(np.abs(out - ref)))
    assert errs[-1] < 5e-4
    assert errs[0] / errs[1] > 2.0 ** (2 * alpha - 0.4)


def test_singular_convolution_all_matches_pointwise():
    alpha = 0.6
    rng = np.random.default_rng(2206)
    g = TimeGrid(1.0, 40)
    f = SampledFn(g, rng.standard_normal(41))
    lags = np.arange(41) * g.delta
    smooth = np.exp(-2.0 * lags)
    batch = singular_convolution_all(alpha, smooth, f)
    h = lambda tau: np.exp(-2.0 * np.asarray(tau, dtype=float))
    for i in (0, 1, 17, 40):
        pointwise = singular_kernel_weights(alpha, h, g, g.nodes[i]) @ f.values
        assert batch[i] == pytest.approx(pointwise, rel=1e-12, abs=1e-14)


def test_singular_convolution_vector_data():
    alpha = 0.8
    g = TimeGrid(1.0, 24)
    vals = np.column_stack([g.nodes, np.ones(25)])
    f = SampledFn(g, vals)
    h = lambda tau: np.ones_like(np.asarray(tau, dtype=float))
    out = singular_kernel_weights(alpha, h, g, g.nodes[24]) @ f.values
    assert out.shape == (2,)
    assert out[1] == pytest.approx(1.0 ** alpha / alpha, rel=1e-13)


def test_singular_convolution_at_off_grid_linear_data():
    # integral of (t-s)**(a-1) * s from 0 to t has the closed form below
    alpha = 0.65
    g, f = grid_fn(1.0, 64, lambda t: t)
    h = lambda tau: np.ones_like(np.asarray(tau, dtype=float))
    for t in (0.3, 0.55, 0.8131):
        ref = t ** (alpha + 1.0) / (alpha * (alpha + 1.0))
        assert singular_kernel_weights(alpha, h, g, t) @ f.values == pytest.approx(ref, rel=1e-12)


def test_singular_convolution_at_ml_kernel_off_grid():
    alpha, lam = 0.75, 2.0
    g, f = grid_fn(1.0, 512, lambda t: np.ones_like(t))
    h = lambda tau: np.array(
        [mittag_leffler(alpha, alpha, -lam * x ** alpha) if x > 0 else 1.0 / gamma(alpha)
         for x in np.atleast_1d(tau)]
    )
    for t in (0.3, 0.6):
        ref = oracles.resolvent_kernel_integral(alpha, lam, t)
        assert singular_kernel_weights(alpha, h, g, t) @ f.values == pytest.approx(ref, abs=2e-4)


def test_singular_convolution_ties_to_rl_integral():
    alpha = 0.45
    rng = np.random.default_rng(77)
    g = TimeGrid(2.0, 50)
    f = SampledFn(g, rng.standard_normal(51))
    h = lambda tau: np.ones_like(np.asarray(tau, dtype=float))
    ri = rl_integral(alpha, f).values
    for i in (3, 25, 50):
        conv = singular_kernel_weights(alpha, h, g, g.nodes[i]) @ f.values
        assert conv == pytest.approx(gamma(alpha) * ri[i], rel=QUADRATURE_MATCH_TOL, abs=1e-13)


def test_singular_convolution_index_bounds():
    # the upper limit one step past either end of the grid
    g = TimeGrid(1.0, 8)
    h = lambda tau: np.ones_like(np.asarray(tau, dtype=float))
    with pytest.raises(DomainError):
        singular_kernel_weights(0.5, h, g, 9 * g.delta)
    with pytest.raises(DomainError):
        singular_kernel_weights(0.5, h, g, -g.delta)


# ------------------------------------------------------------- column contract


def _two_kernels(lags):
    lags = np.asarray(lags, dtype=float)
    return np.column_stack([np.exp(-2.0 * lags), 1.0 / (1.0 + lags)])


def test_singular_convolution_all_kernel_columns_match_column_calls():
    alpha = 0.6
    rng = np.random.default_rng(515)
    g = TimeGrid(1.0, 40)
    data = rng.standard_normal((41, 3))
    lags = np.arange(41) * g.delta
    table = np.column_stack([np.exp(-c * lags) for c in (0.5, 2.0, 7.0)])
    out = singular_convolution_all(alpha, table, SampledFn(g, data))
    shared = singular_convolution_all(alpha, table[:, 1], SampledFn(g, data))
    for m in range(3):
        column = SampledFn(g, data[:, m])
        assert np.array_equal(out[:, m], singular_convolution_all(alpha, table[:, m], column))
        # a 1-D table is one kernel for every column
        assert np.array_equal(shared[:, m], singular_convolution_all(alpha, table[:, 1], column))


def test_singular_convolution_all_rejects_misfit_table():
    g = TimeGrid(1.0, 40)
    f = SampledFn(g, np.ones((41, 3)))
    with pytest.raises(DomainError, match=r"\(41, 2\).*\(41, 3\)"):
        singular_convolution_all(0.6, np.ones((41, 2)), f)
    with pytest.raises(DomainError, match=r"\(40,\)"):
        singular_convolution_all(0.6, np.ones(40), f)


@pytest.mark.parametrize("where", ["zero", "node", "between", "horizon"])
def test_kernel_weights_columns_match_column_calls(where):
    g = TimeGrid(1.0, 20)
    t = {"zero": 0.0, "node": g.nodes[7], "between": 0.4213, "horizon": 1.0}[where]
    w = singular_kernel_weights(0.7, _two_kernels, g, t)
    assert w.shape == (21, 2)
    for m in range(2):
        ref = singular_kernel_weights(0.7, lambda lags: _two_kernels(lags)[:, m], g, t)
        assert np.array_equal(w[:, m], ref)


def test_kernel_weights_reject_misshapen_kernel():
    g = TimeGrid(1.0, 8)
    # at t = 0.5 the kernel sees the 5 node lags and the 2 trailing-panel lags
    with pytest.raises(DomainError, match=r"\(6,\).*\(7,\)"):
        singular_kernel_weights(0.5, lambda lags: np.ones(lags.size - 1), g, 0.5)
    with pytest.raises(DomainError, match=r"shape \(\)"):
        singular_kernel_weights(0.5, lambda lags: 1.0, g, 0.5)


def test_kernel_weights_let_kernel_errors_through():
    g = TimeGrid(1.0, 8)

    def refusing(lags):
        raise DomainError("kernel refuses these lags")

    with pytest.raises(DomainError, match="kernel refuses"):
        singular_kernel_weights(0.5, refusing, g, 0.5)
    # a scalar-only kernel is not called once per lag
    with pytest.raises(TypeError):
        singular_kernel_weights(0.5, float, g, 0.5)


def test_kernel_weights_at_horizon_keep_lags_nonnegative():
    # the snapped horizon 19 * (0.1 / 19) sits an ulp below nodes[-1] = 0.1
    g = TimeGrid(0.1, 19)
    assert g.n_steps * g.delta < g.nodes[-1]
    lams = np.array([1.0, 4.0])
    w = singular_kernel_weights(0.75, lambda lags: ml_table(lams, 0.75, 0.75, lags), g, 0.1)
    assert w.shape == (20, 2)
    assert np.all(np.isfinite(w))


@pytest.mark.parametrize("horizon, n", [(1.0, 30), (1.0, 100), (0.7, 64), (1.3, 512), (10.0, 1000)])
def test_kernel_weights_at_horizon_read_the_lags_k_delta(horizon, n):
    # the lags the kernel sees at the horizon are the product quadrature's
    # (n - j) * delta bit for bit, though delta is no binary fraction
    g, seen = TimeGrid(horizon, n), []

    def kernel(lags):
        seen.append(lags.copy())
        return np.ones_like(lags)

    singular_kernel_weights(0.75, kernel, g, horizon)
    assert np.array_equal(seen[0][: n + 1], (n - np.arange(n + 1)) * g.delta)
    assert np.array_equal(seen[0][n + 1 :], [0.0, 0.0])


@pytest.mark.parametrize("op", [caputo_derivative])
def test_derivatives_of_columns_match_column_calls(op):
    # one FFT over all columns gives each column its own bits, also at
    # n = 7, whose FFT length is 15, not 2 n
    for n in (7, 30, 512):
        g = TimeGrid(1.0, n)
        data = np.column_stack(
            [1.0 + g.nodes ** 2, np.sin(3.0 * g.nodes) + 0.5, np.exp(-g.nodes) * g.nodes ** 0.3]
        )
        out = op(0.4, SampledFn(g, data)).values
        for m in range(3):
            assert np.array_equal(out[:, m], op(0.4, SampledFn(g, data[:, m])).values)


# the FFT length _fast_len(2 n) is 2 n at n = 512 and 15 at n = 7
@pytest.mark.parametrize("n", [7, 512])
def test_caputo_derivative_matches_the_per_column_l1_sums(n):
    g = TimeGrid(1.3, n)
    data = np.column_stack([np.sin(2.0 * g.nodes), g.nodes ** 0.75, 1.0 + g.nodes ** 2])
    for alpha in (0.2, 0.5, 0.9):
        b = (1.0 - alpha) * _panel_moments(1.0 - alpha, np.arange(n))[0]
        coef = g.delta ** (-alpha) / gamma(2.0 - alpha)
        ref = oracles.l1_convolution_direct(b, coef, data)
        out = caputo_derivative(alpha, SampledFn(g, data)).values[1:]
        # rounding: up to 5.5e-16 of the largest sum seen
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [7, 512])
def test_lag_convolution_matches_the_per_mode_midpoint_sums(n):
    # verify_mild's layout: the midpoint weights at lags 1..n (lag 0 is
    # zero), the panel averages at nodes 0..n - 1; node i is then entry
    # i - 1 of each mode's full np.convolve
    alpha, g = 0.75, TimeGrid(1.0, n)
    lams = SpectralModel.dirichlet_laplacian(8).lambdas
    mid = ml_table(lams, alpha, alpha, (np.arange(n) + 0.5) * g.delta)
    kern = mid * (_panel_moments(alpha, np.arange(n))[0] * g.delta ** alpha)[:, None]
    forcing = 0.3 + 0.2 * np.random.default_rng(7500 + n).standard_normal((n + 1, 8))
    avg = np.zeros_like(forcing)
    avg[:-1] = 0.5 * (forcing[:-1] + forcing[1:])
    out = LagConvolution(np.concatenate([np.zeros((1, 8)), kern]))(avg)
    ref = oracles.midpoint_convolution_direct(avg[:-1], kern)
    assert np.all(out[0] == 0.0)
    assert np.max(np.abs(out[1:] - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(13,), (13, 3)])
def test_lag_convolution_rows_are_the_sums_weights(shape):
    # row(i) dotted with the data, column by column, is node i's sum with
    # the node-0 correction, and node 0's row is zero like its sum
    rng = np.random.default_rng(29)
    weights, correction = rng.standard_normal(shape), rng.standard_normal(shape)
    data = rng.standard_normal((13, 3))
    for conv in (LagConvolution(weights), LagConvolution(weights, correction)):
        out = conv(data)
        for i in range(13):
            row = np.broadcast_to(conv.row(i), (3, 13))
            dots = np.einsum("mj,jm->m", row, data)
            assert np.allclose(dots, out[i], rtol=0.0, atol=1e-14), i
        assert not conv.row(0).any()
        for i in (-1, 13):
            with pytest.raises(DomainError, match="outside 0..12"):
                conv.row(i)


# ------------------------------------------------------ FFT product quadrature


def _assert_matches_direct_sum(alpha, grid, table, data):
    n = grid.n_steps
    out = ProductQuadrature(alpha, grid, table)(data)
    k, mu1 = _uniform_kernel(alpha, n)
    ref = grid.delta ** alpha * oracles.product_quadrature_direct(
        k, mu1, table, data.reshape(n + 1, -1)
    )
    assert np.all(out[0] == 0.0)  # the integral over an empty interval
    assert np.max(np.abs(out.reshape(ref.shape) - ref)) <= QUADRATURE_MATCH_TOL * np.max(
        np.abs(out)
    )


def test_product_quadrature_matches_direct_sum_on_demo_lag_table():
    # the solver's table: 8 Dirichlet modes, alpha 0.75, 512 steps
    alpha = 0.75
    grid = TimeGrid(1.0, 512)
    lams = SpectralModel.dirichlet_laplacian(8).lambdas
    table = ml_table(lams, alpha, alpha, np.arange(513) * grid.delta)
    rng = np.random.default_rng(7001)
    forcing = 0.3 + 0.2 * rng.standard_normal((513, 8))
    _assert_matches_direct_sum(alpha, grid, table, forcing)


@pytest.mark.parametrize("n", [1, 2, 40, 513])
def test_product_quadrature_matches_direct_sum_on_random_data(n):
    rng = np.random.default_rng(7100 + n)
    grid = TimeGrid(1.3, n)
    for alpha in (0.35, 0.8, 1.0):
        table = rng.uniform(0.2, 1.5, (n + 1, 3))
        _assert_matches_direct_sum(alpha, grid, table, rng.standard_normal((n + 1, 3)))
        # one shared kernel column, and 1-D data
        _assert_matches_direct_sum(alpha, grid, table[:, 0], rng.standard_normal((n + 1, 4)))
        _assert_matches_direct_sum(alpha, grid, table[:, 0], rng.standard_normal(n + 1))


def test_product_quadrature_reuse_equals_one_shot_calls():
    # one object serves many data sets with the same bits as fresh calls
    alpha = 0.6
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(7200)
    table = np.exp(-np.outer(np.arange(65) * grid.delta, [0.5, 3.0]))
    quad = ProductQuadrature(alpha, grid, table)
    for _ in range(3):
        data = rng.standard_normal((65, 2))
        assert np.array_equal(quad(data), singular_convolution_all(alpha, table, SampledFn(grid, data)))


def test_product_quadrature_rejects_misfit_data():
    grid = TimeGrid(1.0, 40)
    quad = ProductQuadrature(0.6, grid, np.ones((41, 2)))
    with pytest.raises(DomainError, match=r"\(41, 2\).*\(41, 3\)"):
        quad(np.ones((41, 3)))
    with pytest.raises(DomainError, match=r"\(40, 2\)"):
        quad(np.ones((40, 2)))
    with pytest.raises(DomainError, match=r"\(42,\)"):
        ProductQuadrature(0.6, grid, np.ones(42))


def test_fast_len_matches_scipy_next_fast_len():
    assert [_fast_len(m) for m in range(1, 5001)] == [
        scipy.fft.next_fast_len(m, real=True) for m in range(1, 5001)
    ]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 600), n_cols=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_product_quadrature_columns_equal_one_column_calls_bit_for_bit(n, n_cols, seed):
    # the FFT must transform each column on its own, whatever the batch
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, n)
    table = rng.uniform(0.2, 1.5, (n + 1, n_cols))
    data = rng.standard_normal((n + 1, n_cols))
    out = ProductQuadrature(0.75, grid, table)(data)
    for m in range(n_cols):
        assert np.array_equal(out[:, m], ProductQuadrature(0.75, grid, table[:, m])(data[:, m]))


# the FFT length _fast_len(2 n) is 2 n itself for each of these n but 7,
# so the circular convolution folds the term k[n] x[n] onto node 0
FOLDING_NS = [1, 2, 3, 7, 30, 64, 100, 512]
FOLDING_RATES = (0.5, 2.0, 7.0)


def _folding_case(n):
    rng = np.random.default_rng(7300 + n)
    grid = TimeGrid(1.3, n)
    table = np.exp(-np.outer(np.arange(n + 1) * grid.delta, FOLDING_RATES))
    return grid, table, 1.0 + rng.standard_normal((n + 1, 3))


@pytest.mark.parametrize("n", FOLDING_NS)
def test_product_quadrature_at_length_2n_folds_onto_node_0_only(n):
    # node 0 is set to 0, so the folded term is gone and nodes 1..n are
    # the direct sums of the same weights
    grid, table, data = _folding_case(n)
    for alpha in (0.35, 0.75, 1.0):
        _assert_matches_direct_sum(alpha, grid, table, data)
        out = ProductQuadrature(alpha, grid, table)(data)
        for m in range(3):
            one = ProductQuadrature(alpha, grid, table[:, m])(data[:, m])
            assert np.array_equal(out[:, m], one)


@pytest.mark.parametrize("n", FOLDING_NS)
def test_product_quadrature_at_length_2n_matches_node_by_node_quadrature(n):
    grid, table, data = _folding_case(n)
    for alpha in (0.35, 0.75, 1.0):
        out = ProductQuadrature(alpha, grid, table)(data)
        for m, rate in enumerate(FOLDING_RATES):
            kernel = lambda lags, rate=rate: np.exp(-rate * lags)
            ref = [singular_kernel_weights(alpha, kernel, grid, t) @ data[:, m] for t in grid.nodes]
            assert np.max(np.abs(out[:, m] - ref)) <= QUADRATURE_MATCH_TOL * np.max(
                np.abs(out[:, m])
            )


# ------------------------------------------- weights against 40-digit moments


def _max_rel(got, ref):
    """Largest relative error of floats against nonzero mpf references."""
    assert len(got) == len(ref)
    return max(float(abs((g - r) / r)) for g, r in zip(got, ref))


@pytest.mark.parametrize("n", [513, 2048])
def test_power_weights_match_40_digit_panel_moments(n):
    grid = TimeGrid(1.0, n)
    for alpha in (0.05, 0.1, 0.35, 0.75, 0.999, 1.0):
        k, mu1 = _uniform_kernel(alpha, n)
        ref_k, ref_mu1 = oracles.product_trapezoid_weights(alpha, n)
        assert _max_rel(k, ref_k) <= 2e-15
        assert _max_rel(mu1, ref_mu1) <= 2e-15
        for t in (grid.horizon, 0.6180339887498949):  # at a node, between nodes
            jp, theta = grid.locate(t)
            w = singular_kernel_weights(alpha, np.ones_like, grid, t)
            ref = oracles.kernel_weight_row(alpha, grid.delta, jp, theta)
            assert np.all(w[len(ref) :] == 0.0)
            assert _max_rel(w[: len(ref)], ref) <= 2e-15


def test_product_quadrature_of_random_signs_matches_40_digit_sums():
    # the fractional integral of random-sign data: with moments taken as
    # differences of powers it was 3.4e-12 of sup|out| off this sum
    alpha, grid = 0.35, TimeGrid(1.0, 512)
    data = np.random.default_rng(7400).standard_normal(513)
    out = ProductQuadrature(alpha, grid, np.ones(513))(data)
    ref = oracles.product_quadrature_exact(alpha, grid.delta, np.ones(513), data)
    assert np.max(np.abs(out - ref)) <= QUADRATURE_MATCH_TOL * np.max(np.abs(out))
