"""Tests for the nonlocally pinned mild solver."""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracevol.config import build_forcing, build_grid, build_problem, load_config
from fracevol.constants import NEUMANN_CLOSED_FORM_TOL, SOLVE_MAX_ITER_DEFAULT
from fracevol.errors import AdmissibilityError, ConvergenceError, DomainError, SourceError
from fracevol.fraccalc import SampledFn, TimeGrid, singular_kernel_weights
from fracevol.greens import (
    Nonlinearity,
    NonlocalSpec,
    ProblemSpec,
    ResponseAssembly,
    Trajectory,
    _transient_run,
    build_O,
    check_H1,
    green_apply,
    green_weighted_sup,
    mode_gain_source,
    sine_collocation_source,
    solve_mild,
    verify_mild,
)
from fracevol.spectral import SpectralModel, decay_factors, kernel_factors
from fracevol.specfun import gamma, mittag_leffler


def classical(horizon=1.0):
    return NonlocalSpec(np.array([]), np.array([]), horizon)


def demo_coupling(horizon=1.0):
    return NonlocalSpec(np.array([0.2, 0.1]), np.array([0.3, 0.6]), horizon)


def demo_problem(n_modes=8, alpha=0.75):
    return ProblemSpec(
        SpectralModel.dirichlet_laplacian(n_modes),
        alpha,
        demo_coupling(),
        nonlinearity=sine_collocation_source(n_modes),
        control_gains=1.0,
    )


# ------------------------------------------------------------------- domain


def test_nonlocal_spec_validation():
    with pytest.raises(DomainError):
        NonlocalSpec(np.array([0.1]), np.array([0.2, 0.3]), 1.0)
    with pytest.raises(DomainError):
        NonlocalSpec(np.array([0.1]), np.array([0.0]), 1.0)
    with pytest.raises(DomainError):
        NonlocalSpec(np.array([0.1]), np.array([1.5]), 1.0)
    with pytest.raises(DomainError):
        NonlocalSpec(np.array([0.1, 0.2]), np.array([0.5, 0.5]), 1.0)
    with pytest.raises(DomainError):
        NonlocalSpec(np.array([0.1]), np.array([0.5]), 0.0)
    spec = classical()
    assert spec.n_points == 0
    assert demo_coupling().n_points == 2


def test_problem_spec_validation():
    model = SpectralModel.dirichlet_laplacian(3)
    with pytest.raises(DomainError):
        ProblemSpec(model, 1.5, classical())
    with pytest.raises(DomainError):
        ProblemSpec(model, 0.0, classical())
    with pytest.raises(DomainError):
        ProblemSpec(model, 0.75, classical(), control_gains=np.ones(2))
    p = ProblemSpec(model, 0.75, classical(), control_gains=2.0)
    assert np.array_equal(p.control_gains, np.array([2.0, 2.0, 2.0]))
    assert p.horizon == 1.0
    assert p.n_modes == 3


def test_trajectory_validation():
    grid = TimeGrid(1.0, 4)
    with pytest.raises(DomainError):
        Trajectory(grid, np.zeros((4, 2)))
    with pytest.raises(DomainError):
        Trajectory(grid, np.zeros(5))
    traj = Trajectory(grid, np.arange(10.0).reshape(5, 2))
    assert np.array_equal(traj.initial, np.array([0.0, 1.0]))
    assert np.array_equal(traj.final, np.array([8.0, 9.0]))


# -------------------------------------------------- admissibility and inverse


def test_check_H1_margins():
    model = SpectralModel.dirichlet_laplacian(2)
    rep = check_H1(model, 0.75, demo_coupling())
    assert rep.admissible
    assert rep.margin == pytest.approx(0.7, rel=1e-14)
    bad = NonlocalSpec(np.array([0.7, 0.4]), np.array([0.3, 0.6]), 1.0)
    rep_bad = check_H1(model, 0.75, bad)
    assert not rep_bad.admissible
    assert rep_bad.margin == pytest.approx(-0.1, rel=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pairs=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.booleans(), st.booleans()),
        min_size=1,
        max_size=6,
    )
)
def test_check_H1_margin_is_monotone_in_weight_magnitudes(pairs):
    # growing any |c_k|, whatever the signs, never raises the margin
    mags, grow, flip, flip_big = (np.array(col) for col in zip(*pairs))
    times = np.linspace(0.2, 1.0, len(pairs))
    model = SpectralModel.dirichlet_laplacian(2)
    small = check_H1(model, 0.75, NonlocalSpec(np.where(flip, -mags, mags), times, 1.0))
    big_w = np.where(flip_big, -1.0, 1.0) * (mags + grow)
    big = check_H1(model, 0.75, NonlocalSpec(big_w, times, 1.0))
    assert big.margin <= small.margin
    assert small.admissible or not big.admissible


def test_build_O_classical_is_identity():
    model = SpectralModel.dirichlet_laplacian(4)
    assert np.array_equal(build_O(model, 0.75, classical()), np.ones(4))


def test_build_O_matches_closed_form():
    model = SpectralModel.dirichlet_laplacian(6)
    coupling = demo_coupling()
    alpha = 0.75
    o = build_O(model, alpha, coupling)
    q = np.zeros(6)
    for ck, tk in zip(coupling.weights, coupling.times):
        q += ck * decay_factors(model, alpha, tk)
    closed = 1.0 / (1.0 - q)
    assert np.max(np.abs(o - closed)) <= NEUMANN_CLOSED_FORM_TOL
    assert np.all(o <= 1.0 / (1.0 - np.sum(np.abs(coupling.weights))) + 1e-12)


def test_build_O_random_admissible_specs():
    rng = np.random.default_rng(417)
    for _ in range(10):
        n_pts = rng.integers(1, 4)
        times = np.sort(rng.uniform(0.05, 1.0, n_pts))
        while np.any(np.diff(times) <= 0.0):
            times = np.sort(rng.uniform(0.05, 1.0, n_pts))
        weights = rng.uniform(-1.0, 1.0, n_pts)
        weights *= 0.9 / max(np.sum(np.abs(weights)), 1e-9)
        coupling = NonlocalSpec(weights, times, 1.0)
        model = SpectralModel(np.sort(rng.uniform(0.5, 40.0, 3)))
        alpha = float(rng.uniform(0.3, 1.0))
        o = build_O(model, alpha, coupling)
        q = np.zeros(3)
        for ck, tk in zip(coupling.weights, coupling.times):
            q += ck * decay_factors(model, alpha, tk)
        assert np.max(np.abs(o - 1.0 / (1.0 - q))) <= NEUMANN_CLOSED_FORM_TOL


def inverse_rel_error(o, q):
    """max over modes of |o - 1 / (1 - q)| / |1 / (1 - q)|, the inverse at 50 digits."""
    with mp.workdps(50):
        errs = [abs(mp.mpf(float(om)) * (1 - mp.mpf(float(qm))) - 1) for om, qm in zip(o, q)]
        return float(max(errs))


def flow_sum(model, alpha, coupling):
    """q = sum_k c_k E_alpha(-lambda t_k**alpha), accumulated pin by pin."""
    q = np.zeros(model.n_modes)
    for ck, tk in zip(coupling.weights, coupling.times):
        q += ck * decay_factors(model, alpha, tk)
    return q


def test_build_O_is_the_inverse_to_two_eps():
    # the closed form rounds twice, in 1 - q and in the division.  The
    # second case has margin 1e-4 and a rate of 1e-6: q is 1.01e-4 from 1,
    # and a Neumann series would need 3.2e5 terms to fall below 1e-14
    cases = [
        (SpectralModel.dirichlet_laplacian(8), demo_coupling(), 0.75),
        (SpectralModel(np.array([1e-6, 1.0])), NonlocalSpec([0.9999], [1.0], 1.0), 0.75),
    ]
    rng = np.random.default_rng(2311)
    while len(cases) < 202:
        n_pts = int(rng.integers(1, 5))
        times = np.sort(rng.uniform(0.05, 1.0, n_pts))
        if np.any(np.diff(times) <= 1e-9):
            continue
        weights = rng.uniform(-1.0, 1.0, n_pts)
        weights *= rng.uniform(0.2, 0.9999) / max(np.sum(np.abs(weights)), 1e-9)
        model = SpectralModel(np.sort(rng.uniform(1e-3, 60.0, 4)))
        cases.append((model, NonlocalSpec(weights, times, 1.0), float(rng.uniform(0.3, 1.0))))
    for model, coupling, alpha in cases:
        o = build_O(model, alpha, coupling)
        assert inverse_rel_error(o, flow_sum(model, alpha, coupling)) <= 2 * np.finfo(float).eps


def test_build_O_rejects_inadmissible():
    model = SpectralModel.dirichlet_laplacian(2)
    bad = NonlocalSpec(np.array([0.8, 0.3]), np.array([0.2, 0.5]), 1.0)
    with pytest.raises(AdmissibilityError) as exc:
        build_O(model, 0.75, bad)
    assert exc.value.margin == pytest.approx(-0.1, rel=1e-12)
    assert "margin" in str(exc.value)


# ---------------------------------------------------------------- solve_mild


def test_solve_zero_problem_is_zero():
    prob = ProblemSpec(SpectralModel.dirichlet_laplacian(2), 0.75, demo_coupling())
    traj, rep = solve_mild(prob, TimeGrid(1.0, 64))
    assert np.all(traj.states == 0.0)
    assert rep.iterations == 1
    assert rep.control_sup == 0.0


def test_solve_constant_forcing_single_mode():
    lam, alpha = 4.0, 0.75
    prob = ProblemSpec(SpectralModel(np.array([lam])), alpha, classical())
    errs = []
    for n in (256, 512):
        grid = TimeGrid(1.0, n)
        mu = SampledFn(grid, np.full((n + 1, 1), 2.5))
        traj, rep = solve_mild(prob, grid, raw_forcing=mu)
        ref = np.array(
            [2.5 * oracles.resolvent_kernel_integral(alpha, lam, t) if t else 0.0
             for t in grid.nodes]
        )
        errs.append(np.max(np.abs(traj.states[:, 0] - ref)))
    assert errs[-1] < 5e-4
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert order >= 0.9


def test_solve_classical_limit_order_one():
    # alpha = 1 reduces to the ODE u' = -lam u + w, u(0) = 0
    lam, w = 2.0, 1.5
    prob = ProblemSpec(SpectralModel(np.array([lam])), 1.0, classical())
    grid = TimeGrid(1.0, 512)
    mu = SampledFn(grid, np.full((513, 1), w))
    traj, _ = solve_mild(prob, grid, raw_forcing=mu)
    ref = w * (1.0 - np.exp(-lam * grid.nodes)) / lam
    assert np.max(np.abs(traj.states[:, 0] - ref)) < 1e-5


def test_solve_linear_in_forcing():
    prob = ProblemSpec(SpectralModel.dirichlet_laplacian(3), 0.6, demo_coupling())
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(88)
    a = rng.standard_normal((129, 3))
    b = rng.standard_normal((129, 3))
    ta, _ = solve_mild(prob, grid, raw_forcing=SampledFn(grid, a))
    tb, _ = solve_mild(prob, grid, raw_forcing=SampledFn(grid, b))
    tc, _ = solve_mild(prob, grid, raw_forcing=SampledFn(grid, 2.0 * a - 0.5 * b))
    gap = tc.states - (2.0 * ta.states - 0.5 * tb.states)
    assert np.max(np.abs(gap)) < 1e-10


def test_solve_control_channel_applies_gains():
    gains = np.array([1.0, -2.0, 0.5])
    prob = ProblemSpec(
        SpectralModel.dirichlet_laplacian(3), 0.75, demo_coupling(), control_gains=gains
    )
    grid = TimeGrid(1.0, 96)
    rng = np.random.default_rng(3)
    v = rng.standard_normal((97, 3))
    via_control, _ = solve_mild(prob, grid, SampledFn(grid, v))
    via_raw, _ = solve_mild(prob, grid, raw_forcing=SampledFn(grid, v * gains[None, :]))
    assert np.max(np.abs(via_control.states - via_raw.states)) < 1e-14


def test_solve_reports_pinning_residual():
    prob = demo_problem()
    grid = TimeGrid(1.0, 256)
    v = SampledFn(grid, 0.3 * np.ones((257, 8)))
    traj, rep = solve_mild(prob, grid, v)
    assert rep.nonlocal_residual <= 10.0 * 1e-8
    assert rep.iterations <= math.ceil(math.log(1e-8) / math.log(rep.contraction_estimate)) + 2
    assert 0.0 < rep.contraction_estimate < 1.0
    assert rep.control_sup == pytest.approx(0.3 * math.sqrt(8.0), rel=1e-12)
    # the pinning identity holds on the trajectory itself, not just in the
    # solver's own bookkeeping
    ver = verify_mild(prob, traj, v)
    assert ver.nonlocal_residual < 2e-3


def test_solve_raises_on_iteration_budget():
    prob = demo_problem(n_modes=4)
    grid = TimeGrid(1.0, 64)
    v = SampledFn(grid, 0.5 * np.ones((65, 4)))
    with pytest.raises(ConvergenceError) as exc:
        solve_mild(prob, grid, v, max_iter=3)
    assert exc.value.iterations == 3
    assert len(exc.value.trace) == 3
    assert 0.0 < exc.value.contraction_estimate < 1.0


def test_solve_validates_grid_and_signal():
    prob = demo_problem(n_modes=2)
    with pytest.raises(DomainError):
        solve_mild(prob, TimeGrid(2.0, 64))  # horizon mismatch
    grid = TimeGrid(1.0, 64)
    other = TimeGrid(1.0, 32)
    with pytest.raises(DomainError):
        solve_mild(prob, grid, SampledFn(other, np.zeros((33, 2))))
    with pytest.raises(DomainError):
        solve_mild(prob, grid, SampledFn(grid, np.zeros((65, 3))))


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_solve_rejects_bad_tol_before_iterating(tol):
    # a nan tol is never met and an inf tol is met by the first update
    prob = demo_problem(n_modes=2)
    grid = TimeGrid(1.0, 32)
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        solve_mild(prob, grid, SampledFn(grid, 0.5 * np.ones((33, 2))), tol=tol)


# --------------------------------------------------------------- verify_mild


def test_verify_accepts_solver_output():
    prob = demo_problem()
    grid = TimeGrid(1.0, 512)
    v = SampledFn(grid, 0.3 * np.ones((513, 8)))
    traj, _ = solve_mild(prob, grid, v)
    rep = verify_mild(prob, traj, v)
    assert rep.equation_residual < 2e-3
    assert rep.nonlocal_residual < 2e-4
    assert rep.node_residuals.shape == (513,)


def test_verify_flags_perturbed_trajectory():
    prob = demo_problem()
    grid = TimeGrid(1.0, 512)
    v = SampledFn(grid, 0.3 * np.ones((513, 8)))
    traj, _ = solve_mild(prob, grid, v)
    states = np.array(traj.states)
    states[256, 0] += 1e-2
    rep = verify_mild(prob, Trajectory(grid, states), v)
    assert rep.equation_residual >= 1e-3


def test_verify_flags_broken_pinning():
    prob = demo_problem()
    grid = TimeGrid(1.0, 256)
    traj, _ = solve_mild(prob, grid, SampledFn(grid, 0.3 * np.ones((257, 8))))
    states = np.array(traj.states)
    states[0] += 5e-2
    rep = verify_mild(prob, Trajectory(grid, states), SampledFn(grid, 0.3 * np.ones((257, 8))))
    assert rep.nonlocal_residual >= 1e-2


def test_verify_residual_on_demo_heat_is_pinned():
    # the midpoint rule's residual, held to 1e-15 whatever evaluates its
    # sums (the per-mode direct sums and the FFT differ by 1.9e-17 here)
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "demos/configs/demo_heat.ini"))
    prob, grid = build_problem(cfg), build_grid(cfg)
    forcing = build_forcing(cfg, grid)
    traj, _ = solve_mild(prob, grid, raw_forcing=forcing, tol=cfg.tol, max_iter=cfg.max_iter)
    rep = verify_mild(prob, traj, raw_forcing=forcing)
    assert abs(rep.equation_residual - 5.6835954178332145e-05) <= 1e-15


# ------------------------------------------------ manufactured exact solutions

# error of solve_mild against oracles.manufactured_solution at n = 128 and
# 512, the largest over nodes of the mode vector's length: demo_heat's 8
# modes, pins and sine source, b = 0.3 / m, c = -0.2 / m**2, d = 0.1 / m,
# tol 1e-13.  Measured on the product trapezoid these tests were written
# against (observed orders 0.50 and 1.43); the stiff modes dominate.
MANUFACTURED_ERRORS = {
    0.4: (0.6427725958996839, 0.3200584239814766),
    0.6: (0.13914494121163923, 0.036847893269829075),
    0.75: (0.03185175207857866, 0.004366935473989301),
    0.9: (0.005258082238182801, 0.00041494045722344447),
}
# rates 64 m**2 at alpha 0.75: the top rate 4,096 has lambda delta**alpha
# 108 at n = 128 and 38 at n = 512
STIFF_MANUFACTURED_ERRORS = (6.270729897158639, 2.105257942113758)


def check_manufactured_errors(prob, today):
    """The error at n = 128 and 512 and their order hold today's bounds."""
    m = np.arange(1, 9)
    errs = []
    for n in (128, 512):
        grid = TimeGrid(1.0, n)
        forcing, exact = oracles.manufactured_solution(
            prob, grid.nodes, 0.3 / m, -0.2 / m ** 2, 0.1 / m
        )
        traj, _ = solve_mild(prob, grid, raw_forcing=SampledFn(grid, forcing), tol=1e-13)
        errs.append(np.max(np.sqrt(np.sum((traj.states - exact) ** 2, axis=1))))
    assert errs[0] <= 1.5 * today[0] and errs[1] <= 1.5 * today[1], errs
    order = math.log(errs[0] / errs[1], 4.0)
    assert order >= math.log(today[0] / today[1], 4.0) - 0.1, order


@pytest.mark.parametrize("alpha", sorted(MANUFACTURED_ERRORS))
def test_error_against_a_manufactured_solution(alpha):
    check_manufactured_errors(demo_problem(alpha=alpha), MANUFACTURED_ERRORS[alpha])


def test_error_against_a_manufactured_solution_with_stiff_modes():
    prob = demo_problem()
    stiff = SpectralModel(64.0 * prob.model.lambdas)
    prob = ProblemSpec(stiff, prob.alpha, prob.coupling, prob.nonlinearity, prob.control_gains)
    assert stiff.lambdas[-1] * (1.0 / 512) ** prob.alpha > 10.0
    check_manufactured_errors(prob, STIFF_MANUFACTURED_ERRORS)


def test_manufactured_solution_meets_its_pinning_condition():
    prob, m = demo_problem(alpha=0.6), np.arange(1, 9)
    pins = np.concatenate([[0.0], prob.coupling.times])
    _, exact = oracles.manufactured_solution(prob, pins, 0.3 / m, -0.2 / m ** 2, 0.1 / m)
    assert np.allclose(exact[0], prob.coupling.weights @ exact[1:], rtol=1e-14, atol=0.0)


# ----------------------------------------------------------- combined kernel


def test_green_apply_singularities_rejected():
    prob = demo_problem(n_modes=2)
    w = np.ones(2)
    with pytest.raises(DomainError):
        green_apply(prob, 0.5, 0.5, w)
    with pytest.raises(DomainError):
        green_apply(prob, 0.8, 0.3, w)  # pinning time
    with pytest.raises(DomainError):
        green_apply(prob, 1.2, 0.1, w)
    with pytest.raises(DomainError):
        green_apply(prob, 0.5, 0.1, np.ones(3))


def test_green_apply_classical_is_direct_kernel():
    prob = ProblemSpec(SpectralModel.dirichlet_laplacian(3), 0.75, classical())
    w = np.array([1.0, -1.0, 0.5])
    out = green_apply(prob, 0.7, 0.2, w)
    ref = kernel_factors(prob.model, 0.75, 0.5) * w
    assert np.max(np.abs(out - ref)) < 1e-14
    # beyond both t and every pinning time the kernel carries nothing
    assert np.all(green_apply(prob, 0.3, 0.9, w) == 0.0)


def test_green_apply_combines_pinning_terms():
    prob = ProblemSpec(SpectralModel.dirichlet_laplacian(2), 0.75, demo_coupling())
    w = np.array([0.5, 1.5])
    t, s = 0.8, 0.45  # s below t and below t_2 = 0.6, above t_1 = 0.3
    out = green_apply(prob, t, s, w)
    o = build_O(prob.model, 0.75, prob.coupling)
    expect = kernel_factors(prob.model, 0.75, t - s) * w
    expect = expect + 0.1 * decay_factors(prob.model, 0.75, t) * o * (
        kernel_factors(prob.model, 0.75, 0.6 - s) * w
    )
    assert np.max(np.abs(out - expect)) < 1e-13


def test_green_form_matches_solver_representation():
    # assemble the combined-kernel form term by term with the quadrature
    # primitives and compare against the solver's two-step trajectory
    alpha = 0.7
    prob = ProblemSpec(SpectralModel.dirichlet_laplacian(2), alpha, demo_coupling())
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(52)
    forcing = rng.standard_normal((129, 2))
    traj, _ = solve_mild(prob, grid, raw_forcing=SampledFn(grid, forcing))
    o = build_O(prob.model, alpha, prob.coupling)

    def kern(lam):
        def h(tau):
            arr = np.atleast_1d(np.asarray(tau, dtype=float))
            return np.array(
                [mittag_leffler(alpha, alpha, -lam * x ** alpha) if x > 0
                 else 1.0 / gamma(alpha) for x in arr]
            )
        return h

    for i in (40, 77, 128):
        t = grid.nodes[i]
        rebuilt = np.zeros(2)
        for m, lam in enumerate(prob.model.lambdas):
            fm = forcing[:, m]
            direct = singular_kernel_weights(alpha, kern(lam), grid, t) @ fm
            pinned = 0.0
            for ck, tk in zip(prob.coupling.weights, prob.coupling.times):
                jk = singular_kernel_weights(alpha, kern(lam), grid, tk) @ fm
                pinned += ck * jk
            decay = decay_factors(prob.model, alpha, t)[m]
            rebuilt[m] = decay * o[m] * pinned + direct
        assert np.max(np.abs(rebuilt - traj.states[i])) < 1e-12


def test_green_weighted_sup_finite():
    prob = demo_problem(n_modes=4)
    sup = green_weighted_sup(prob, n_t=8, n_s=16)
    assert np.isfinite(sup) and sup > 0.0


# -------------------------------------------------------------- nonlinearity


def test_sine_source_matches_dense_quadrature():
    src = sine_collocation_source(6)
    rng = np.random.default_rng(14)
    u = 0.4 * rng.standard_normal(6)
    t = 0.7
    out = src.fn(t, u)
    x = np.linspace(0.0, math.pi, 4097)
    profile = np.zeros_like(x)
    for n in range(1, 7):
        profile += u[n - 1] * math.sqrt(2.0 / math.pi) * np.sin(n * x)
    transformed = np.sin(profile) / (t * t + 1.0)
    for n in range(1, 7):
        coeff = np.trapezoid(
            transformed * math.sqrt(2.0 / math.pi) * np.sin(n * x), x
        )
        assert out[n - 1] == pytest.approx(coeff, abs=1e-9)


def test_sine_source_declared_constants_hold():
    src = sine_collocation_source(8)
    assert src.lipschitz_bound == 1.0
    assert src.source_bound == pytest.approx(math.sqrt(math.pi))
    rng = np.random.default_rng(6)
    for _ in range(25):
        t = float(rng.uniform(0.0, 1.0))
        u = rng.standard_normal(8)
        w = rng.standard_normal(8)
        fu, fw = src.fn(t, u), src.fn(t, w)
        assert np.linalg.norm(fu - fw) <= 1.0 * np.linalg.norm(u - w) + 1e-12
        assert np.linalg.norm(fu) <= math.sqrt(math.pi) / (t * t + 1.0) + 1e-12
    assert np.all(src.fn(0.3, np.zeros(8)) == 0.0)


def test_sine_source_rejects_thin_collocation():
    with pytest.raises(DomainError):
        sine_collocation_source(8, collocation=4)


def test_mode_gain_source():
    src = mode_gain_source(np.array([1.0, -3.0]))
    assert src.lipschitz_bound == 3.0
    assert src.source_bound == 0.0
    out = src.fn(0.5, np.array([2.0, 2.0]))
    assert np.array_equal(out, np.array([2.0, -6.0]))


def test_batched_sources_match_row_by_row():
    # mode_gain_source gives every row its bits in a batch; the sine source's
    # matrix products may round a batch and a row differently
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(2501)
    states = 0.5 * rng.standard_normal((129, 8))
    gain = mode_gain_source(rng.standard_normal(8))
    for src, tol in ((sine_collocation_source(8), 2e-15), (gain, 0.0)):
        batched = src.fn(grid.nodes, states)
        rows = np.array([src.fn(float(t), u) for t, u in zip(grid.nodes, states)])
        assert batched.shape == (129, 8)
        assert np.max(np.abs(batched - rows)) <= tol
        single = src.fn(0.25, states[3])
        assert single.shape == (8,)
        # a 0-d time takes the same path as a float
        for t in (np.float64(grid.nodes[3]), np.array(grid.nodes[3])):
            assert np.array_equal(src.fn(t, states[3]), rows[3])


def _sine_source_by_dst(t, u, collocation=64):
    # the sine source through two scipy DST-I calls
    k = collocation
    coeff = np.zeros(u.shape[:-1] + (k,))
    coeff[..., : u.shape[-1]] = u
    point_vals = math.sqrt(1.0 / (2.0 * math.pi)) * scipy.fft.dst(coeff, type=1, axis=-1)
    transformed = np.sin(point_vals) / np.asarray(t * t + 1.0)[..., None]
    back = math.sqrt(math.pi / 2.0) / (k + 1) * scipy.fft.dst(transformed, type=1, axis=-1)
    return back[..., : u.shape[-1]]


def test_sine_source_matches_scipy_dst():
    grid = TimeGrid(1.0, 512)
    rng = np.random.default_rng(2601)
    src = sine_collocation_source(8)
    states = 0.5 * rng.standard_normal((513, 8))
    got = src.fn(grid.nodes, states)
    assert np.max(np.abs(got - _sine_source_by_dst(grid.nodes, states))) <= 1e-15
    # fewer coefficients than the source was built for, and a wider basis
    u = rng.standard_normal((7, 5))
    t = np.linspace(0.0, 1.0, 7)
    assert np.max(np.abs(src.fn(t, u) - _sine_source_by_dst(t, u))) <= 1e-15
    wide = sine_collocation_source(8, collocation=100)
    assert np.max(np.abs(wide.fn(t, u) - _sine_source_by_dst(t, u, 100))) <= 1e-15


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n_rows=st.integers(1, 600), seed=st.integers(0, 2**32 - 1))
def test_sine_source_batch_matches_row_by_row(n_rows, seed):
    rng = np.random.default_rng(seed)
    src = sine_collocation_source(8)
    times = rng.uniform(0.0, 1.0, n_rows)
    states = rng.standard_normal((n_rows, 8))
    batch = src.fn(times, states)
    rows = np.array([src.fn(float(t), u) for t, u in zip(times, states)])
    assert batch.shape == rows.shape
    assert np.max(np.abs(batch - rows)) <= 2e-15


# ------------------------------------------------------- source failures


def _broken_source_problem(fn, n_modes=4):
    return ProblemSpec(
        SpectralModel.dirichlet_laplacian(n_modes),
        0.75,
        demo_coupling(),
        nonlinearity=Nonlinearity(fn=fn, lipschitz_bound=1.0, source_bound=1.0),
    )


def _nan_from_half(t, u):
    late = (np.asarray(t) >= 0.5)[..., None]
    return np.where(late, np.nan, 0.1 * u)


NAN_MESSAGE = r"source produced a non-finite value at node 8, time t = 0\.5$"
SHAPE_MESSAGE = (
    r"source produced shape \(17, 2\) instead of \(17, 4\), "
    r"starting at node 0, time t = 0\.0$"
)


def test_solve_fails_fast_on_a_bad_source():
    grid = TimeGrid(1.0, 16)
    with pytest.raises(DomainError, match=NAN_MESSAGE):
        solve_mild(_broken_source_problem(_nan_from_half), grid)
    with pytest.raises(DomainError, match=SHAPE_MESSAGE):
        solve_mild(_broken_source_problem(lambda t, u: u[..., :2]), grid)


def test_a_source_error_names_its_picard_iteration():
    # the source turns non-finite only from its third call on, so the
    # message names the iteration as well as the node and the time
    calls = []

    def late_nan(t, u):
        calls.append(t)
        return _nan_from_half(t, u) if len(calls) > 2 else 0.1 * u

    grid = TimeGrid(1.0, 16)
    forcing = SampledFn(grid, 0.3 * np.ones((17, 4)))
    with pytest.raises(DomainError, match="^Picard iteration 3: " + NAN_MESSAGE):
        solve_mild(_broken_source_problem(late_nan), grid, raw_forcing=forcing)
    assert len(calls) == 3


def test_a_source_error_keeps_its_type_through_the_picard_prefix():
    # SourceError is a DomainError; the iteration prefix must not turn it
    # back into a plain one, or the CLI could not give it its own exit code
    calls = []

    def late_nan(t, u):
        calls.append(t)
        return _nan_from_half(t, u) if len(calls) > 1 else 0.1 * u

    grid = TimeGrid(1.0, 16)
    forcing = SampledFn(grid, 0.3 * np.ones((17, 4)))
    with pytest.raises(SourceError, match="^Picard iteration 2: " + NAN_MESSAGE) as caught:
        solve_mild(_broken_source_problem(late_nan), grid, raw_forcing=forcing)
    assert type(caught.value) is SourceError
    # outside a solve it comes unprefixed
    with pytest.raises(SourceError, match="^" + SHAPE_MESSAGE):
        traj = Trajectory(grid, np.zeros((17, 4)))
        verify_mild(_broken_source_problem(lambda t, u: u[..., :2]), traj)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_finite_source_whose_response_overflows_is_a_source_error():
    # gain 1e308 keeps the source finite at Picard iteration 2 (about
    # 3e307), but the product quadrature overflows on it; no numpy warning
    # may escape the step
    grid = TimeGrid(1.0, 16)
    message = r"^Picard iteration 2: the response to a finite source \(sup [0-9.]+e\+307\) is non-finite$"
    with pytest.raises(SourceError, match=message):
        solve_mild(_gain_problem(1e308, 1.0), grid, raw_forcing=_constant_control(grid))


def test_an_assembly_evaluates_the_zero_state_source_once():
    # the first step of every solve reads the source at the zero state; an
    # assembly computes it once, so k solves cost sum(iterations) - (k - 1)
    # calls, the regularized step included
    sine = sine_collocation_source(4)
    calls = []

    def counting(t, u):
        calls.append(u.shape)
        return sine.fn(t, u)

    grid = TimeGrid(1.0, 32)
    asm = ResponseAssembly(_broken_source_problem(counting), grid)
    base = 0.2 * np.ones((33, 4))
    iterations = []
    for solve in (
        lambda: asm.solve(),
        lambda: asm.solve(raw_forcing=SampledFn(grid, base)),
        lambda: asm._picard(base, tol=1e-10, max_iter=200, n=4),
        lambda: asm.solve(raw_forcing=SampledFn(grid, -base)),
    ):
        iterations.append(solve()[1].iterations)
        assert len(calls) == sum(iterations) - (len(iterations) - 1)
    assert iterations[0] == 1 and min(iterations[1:]) > 1  # the zero state is fixed
    # one run limit per (max_iter, identity share), as _transient_run gives it
    assert asm._run_limits == {
        (max_iter, share): _transient_run(asm.problem, max_iter, identity_share=share)
        for max_iter, share in ((SOLVE_MAX_ITER_DEFAULT, 0.0), (200, 0.25))
    }
    # a fresh assembly gives the same bits as the one that reuses
    forcing = SampledFn(grid, -base)
    fresh, _ = ResponseAssembly(asm.problem, grid).solve(raw_forcing=forcing)
    np.testing.assert_array_equal(fresh.states, asm.solve(raw_forcing=forcing)[0].states)


def test_a_source_failing_at_the_zero_state_fails_every_solve():
    # nothing is kept from a failed evaluation: each solve tries again and
    # names the first Picard iteration
    calls = []

    def nan_at_zero(t, u):
        calls.append(t)
        return _nan_from_half(t, u)

    grid = TimeGrid(1.0, 16)
    asm = ResponseAssembly(_broken_source_problem(nan_at_zero), grid)
    for k in range(1, 4):
        with pytest.raises(DomainError, match="^Picard iteration 1: " + NAN_MESSAGE):
            asm.solve()
        assert len(calls) == k


def test_verify_fails_fast_on_a_bad_source():
    grid = TimeGrid(1.0, 16)
    traj = Trajectory(grid, np.zeros((17, 4)))
    with pytest.raises(DomainError, match=NAN_MESSAGE):
        verify_mild(_broken_source_problem(_nan_from_half), traj)
    with pytest.raises(DomainError, match=SHAPE_MESSAGE):
        verify_mild(_broken_source_problem(lambda t, u: u[..., :2]), traj)


# ------------------------------------------------------- divergence


def _gain_problem(gain, horizon, weights=(), times=()):
    return ProblemSpec(
        SpectralModel.dirichlet_laplacian(4),
        0.75,
        NonlocalSpec(np.array(weights), np.array(times), horizon),
        nonlinearity=mode_gain_source(np.full(4, gain)),
        control_gains=1.0,
    )


def _constant_control(grid):
    return SampledFn(grid, 0.3 * np.ones((grid.n_steps + 1, 4)))


def test_transient_run_counts_the_growth_of_the_bound():
    # the bound is (L T**alpha)**n / Gamma(n alpha + 1), which
    # grows while L T**alpha > Gamma(n alpha + 1) / Gamma((n - 1) alpha + 1)
    for gain, horizon in ((1.0, 1.0), (3.0, 1.0), (8.0, 1.0), (50.0, 0.02)):
        log_lt = math.log(gain * horizon ** 0.75)
        grows = sum(
            log_lt > math.lgamma(n * 0.75 + 1.0) - math.lgamma((n - 1) * 0.75 + 1.0)
            for n in range(1, 200)
        )
        assert _transient_run(_gain_problem(gain, horizon), 200) == grows + 10
    # about (L T**alpha)**(1/alpha) / alpha growing updates
    assert _transient_run(_gain_problem(8.0, 1.0), 200) == 21 + 10
    # an identity share of Lipschitz constant 1 or more never collapses
    assert _transient_run(_gain_problem(2.0, 1.0), 200, identity_share=0.5) == 200


def test_solve_stops_early_on_a_diverging_iteration():
    # a Lipschitz-50 source pinned by weight 0.9 at horizon 0.02: every
    # update grows, by a factor of about 18, while a converging run could
    # grow for only 4 (the bound's transient) + 10 updates
    grid = TimeGrid(0.02, 64)
    problem = _gain_problem(50.0, 0.02, [0.9], [0.02])
    with pytest.raises(ConvergenceError, match="diverged: 14 consecutive growing") as exc:
        solve_mild(problem, grid, _constant_control(grid))
    assert exc.value.iterations < 20
    assert len(exc.value.trace) == exc.value.iterations
    assert all(b > a for a, b in zip(exc.value.trace, exc.value.trace[1:]))
    assert exc.value.contraction_estimate > 1.0


def test_solve_stops_on_a_non_finite_iterate():
    # forcing near the float64 ceiling overflows the response integral
    prob = demo_problem(n_modes=2)
    grid = TimeGrid(1.0, 16)
    huge = SampledFn(grid, np.full((17, 2), 1e308))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ConvergenceError, match="non-finite iterate"
    ) as exc:
        solve_mild(prob, grid, raw_forcing=huge)
    assert exc.value.iterations == 1


def test_a_long_transient_growth_still_converges():
    # gain 8 with no pinning points: the updates grow for about 20
    # iterations (the Volterra transient), then collapse
    grid = TimeGrid(1.0, 64)
    problem = _gain_problem(8.0, 1.0)
    with pytest.raises(ConvergenceError, match="did not reach tolerance") as exc:
        solve_mild(problem, grid, _constant_control(grid), max_iter=25)
    growing = [b > a for a, b in zip(exc.value.trace, exc.value.trace[1:])]
    assert sum(growing) >= 15 and all(growing[:15])
    _, rep = solve_mild(problem, grid, _constant_control(grid))
    assert rep.final_residual <= 1e-8
    # gain 3 pinned at 0.4: a few growing updates, then a slow contraction
    _, rep = solve_mild(_gain_problem(3.0, 1.0, [0.2], [0.4]), grid, _constant_control(grid))
    assert rep.final_residual <= 1e-8
