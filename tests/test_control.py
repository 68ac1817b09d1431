"""Tests for Gramian steering and the regularized solution map."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fracevol.control import (
    ControlSignal,
    apply_K,
    gramian,
    operator_norm_estimate,
    reachability_experiment,
    regularized_W,
    solution_map_W,
    steer,
    trajectory_sup_norm,
    trapezoid_weights,
    w_growth_fit,
)
from fracevol.constants import QUADRATURE_MATCH_TOL
from fracevol.errors import ConvergenceError, DomainError, UnsupportedRegimeError
from fracevol.fraccalc import SampledFn, TimeGrid
from fracevol.greens import (
    NonlocalSpec,
    ProblemSpec,
    Trajectory,
    _eval_source,
    mode_gain_source,
    sine_collocation_source,
    solve_mild,
)
from fracevol.spectral import SpectralModel


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


def single_mode(lam=2.0, alpha=0.75, kappa=1.0):
    return ProblemSpec(
        SpectralModel(np.array([lam])), alpha, classical(), control_gains=kappa
    )


# ------------------------------------------------------------------ helpers


def test_trapezoid_weights():
    w = trapezoid_weights(TimeGrid(1.0, 4))
    assert np.allclose(w, 0.25 * np.array([0.5, 1.0, 1.0, 1.0, 0.5]))
    assert w.sum() == pytest.approx(1.0)


def test_norm_helpers():
    grid = TimeGrid(1.0, 4)
    traj_states = np.zeros((5, 2))
    traj_states[3] = [3.0, 4.0]
    from fracevol.greens import Trajectory

    assert trajectory_sup_norm(Trajectory(grid, traj_states)) == pytest.approx(5.0)
    from fracevol.control import signal_l2_norm

    assert signal_l2_norm(grid, np.ones((5, 2))) == pytest.approx(math.sqrt(2.0))


# ------------------------------------------------------------------ apply_K


def test_apply_K_zero_control():
    prob = demo_problem(n_modes=3)
    grid = TimeGrid(1.0, 64)
    out = apply_K(prob, ControlSignal(grid, np.zeros((65, 3))))
    assert np.all(out.states == 0.0)


def test_apply_K_constant_control_single_mode():
    # kappa = 2 on the problem must NOT leak in: apply_K is the raw
    # forcing response and matches the unscaled kernel integral
    lam, alpha = 3.0, 0.75
    prob = single_mode(lam, alpha, kappa=2.0)
    grid = TimeGrid(1.0, 512)
    out = apply_K(prob, ControlSignal(grid, np.full((513, 1), 1.0)))
    ref = np.array(
        [oracles.resolvent_kernel_integral(alpha, lam, t) if t else 0.0
         for t in grid.nodes]
    )
    assert np.max(np.abs(out.states[:, 0] - ref)) < 1e-3


def test_apply_K_additive():
    prob = demo_problem(n_modes=4)
    grid = TimeGrid(1.0, 96)
    rng = np.random.default_rng(990)
    a = rng.standard_normal((97, 4))
    b = rng.standard_normal((97, 4))
    ka = apply_K(prob, ControlSignal(grid, a))
    kb = apply_K(prob, ControlSignal(grid, b))
    kab = apply_K(prob, ControlSignal(grid, a + b))
    assert np.max(np.abs(kab.states - ka.states - kb.states)) < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(-10.0, 10.0).map(lambda x: round(x, 3)),
    b=st.floats(-10.0, 10.0).map(lambda x: round(x, 3)),
    alpha=st.floats(0.2, 1.0),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_K_is_linear(a, b, alpha, n, seed):
    prob = demo_problem(n_modes=3, alpha=alpha)
    grid = TimeGrid(1.0, n)
    mu, nu = np.random.default_rng(seed).standard_normal((2, n + 1, 3))
    k_mu = apply_K(prob, ControlSignal(grid, mu)).states
    k_nu = apply_K(prob, ControlSignal(grid, nu)).states
    mixed = apply_K(prob, ControlSignal(grid, a * mu + b * nu)).states
    scale = np.max(np.abs(a * k_mu) + np.abs(b * k_nu))
    assert np.max(np.abs(mixed - (a * k_mu + b * k_nu))) <= QUADRATURE_MATCH_TOL * scale


def test_apply_K_ignores_nonlinearity():
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((65, 4))
    with_f = demo_problem(n_modes=4)
    without_f = ProblemSpec(
        with_f.model, with_f.alpha, with_f.coupling, control_gains=1.0
    )
    out_a = apply_K(with_f, ControlSignal(grid, v))
    out_b = apply_K(without_f, ControlSignal(grid, v))
    assert np.array_equal(out_a.states, out_b.states)


def test_apply_K_checks_mode_count():
    prob = demo_problem(n_modes=4)
    grid = TimeGrid(1.0, 32)
    with pytest.raises(DomainError):
        apply_K(prob, ControlSignal(grid, np.zeros((33, 3))))


# ---------------------------------------------------------------- nemytskii


def test_nemytskii_without_nonlinearity_is_zero():
    prob = single_mode()
    grid = TimeGrid(1.0, 32)
    assert np.all(_eval_source(prob, grid.nodes, np.ones((33, 1))) == 0.0)


def test_nemytskii_respects_declared_bounds():
    prob = demo_problem(n_modes=6)
    grid = TimeGrid(1.0, 48)
    rng = np.random.default_rng(61)
    z = Trajectory(grid, rng.standard_normal((49, 6)))
    out = Trajectory(grid, _eval_source(prob, grid.nodes, z.states))
    f = prob.nonlinearity
    bound = f.lipschitz_bound * trajectory_sup_norm(z) + f.source_bound
    assert trajectory_sup_norm(out) <= bound + 1e-12


def test_nemytskii_constant_state_scales_with_time_profile():
    prob = demo_problem(n_modes=4)
    grid = TimeGrid(1.0, 16)
    z = np.tile(np.array([0.3, -0.1, 0.2, 0.0]), (17, 1))
    out = _eval_source(prob, grid.nodes, z)
    # the demo source separates: spatial transform times 1 / (t^2 + 1)
    scaled = out * (grid.nodes ** 2 + 1.0)[:, None]
    assert np.max(np.abs(scaled - scaled[0])) < 1e-12


def test_nemytskii_fails_fast_on_a_bad_source():
    from fracevol.greens import Nonlinearity

    grid = TimeGrid(1.0, 16)
    z = np.ones((17, 4))
    for fn, message in (
        (
            lambda t, u: np.where((np.asarray(t) >= 0.5)[..., None], np.inf, u),
            r"source produced a non-finite value at node 8, time t = 0\.5$",
        ),
        (
            lambda t, u: u[..., :2],
            r"source produced shape \(17, 2\) instead of \(17, 4\), "
            r"starting at node 0, time t = 0\.0$",
        ),
    ):
        prob = ProblemSpec(
            SpectralModel.dirichlet_laplacian(4),
            0.75,
            demo_coupling(),
            nonlinearity=Nonlinearity(fn=fn, lipschitz_bound=1.0, source_bound=1.0),
        )
        with pytest.raises(DomainError, match=message):
            _eval_source(prob, grid.nodes, z)


# ------------------------------------------------------------------ gramian


def test_gramian_rejects_small_alpha():
    for alpha in (0.3, 0.5):
        prob = demo_problem(alpha=alpha)
        with pytest.raises(UnsupportedRegimeError):
            gramian(prob, TimeGrid(1.0, 64))


def test_gramian_zero_gains():
    prob = ProblemSpec(
        SpectralModel.dirichlet_laplacian(3), 0.75, demo_coupling(), control_gains=0.0
    )
    assert np.all(gramian(prob, TimeGrid(1.0, 128)) == 0.0)


def test_gramian_classical_exponential_closed_form():
    # at order one the response is exponential and the energy integral
    # kappa^2 * int_0^a e^{-2 lam (a-s)} ds has a closed form
    lam, kappa, a = 3.0, 2.0, 1.0
    prob = ProblemSpec(
        SpectralModel(np.array([lam])), 1.0, classical(a), control_gains=kappa
    )
    g = gramian(prob, TimeGrid(a, 512))[0]
    closed = kappa ** 2 * (1.0 - math.exp(-2.0 * lam * a)) / (2.0 * lam)
    assert g == pytest.approx(closed, rel=1e-4)


def test_gramian_low_mode_approaches_continuum():
    # the endpoint kernel squared is (a-s)^{2 alpha - 2}; its integral is
    # computed by quadrature after the smoothing substitution s = x^2,
    # and the discrete weight sum creeps toward it at the slow endpoint
    # rate, so only a coarse match is honest here
    from mpmath import mp

    lam = 1.0
    prob = single_mode(lam=lam, alpha=0.75, kappa=1.0)
    with mp.workdps(30):
        integrand = lambda x: 2.0 * oracles.ml_oracle(
            0.75, 0.75, -lam * x ** mp.mpf("1.5")
        ) ** 2
        continuum = float(mp.quad(integrand, [0, 1]))
    gaps = []
    for n in (256, 512, 1024):
        g = gramian(prob, TimeGrid(1.0, n))[0]
        gaps.append(abs(g - continuum) / continuum)
    assert gaps[-1] <= 2e-2
    assert gaps[0] > gaps[1] > gaps[2]


def test_gramian_demo_positive_and_refines():
    prob = demo_problem()
    g256 = gramian(prob, TimeGrid(1.0, 256))
    g512 = gramian(prob, TimeGrid(1.0, 512))
    g1024 = gramian(prob, TimeGrid(1.0, 1024))
    assert g256.shape == (8,)
    assert np.all(g1024 > 0.0)
    coarse = np.max(np.abs(g256 - g512) / g512)
    fine = np.max(np.abs(g512 - g1024) / g1024)
    assert fine <= 0.75 * coarse


# -------------------------------------------------------------------- steer


def test_steer_validates_inputs():
    prob = demo_problem(n_modes=2)
    grid = TimeGrid(1.0, 64)
    with pytest.raises(DomainError):
        steer(prob, grid, np.zeros(3), 1e-3)
    with pytest.raises(DomainError):
        steer(prob, grid, np.zeros(2), 0.0)
    with pytest.raises(DomainError):
        steer(prob, grid, np.array([np.nan, 0.0]), 1e-3)
    with pytest.raises(DomainError):
        steer(prob, grid, np.zeros(2), 1e-3, max_outer=0)
    with pytest.raises(UnsupportedRegimeError):
        steer(demo_problem(alpha=0.4), grid, np.zeros(8), 1e-3)


def test_steer_linear_matches_normal_equation_prediction():
    # without a nonlinearity the outer loop closes in one correction and
    # the endpoint error equals rho |target| / (rho + Gamma) exactly
    prob = single_mode(lam=2.0, alpha=0.75, kappa=1.0)
    grid = TimeGrid(1.0, 256)
    gam = gramian(prob, grid)[0]
    target = np.array([0.35])
    for rho in (1e-1, 1e-3, 1e-5):
        res = steer(prob, grid, target, rho)
        predicted = rho * abs(target[0]) / (rho + gam)
        assert res.endpoint_error == pytest.approx(predicted, rel=1e-6)
        assert res.outer_iterations <= 3
        assert not res.stagnant


def test_steer_coupled_linear_matches_prediction():
    prob = ProblemSpec(
        SpectralModel.dirichlet_laplacian(2), 0.75, demo_coupling(), control_gains=1.0
    )
    grid = TimeGrid(1.0, 256)
    gam = gramian(prob, grid)
    target = np.array([0.2, -0.1])
    rho = 1e-4
    res = steer(prob, grid, target, rho)
    predicted = np.linalg.norm(rho * target / (rho + gam))
    assert res.endpoint_error == pytest.approx(predicted, rel=1e-8)


def test_steer_zero_target_linear_needs_no_control():
    prob = single_mode()
    grid = TimeGrid(1.0, 128)
    res = steer(prob, grid, np.zeros(1), 1e-3)
    assert res.endpoint_error == 0.0
    assert res.control_energy == 0.0
    assert np.all(res.control.values == 0.0)


def test_steer_zero_gains_reports_stagnation():
    prob = ProblemSpec(
        SpectralModel.dirichlet_laplacian(3),
        0.75,
        demo_coupling(),
        nonlinearity=sine_collocation_source(3),
        control_gains=0.0,
    )
    grid = TimeGrid(1.0, 128)
    target = np.array([0.1, 0.0, 0.0])
    res = steer(prob, grid, target, 1e-3)
    assert res.stagnant
    assert res.outer_iterations == 0
    assert res.control_energy == 0.0
    uncontrolled, _ = solve_mild(prob, grid)
    assert res.endpoint_error == pytest.approx(
        np.linalg.norm(uncontrolled.final - target), rel=1e-12
    )


def test_steer_endpoint_identity():
    # the reported endpoint is the final state of an honest re-solve with
    # the returned control
    prob = demo_problem(n_modes=4)
    grid = TimeGrid(1.0, 128)
    target = np.array([0.1, 0.025, 0.011, 0.00625])
    res = steer(prob, grid, target, 1e-3)
    replay, _ = solve_mild(prob, grid, res.control)
    assert np.max(np.abs(replay.final - res.endpoint)) < 1e-10


def test_steer_builds_one_assembly(monkeypatch):
    from fracevol import greens

    built = []
    init = greens.ResponseAssembly.__init__

    def counting_init(self, problem, grid):
        built.append(grid.n_steps)
        init(self, problem, grid)

    monkeypatch.setattr(greens.ResponseAssembly, "__init__", counting_init)
    prob = demo_problem(n_modes=3)
    res = steer(prob, TimeGrid(1.0, 32), np.array([0.05, 0.01, 0.0]), 1e-3)
    assert res.outer_iterations > 1
    assert built == [32]


def test_reachability_experiment_builds_one_assembly(monkeypatch):
    from fracevol import greens

    built = []
    init = greens.ResponseAssembly.__init__

    def counting_init(self, problem, grid):
        built.append(grid.n_steps)
        init(self, problem, grid)

    monkeypatch.setattr(greens.ResponseAssembly, "__init__", counting_init)
    prob = demo_problem(n_modes=3)
    grid = TimeGrid(1.0, 32)
    targets = [np.array([0.05, 0.01, 0.0]), np.array([0.02, 0.0, 0.005])]
    table = reachability_experiment(prob, grid, targets, [1e-2, 1e-3])
    assert len(table.rows) == 4
    assert built == [32]
    # every cell is what a lone steer call gives
    for tid, rho, err, energy, outer in table.rows:
        res = steer(prob, grid, targets[tid], rho)
        assert (err, energy, outer) == (res.endpoint_error, res.control_energy, res.outer_iterations)


def test_reachability_sweep_is_independent_of_what_its_assembly_has_seen():
    # the shared assembly keeps the zero-state source and the run limit
    # between cells; neither may make a cell depend on the cells before it
    prob = demo_problem(n_modes=3)
    grid = TimeGrid(1.0, 48)
    targets = [np.array([0.04, 0.01, 0.002]), np.array([0.0, 0.02, 0.0])]
    rhos = [1e-2, 1e-4]
    table = reachability_experiment(prob, grid, targets, rhos)
    assert len(table.rows) == 4
    for tid, rho, err, energy, outer in table.rows:
        res = steer(prob, grid, targets[tid], rho)  # a fresh assembly each
        assert (err, energy, outer) == (
            res.endpoint_error,
            res.control_energy,
            res.outer_iterations,
        )
    assert reachability_experiment(prob, grid, targets, rhos).rows == table.rows


def test_reachability_rejects_bad_cells_before_any_work():
    prob = single_mode()
    grid = TimeGrid(1.0, 64)
    with pytest.raises(DomainError, match="rhos"):
        reachability_experiment(prob, grid, [np.zeros(1)], [math.inf, 1e-3])
    with pytest.raises(DomainError, match="target"):
        reachability_experiment(prob, grid, [np.zeros(1), np.zeros(2)], [1e-3])
    with pytest.raises(DomainError, match="max_outer"):
        reachability_experiment(prob, grid, [np.zeros(1)], [1e-3], max_outer=0)
    assert reachability_experiment(prob, grid, [], [1e-3]).rows == ()


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_steer_rejects_bad_tol_before_setup(monkeypatch, tol):
    from fracevol import control

    def no_setup(problem, grid):
        raise AssertionError("steering setup built for a bad tol")

    monkeypatch.setattr(control, "_steering_setup", no_setup)
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        steer(demo_problem(n_modes=2), TimeGrid(1.0, 32), np.zeros(2), 1e-3, tol=tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_reachability_rejects_bad_tol_before_setup(monkeypatch, tol):
    from fracevol import control

    def no_setup(problem, grid):
        raise AssertionError("steering setup built for a bad tol")

    monkeypatch.setattr(control, "_steering_setup", no_setup)
    prob, grid = demo_problem(n_modes=2), TimeGrid(1.0, 32)
    with pytest.raises(DomainError, match="tol must be positive and finite"):
        reachability_experiment(prob, grid, [np.zeros(2)], [1e-3], tol=tol)


def test_public_steering_functionals_equal_the_shared_assembly():
    from fracevol.control import _steering_setup
    from fracevol.greens import endpoint_response_rows

    prob = demo_problem(n_modes=3)
    prob = ProblemSpec(prob.model, prob.alpha, prob.coupling, prob.nonlinearity, 0.7)
    grid = TimeGrid(1.0, 32)
    asm, rows, scaled, gamma_modes = _steering_setup(prob, grid)
    assert np.array_equal(asm.rows(grid.n_steps), rows)
    assert np.array_equal(scaled, 0.7 * rows)
    omega = trapezoid_weights(grid)
    assert np.array_equal(gamma_modes, np.sum(scaled ** 2 / omega, axis=1))
    assert np.array_equal(endpoint_response_rows(prob, grid), rows)
    assert np.array_equal(gramian(prob, grid), gamma_modes)


def test_steer_demo_reaches_smooth_target():
    prob = demo_problem()
    grid = TimeGrid(1.0, 512)
    target = 0.1 / np.arange(1.0, 9.0) ** 2
    res = steer(prob, grid, target, 1e-5)
    assert res.endpoint_error <= 1e-2
    assert res.outer_iterations < 50
    assert res.control_energy > 0.0


def test_steer_raises_when_outer_loop_stalls():
    prob = demo_problem(n_modes=4)
    grid = TimeGrid(1.0, 64)
    target = np.array([0.3, 0.1, 0.05, 0.02])
    with pytest.raises(ConvergenceError) as exc:
        steer(prob, grid, target, 1e-5, max_outer=2)
    assert len(exc.value.trace) == 2


# ------------------------------------------------------------- reachability


def test_reachability_validates_rho_ladder():
    prob = single_mode()
    grid = TimeGrid(1.0, 64)
    with pytest.raises(DomainError):
        reachability_experiment(prob, grid, [np.zeros(1)], [1e-3, 1e-2])
    with pytest.raises(DomainError):
        reachability_experiment(prob, grid, [np.zeros(1)], [1e-2, -1e-3])


def test_reachability_errors_fall_with_rho():
    prob = single_mode(lam=1.0, alpha=0.75)
    grid = TimeGrid(1.0, 256)
    rhos = [10.0 ** (-k) for k in range(1, 6)]
    table = reachability_experiment(prob, grid, [np.array([0.5])], rhos)
    assert len(table.rows) == 5
    errs = [row[2] for row in table.rows]
    energies = [row[3] for row in table.rows]
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))
    # five decades of rho buy at least three orders of magnitude overall
    assert errs[0] / errs[-1] >= 1e3
    assert all(a <= b + 1e-15 for a, b in zip(energies, energies[1:]))


def test_reachability_zero_target_rows_are_zero():
    prob = single_mode()
    grid = TimeGrid(1.0, 128)
    table = reachability_experiment(
        prob, grid, [np.zeros(1), np.array([0.4])], [1e-2, 1e-3]
    )
    assert len(table.rows) == 4
    for row in table.rows:
        if row[0] == 0:
            assert row[2] == 0.0 and row[3] == 0.0


# ----------------------------------------------- quadratic-form positivity


def test_control_map_quadratic_form_nonnegative():
    prob = single_mode(lam=2.0, alpha=0.75)
    grid = TimeGrid(1.0, 128)
    w = trapezoid_weights(grid)
    rng = np.random.default_rng(2024)
    worst = np.inf
    for _ in range(100):
        mu = rng.standard_normal(129)
        out = apply_K(prob, ControlSignal(grid, mu[:, None])).states[:, 0]
        worst = min(worst, float(np.sum(w * mu * out)))
    assert worst >= -1e-12


def test_control_map_exponential_case_sharper_bound():
    # at order one the kernel is a genuine semigroup and the quadratic form
    # dominates lam times the squared weighted norm of the output
    lam = 2.0
    prob = single_mode(lam=lam, alpha=1.0)
    grid = TimeGrid(1.0, 128)
    w = trapezoid_weights(grid)
    rng = np.random.default_rng(515)
    worst = np.inf
    for _ in range(100):
        mu = rng.standard_normal(129)
        out = apply_K(prob, ControlSignal(grid, mu[:, None])).states[:, 0]
        margin = np.sum(w * mu * out) - lam * np.sum(w * out * out)
        worst = min(worst, float(margin))
    assert worst >= -1e-9


# ------------------------------------------------------------ solution maps


def test_solution_map_without_nonlinearity_is_K():
    prob = single_mode(lam=3.0, alpha=0.75, kappa=1.0)
    grid = TimeGrid(1.0, 128)
    rng = np.random.default_rng(40)
    mu = rng.standard_normal((129, 1))
    direct = apply_K(prob, ControlSignal(grid, mu))
    via_w, _ = solution_map_W(prob, SampledFn(grid, mu))
    assert np.max(np.abs(direct.states - via_w.states)) < 1e-10


def test_solution_map_zero_input_zero_source():
    prob = single_mode()
    grid = TimeGrid(1.0, 64)
    traj, rep = solution_map_W(prob, SampledFn(grid, np.zeros((65, 1))))
    assert np.all(traj.states == 0.0)
    assert rep.iterations == 1


def test_solution_map_growth_fit():
    prob = demo_problem(n_modes=4)
    grid = TimeGrid(1.0, 96)
    a, b = w_growth_fit(prob, grid)
    assert a >= 0.0 and b > 0.0
    rng = np.random.default_rng(77)
    for _ in range(3):
        mu = rng.standard_normal((97, 4))
        traj, _ = solution_map_W(prob, SampledFn(grid, mu))
        norm_mu = float(np.max(np.linalg.norm(mu, axis=1)))
        assert trajectory_sup_norm(traj) <= 1.2 * (a + b * norm_mu) + 1e-9


def test_regularized_map_without_nonlinearity_is_exact():
    prob = single_mode(lam=2.0, alpha=0.75)
    grid = TimeGrid(1.0, 64)
    rng = np.random.default_rng(11)
    mu = SampledFn(grid, rng.standard_normal((65, 1)))
    exact, _ = solution_map_W(prob, mu)
    for n in (4, 32):
        approx, _ = regularized_W(prob, mu, n)
        # the auxiliary 1/n channel only feeds the nonlinearity; without one
        # the iteration collapses onto the plain solution map
        assert np.max(np.abs(approx.states - exact.states)) < 1e-9


def test_regularized_map_dissipative_envelope():
    # f(u) = -u is 1-Lipschitz and dissipative with unit constant, so
    # consecutive dyadic levels obey the 4 q^2 / (beta n) energy envelope
    beta_dissipative = 1.0
    prob = ProblemSpec(
        SpectralModel.dirichlet_laplacian(3),
        0.75,
        NonlocalSpec(np.array([0.2]), np.array([0.4]), 1.0),
        nonlinearity=mode_gain_source(np.array([-1.0, -1.0, -1.0])),
        control_gains=1.0,
    )
    grid = TimeGrid(1.0, 256)
    mu = SampledFn(grid, 0.25 * np.ones((257, 3)))
    w = trapezoid_weights(grid)
    levels = {}
    for n in (4, 8, 16, 32, 64):
        traj, _ = regularized_W(prob, mu, n, tol=1e-11)
        levels[n] = traj
    for n in (4, 8, 16, 32):
        un = levels[n]
        u2n = levels[2 * n]
        gap = np.linalg.norm(un.states - u2n.states, axis=1)
        energy_gap = float(np.sum(w * gap * gap))
        f_of_un = Trajectory(grid, _eval_source(prob, grid.nodes, un.states))
        q = trajectory_sup_norm(f_of_un)
        assert energy_gap <= 4.0 * q * q / (beta_dissipative * n)


def test_regularized_map_converges_to_plain_map():
    prob = ProblemSpec(
        SpectralModel.dirichlet_laplacian(3),
        0.75,
        NonlocalSpec(np.array([0.2]), np.array([0.4]), 1.0),
        nonlinearity=mode_gain_source(np.array([-1.0, -1.0, -1.0])),
        control_gains=1.0,
    )
    grid = TimeGrid(1.0, 128)
    mu = SampledFn(grid, 0.25 * np.ones((129, 3)))
    plain, _ = solution_map_W(prob, mu, tol=1e-12)
    huge_n, _ = regularized_W(prob, mu, 10 ** 6, tol=1e-12)
    assert np.max(np.abs(plain.states - huge_n.states)) <= 1e-6


# sha256 of the states' bytes, then iterations, final_residual,
# nonlocal_residual, contraction_estimate and control_sup, taken with the
# product quadrature's FFT at length _fast_len(2 n), the sine source's
# rows in one product each way and its decay factor applied after its
# projection, the Mittag-Leffler branch cut serving the points past the
# series band, each step-2h row summed over its leading nodes, the
# inverse factors 1 / (1 - q) in closed form, and the initial state
# o * (P . F) from one pinning row P per mode (they are float64 bits, so
# another BLAS or FFT build may move them)
GOLDEN_SOLVES = {
    3: (
        "5dbb6a7ea42b0e5857bc0453a99b347247f3c8d7c7e88f4018021078bb8c393c",
        35, 8.419429042838544e-09, 0.01620143677439998, 0.6008961223786561,
        0.8660254037844386,
    ),
    10 ** 6: (
        "0edeb6b37e7e974aba7aa6177c211e11c4d48f6f2e1f5dc168a7a5c2d7f30c6f",
        17, 4.8513703609920356e-09, 9.739894742136587e-05, 0.3163678185517206,
        0.8660254037844386,
    ),
    None: (
        "e43416f1e8508db1615efcc584f0eed920cd89476cdaace34e951c3446b875d1",
        17, 4.85116496973248e-09, 3.469446951953614e-18, 0.316366929518699,
        0.8660254037844386,
    ),
}


@pytest.mark.parametrize("n", [3, 10 ** 6, None])
def test_picard_solves_keep_their_golden_bits(n):
    # n is not a power of two, so source / n must stay a division; None is
    # solve_mild on the same pinned problem with the sine source
    grid = TimeGrid(1.0, 64)
    mu = SampledFn(grid, 0.5 * np.cos(np.outer(grid.nodes, [1.0, 2.0, 3.0])))
    if n is None:
        traj, rep = solve_mild(demo_problem(n_modes=3), grid, mu)
    else:
        traj, rep = regularized_W(demo_problem(n_modes=3), mu, n)
    got = (
        hashlib.sha256(traj.states.tobytes()).hexdigest(),
        rep.iterations,
        rep.final_residual,
        rep.nonlocal_residual,
        rep.contraction_estimate,
        rep.control_sup,
    )
    assert got == GOLDEN_SOLVES[n]


def test_regularized_map_validates_n():
    prob = single_mode()
    grid = TimeGrid(1.0, 32)
    mu = SampledFn(grid, np.zeros((33, 1)))
    with pytest.raises(DomainError):
        regularized_W(prob, mu, 0)


def test_regularized_map_and_apply_K_check_forcing_columns():
    # one forcing column per mode, as solution_map_W demands: a single
    # column is not broadcast to every mode, and too many are a DomainError
    prob = demo_problem(n_modes=3)
    grid = TimeGrid(1.0, 32)
    for n_cols in (1, 5):
        mu = SampledFn(grid, np.ones((33, n_cols)))
        with pytest.raises(DomainError, match="values must be"):
            solution_map_W(prob, mu)
        with pytest.raises(DomainError, match="values must be"):
            regularized_W(prob, mu, 4)
        with pytest.raises(DomainError, match="values must be"):
            apply_K(prob, mu)


# -------------------------------------------------------------- norm probes


def _norm_ratio(prob, grid, mu):
    from fracevol.control import signal_l2_norm

    return trajectory_sup_norm(apply_K(prob, ControlSignal(grid, mu))) / signal_l2_norm(grid, mu)


def test_operator_norm_estimate_is_the_exact_discrete_norm():
    from fracevol.greens import ResponseAssembly

    prob = demo_problem(n_modes=3)
    # against the dense matrix of impulse responses: mode m at node i is
    # row i of the (nodes x nodes) block A_m of mode m, whose norm from the
    # trapezoid L2 norm to the sup norm is its largest row norm under
    # 1 / omega, and the modes do not mix
    grid = TimeGrid(1.0, 24)
    omega = trapezoid_weights(grid)
    asm = ResponseAssembly(prob, grid)
    dense = np.stack([asm.response(np.outer(np.eye(25)[j], np.ones(3))) for j in range(25)], 2)
    exact = math.sqrt(np.max(np.sum(dense ** 2 / omega, axis=2)))
    assert operator_norm_estimate(prob, grid) == pytest.approx(exact, rel=1e-13, abs=0.0)
    # at or above every seeded random probe, and reached by the unit input
    # built from its maximising row
    grid = TimeGrid(1.0, 96)
    norm = operator_norm_estimate(prob, grid)
    rng = np.random.default_rng(20260822)
    for _ in range(8):
        assert _norm_ratio(prob, grid, rng.standard_normal((97, 3))) <= norm
    asm, omega = ResponseAssembly(prob, grid), trapezoid_weights(grid)
    sums = np.array([np.sum(asm.rows(i) ** 2 / omega, axis=1) for i in range(97)])
    i, m = np.unravel_index(np.argmax(sums), sums.shape)
    mu = np.zeros((97, 3))
    mu[:, m] = asm.rows(i)[m] / omega
    assert _norm_ratio(prob, grid, mu) == pytest.approx(norm, rel=1e-12, abs=0.0)
