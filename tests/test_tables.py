"""Each Mittag-Leffler table a run needs is built once and then read.

ResponseAssembly holds its response in one form per mode, the product
quadrature's lag weights plus one pinning row, and reads every row of
the response from it (the endpoint rows are the last), and
green_weighted_sup evaluates the Green's function of all its samples
from one inverse-factor build and one table per beta.  Every value read
keeps the bits of the call it replaces, or its rounding where a test
says so.
"""

from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fracevol import cli, greens, specfun, spectral
from fracevol.config import build_grid, build_problem, load_config
from fracevol.errors import DomainError
from fracevol.fraccalc import TimeGrid, singular_kernel_weights
from fracevol.greens import (
    NonlocalSpec,
    ProblemSpec,
    ResponseAssembly,
    build_O,
    green_apply,
    green_weighted_sup,
    sine_collocation_source,
)
from fracevol.spectral import SpectralModel, decay_factors, kernel_factors

DEMO_STEER = Path(__file__).resolve().parent.parent / "demos" / "configs" / "demo_steer.ini"


@pytest.fixture
def ml_calls(monkeypatch):
    """Point counts of every mittag_leffler_array call, through either binding."""
    counts = []
    evaluate = specfun.mittag_leffler_array

    def counted(alpha, beta, z):
        counts.append(np.size(z))
        return evaluate(alpha, beta, z)

    monkeypatch.setattr(specfun, "mittag_leffler_array", counted)
    monkeypatch.setattr(spectral, "mittag_leffler_array", counted)
    return counts


def pinned_problem(n_modes=3, times=(0.3, 0.6), weights=(0.2, 0.1), horizon=1.0):
    return ProblemSpec(
        SpectralModel.dirichlet_laplacian(n_modes),
        0.75,
        NonlocalSpec(np.array(weights), np.array(times), horizon),
        nonlinearity=sine_collocation_source(n_modes),
        control_gains=1.0,
    )


def demo_steer():
    cfg = load_config(str(DEMO_STEER))
    return build_problem(cfg), build_grid(cfg)


# ----------------------------------------------------------- response rows

ROW_CASES = ["demo_steer", "pins_between_nodes", "pin_at_horizon", "non_dyadic_grid"]


def row_case(case):
    if case == "demo_steer":
        return demo_steer()
    if case == "pins_between_nodes":
        return pinned_problem(), TimeGrid(1.0, 32)
    if case == "pin_at_horizon":
        problem = pinned_problem(times=(0.3, 2.0), weights=(0.2, -0.3), horizon=2.0)
        return problem, TimeGrid(2.0, 64)
    # delta = 0.7 / 30 is no binary fraction
    return pinned_problem(horizon=0.7, times=(0.25, 0.5)), TimeGrid(0.7, 30)


@pytest.mark.parametrize("case", ROW_CASES)
def test_response_rows_are_the_impulse_responses(case):
    # rows(i)[m, j] is mode m at node i of the response to a unit impulse
    # at node j, to the FFT's rounding, at every node i
    problem, grid = row_case(case)
    asm = ResponseAssembly(problem, grid)
    n = grid.n_steps
    rows = np.stack([asm.rows(i) for i in range(n + 1)])  # (node i, mode, node j)
    scale = np.max(np.abs(rows), axis=(1, 2))
    for j in range(n + 1):
        impulse = np.zeros((n + 1, problem.n_modes))
        impulse[j] = 1.0
        gap = np.abs(rows[:, :, j] - asm.response(impulse))
        assert np.all(gap <= 1e-15 * scale[:, None]), (j, float(np.max(gap)))


def endpoint_rows_from_scratch(asm):
    """The endpoint rows with the horizon's kernel rows evaluated anew."""
    problem, grid = asm.problem, asm.grid
    lams, alpha = problem.model.lambdas, problem.alpha
    kernel = partial(spectral.ml_table, lams, alpha, alpha)
    rows = singular_kernel_weights(alpha, kernel, grid, grid.horizon).T
    return (asm.decay_nodes[-1] * asm.o)[:, None] * asm.pinning + rows


@pytest.mark.parametrize("case", ROW_CASES)
def test_endpoint_rows_are_the_last_response_row(ml_calls, case):
    # row n reads the assembly's weights, with no table call, and agrees
    # with the rows built anew at the horizon but for the node-0 entry's
    # correction, subtracted after the product rather than before
    problem, grid = row_case(case)
    asm = ResponseAssembly(problem, grid)
    built = len(ml_calls)
    rows = asm.rows(grid.n_steps)
    assert ml_calls[built:] == []
    ref = endpoint_rows_from_scratch(asm)
    assert np.all(np.abs(rows - ref) <= 4 * np.finfo(float).eps * np.abs(ref))


@pytest.mark.parametrize("case", ["demo_steer", "pins_between_nodes", "classical"])
def test_assembly_flow_table_splits_bit_for_bit(ml_calls, case):
    # one E_{alpha,1} call over the nodes and the pinning times gives the
    # bits of a call for each, and the inverse factors of build_O
    if case == "demo_steer":
        problem, grid = demo_steer()
    elif case == "pins_between_nodes":
        problem, grid = pinned_problem(), TimeGrid(1.0, 32)
    else:
        problem, grid = pinned_problem(times=(), weights=()), TimeGrid(1.0, 16)
    asm = ResponseAssembly(problem, grid)
    assert len(ml_calls) == 2 + problem.coupling.n_points
    lams, alpha = problem.model.lambdas, problem.alpha
    for got, times in ((asm.decay_nodes, grid.nodes), (asm.decay_at_pins, problem.coupling.times)):
        alone = spectral.ml_table(lams, alpha, 1.0, times)
        assert got.shape == alone.shape and got.tobytes() == alone.tobytes()
    o = build_O(problem.model, alpha, problem.coupling)
    assert asm.o.tobytes() == o.tobytes()


def test_steer_on_demo_steer_builds_each_table_once(ml_calls, tmp_path):
    # one flow table at the nodes and the pinning times (which also gives
    # the inverse factors), the lag table and two pinning rows; the
    # endpoint rows read the quadrature's weights; every table entry is
    # one point, repeated arguments included
    assert cli.main(["steer", "--config", str(DEMO_STEER), "--out", str(tmp_path / "s")]) == 0
    assert (len(ml_calls), sum(ml_calls)) == (4, 11952)


# --------------------------------------------------------- Green's function


def green_one_sample(problem, t, s, w):
    """G(t, s) w from kernel_factors and decay_factors at this one sample."""
    model, alpha = problem.model, problem.alpha
    o = build_O(model, alpha, problem.coupling)
    out = np.zeros(problem.n_modes)
    for ck, tk in zip(problem.coupling.weights, problem.coupling.times):
        if s < tk:
            correction = kernel_factors(model, alpha, float(tk - s))
            out += ck * decay_factors(model, alpha, float(t)) * o * (correction * w)
    if s < t:
        out += kernel_factors(model, alpha, float(t - s)) * w
    return out


GREEN_PROBLEMS = {
    "demo": pinned_problem(n_modes=8),
    "three_pins": pinned_problem(4, (0.25, 0.5, 1.0), (0.3, -0.2, 0.1)),
    "classical": pinned_problem(3, (), ()),
}


@pytest.mark.parametrize("name", sorted(GREEN_PROBLEMS))
def test_green_apply_keeps_the_bits_of_one_sample(name):
    problem = GREEN_PROBLEMS[name]
    rng = np.random.default_rng(11)
    for t, s in rng.uniform(0.0, 1.0, (30, 2)):
        w = rng.standard_normal(problem.n_modes)
        got = green_apply(problem, float(t), float(s), w)
        assert np.array_equal(got, green_one_sample(problem, float(t), float(s), w))


@pytest.mark.parametrize("name", sorted(GREEN_PROBLEMS))
def test_green_weighted_sup_equals_the_sample_loop(name):
    problem = GREEN_PROBLEMS[name]
    n_t, n_s = 6, 10
    best = 0.0
    ones = np.ones(problem.n_modes)
    for i in range(n_t):
        t = problem.horizon * (i + 0.61803398875) / n_t
        for j in range(n_s):
            s = t * (j + 0.38196601125) / n_s
            g = green_one_sample(problem, t, s, ones)
            best = max(best, (t - s) ** (1.0 - problem.alpha) * float(np.max(np.abs(g))))
    assert green_weighted_sup(problem, n_t, n_s) == best


def test_green_weighted_sup_skips_samples_on_the_singular_set(monkeypatch):
    # with n_s = 1 the only s of each t is 0.38196601125 t; a pinning time
    # placed on one of them removes that sample, as green_apply rejects it
    t = 0.5 * 0.61803398875
    problem = pinned_problem(times=(t * 0.38196601125,), weights=(0.2,))
    with pytest.raises(DomainError, match="pinning time"):
        green_apply(problem, t, t * 0.38196601125, np.ones(3))
    sizes = []
    values = greens._green_values

    def counted(problem, t, s, w):
        sizes.append(t.size)
        return values(problem, t, s, w)

    monkeypatch.setattr(greens, "_green_values", counted)
    assert np.isfinite(green_weighted_sup(problem, 2, 1))
    assert sizes == [1]


def test_green_weighted_sup_builds_once(ml_calls, monkeypatch):
    builds = []
    build = greens.build_O

    def counted(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(greens, "build_O", counted)
    sup = green_weighted_sup(pinned_problem(n_modes=8))
    assert sup == 0.9502606714697462
    # one inverse-factor build (one flow table for both pins), then one
    # E_{alpha,alpha} table and one E_{alpha,1} table for all 768 samples
    assert len(builds) == 1
    assert len(ml_calls) == 1 + 2
