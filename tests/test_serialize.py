"""Round-trip and format tests for the plain-text artifacts."""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracevol.config import VERIFY_EQUATION_TOL_DEFAULT, VERIFY_PINNING_TOL_DEFAULT
from fracevol.control import ReachabilityTable
from fracevol.errors import ConfigError
from fracevol.fraccalc import SampledFn, TimeGrid
from fracevol.greens import (
    NonlocalSpec,
    ProblemSpec,
    SolveReport,
    Trajectory,
    VerificationReport,
    sine_collocation_source,
    solve_mild,
    verify_mild,
)
from fracevol.spectral import SpectralModel
from fracevol.serialize import (
    format_float,
    read_trajectory,
    render_verification,
    write_reachability_table,
    write_solve_report,
    write_trajectory,
)


def random_trajectory(seed=5, n_steps=17, n_modes=3):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(0.7, n_steps)
    return Trajectory(grid, rng.standard_normal((n_steps + 1, n_modes)))


def test_format_float_repr_faithful():
    for x in (1.0 / 3.0, 1e-300, -2.5e17, 0.1 + 0.2):
        assert float(format_float(x)) == x


def test_trajectory_round_trip_exact(tmp_path):
    traj = random_trajectory()
    path = str(tmp_path / "t.txt")
    write_trajectory(path, traj)
    back = read_trajectory(path)
    assert back.grid.n_steps == traj.grid.n_steps
    assert back.grid.horizon == traj.grid.horizon
    assert np.array_equal(back.states, traj.states)


def test_trajectory_write_is_byte_stable(tmp_path):
    traj = random_trajectory()
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    write_trajectory(a, traj)
    write_trajectory(b, traj)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_read_trajectory_rejects_empty(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ConfigError, match="empty"):
        read_trajectory(str(path))


def test_read_trajectory_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# something else\n1 2 3\n")
    with pytest.raises(ConfigError, match="not a trajectory"):
        read_trajectory(str(path))


def test_read_trajectory_rejects_row_count_mismatch(tmp_path):
    traj = random_trajectory(n_steps=4)
    path = str(tmp_path / "t.txt")
    write_trajectory(path, traj)
    lines = open(path).read().splitlines()
    (tmp_path / "short.txt").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ConfigError, match="data rows"):
        read_trajectory(str(tmp_path / "short.txt"))


def test_read_trajectory_rejects_bad_columns(tmp_path):
    traj = random_trajectory(n_steps=4, n_modes=2)
    path = str(tmp_path / "t.txt")
    write_trajectory(path, traj)
    lines = open(path).read().splitlines()
    lines[6] = lines[6] + " 1.0"
    (tmp_path / "wide.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="columns"):
        read_trajectory(str(tmp_path / "wide.txt"))


def test_read_trajectory_rejects_off_grid_times(tmp_path):
    traj = random_trajectory(n_steps=4, n_modes=1)
    path = str(tmp_path / "t.txt")
    write_trajectory(path, traj)
    lines = open(path).read().splitlines()
    parts = lines[7].split()
    parts[0] = format_float(float(parts[0]) + 1e-3)
    lines[7] = " ".join(parts)
    (tmp_path / "shifted.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="grid"):
        read_trajectory(str(tmp_path / "shifted.txt"))


def test_read_trajectory_rejects_non_finite(tmp_path):
    traj = random_trajectory(n_steps=4, n_modes=1)
    path = str(tmp_path / "t.txt")
    write_trajectory(path, traj)
    lines = open(path).read().splitlines()
    parts = lines[6].split()
    parts[1] = "nan"
    lines[6] = " ".join(parts)
    (tmp_path / "nan.txt").write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match="finite"):
        read_trajectory(str(tmp_path / "nan.txt"))


def test_solve_report_format(tmp_path):
    rep = SolveReport(
        iterations=7,
        final_residual=1.25e-9,
        nonlocal_residual=3.5e-16,
        contraction_estimate=0.25,
        control_sup=1.5,
    )
    path = str(tmp_path / "r.txt")
    write_solve_report(path, rep)
    text = open(path).read()
    assert text == (
        "# fracevol report\n"
        "iterations 7\n"
        "final_residual 1.25e-09\n"
        "nonlocal_residual 3.5000000000000002e-16\n"
        "contraction_estimate 0.25\n"
        "control_sup 1.5\n"
    )


def test_reachability_table_format(tmp_path):
    table = ReachabilityTable(
        rows=((0, 0.1, 0.05, 0.3, 2), (1, 0.01, 0.005, 0.4, 3)),
    )
    path = str(tmp_path / "tab.txt")
    write_reachability_table(path, table)
    lines = open(path).read().splitlines()
    assert lines[0] == "# fracevol reachability"
    assert lines[1].startswith("# columns target_index rho")
    assert lines[2].split() == ["0", "0.10000000000000001", "0.050000000000000003", "0.29999999999999999", "2"]
    assert len(lines) == 4


def test_reachability_table_names_each_failed_cell_after_the_rows(tmp_path):
    table = ReachabilityTable(
        rows=((0, 0.1, 0.05, 0.3, 2), (0, 0.01, math.nan, math.nan, 11)),
        failures=("target 0, rho 0.01: steering pass diverged",),
    )
    path = str(tmp_path / "tab.txt")
    write_reachability_table(path, table)
    lines = open(path).read().splitlines()
    assert lines[3].split() == ["0", "0.01", "nan", "nan", "11"]
    assert lines[4:] == ["# failed: target 0, rho 0.01: steering pass diverged"]


def test_render_verification_verdicts():
    rep = VerificationReport(
        equation_residual=1e-4, nonlocal_residual=1e-5, node_residuals=np.zeros(3)
    )
    text, passed = render_verification(rep, 2e-3, 1e-3)
    assert passed
    assert "result pass" in text
    assert "equation_residual 0.0001" in text
    text2, passed2 = render_verification(rep, 1e-5, 1e-3)
    assert not passed2
    assert "result fail" in text2


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(
    n_modes=st.integers(1, 4),
    alpha=st.floats(0.75, 1.0),
    horizon=st.floats(0.5, 1.0),
    n_steps=st.integers(128, 256),
    pins=st.lists(
        st.tuples(st.floats(0.05, 1.0), st.floats(-0.3, 0.3)),
        max_size=2,
        unique_by=lambda p: p[0],
    ),
    forcing=st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4),
)
def test_solve_write_read_verify_passes(n_modes, alpha, horizon, n_steps, pins, forcing):
    # what `simulate` writes, `verify` reads back and accepts at the
    # default tolerances, on generated pinned sine-source problems
    pins = sorted(pins)
    coupling = NonlocalSpec(
        np.array([w for _, w in pins]), np.array([t * horizon for t, _ in pins]), horizon
    )
    problem = ProblemSpec(
        SpectralModel.dirichlet_laplacian(n_modes),
        alpha,
        coupling,
        nonlinearity=sine_collocation_source(n_modes),
    )
    grid = TimeGrid(horizon, n_steps)
    raw = SampledFn(grid, np.tile(forcing[:n_modes], (n_steps + 1, 1)))
    traj, _ = solve_mild(problem, grid, raw_forcing=raw)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.trajectory.txt")
        write_trajectory(path, traj)
        back = read_trajectory(path)
    assert back.grid == traj.grid
    assert np.array_equal(back.states, traj.states)
    report = verify_mild(problem, back, raw_forcing=raw)
    _, passed = render_verification(
        report, VERIFY_EQUATION_TOL_DEFAULT, VERIFY_PINNING_TOL_DEFAULT
    )
    assert passed, (report.equation_residual, report.nonlocal_residual)
