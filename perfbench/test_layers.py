"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys

import numpy as np
import pytest

import layers
import run


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    # assembly: 1, decay(2, ml 1, 0.5, ml 1.5, 1), 1, ml 1, 1
    clock = FakeClock()
    rec = layers.Recorder(clock)

    def work(d):
        clock.now += d

    ml = rec.wrap("specfun.ml", work)

    def decay_body():
        work(2)
        ml(1)
        work(0.5)
        ml(1.5)
        work(1)

    decay = rec.wrap("spectral.decay", decay_body)

    def assembly_body():
        work(1)
        decay()
        work(1)
        ml(1)
        work(1)

    rec.wrap("greens.assembly", assembly_body)()
    assert rec.spans["specfun.ml"].calls == 3
    assert rec.spans["specfun.ml"].total == pytest.approx(3.5)
    assert rec.spans["specfun.ml"].self_time == pytest.approx(3.5)
    assert rec.spans["spectral.decay"].total == pytest.approx(6.0)
    assert rec.spans["spectral.decay"].self_time == pytest.approx(6.0 - 2.5)
    assert rec.spans["greens.assembly"].total == pytest.approx(10.0)
    assert rec.spans["greens.assembly"].self_time == pytest.approx(10.0 - 6.0 - 1.0)
    assert not rec._stack


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    rec = layers.Recorder(clock)

    def body(depth):
        clock.now += 1.0
        if depth:
            f(depth - 1)

    f = rec.wrap("x", body)
    f(2)
    assert rec.spans["x"].calls == 3
    assert rec.spans["x"].total == pytest.approx(3.0)
    assert rec.spans["x"].self_time == pytest.approx(3.0)


def test_span_closes_when_the_call_raises():
    rec = layers.Recorder()
    boom = rec.wrap("boom", lambda: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        boom()
    assert rec.spans["boom"].calls == 1 and not rec._stack


def test_source_rows_follow_the_argument_shape():
    rec = layers.Recorder()
    fn = rec.wrap("greens.source", lambda *a, **k: None, layers._rows_observe)
    fn(0.5, np.zeros(8))  # per-node (t, mode_vector) contract
    fn(np.zeros(513), states=np.zeros((513, 8)))  # batched (times, states)
    assert rec.spans["greens.source"].calls == 2
    assert rec.counters["greens.source_rows"] == 1 + 513


@pytest.fixture
def fracevol_restored():
    """Undo install(): restore every fracevol module namespace afterwards."""
    import fracevol.cli  # noqa: F401  loads every module
    import fracevol.greens

    saved = {
        name: dict(vars(mod)) for name, mod in sys.modules.items()
        if name == "fracevol" or name.startswith("fracevol.")
    }
    init = fracevol.greens.ResponseAssembly.__init__
    yield
    fracevol.greens.ResponseAssembly.__init__ = init
    for name, namespace in saved.items():
        vars(sys.modules[name]).update(namespace)


def _small_problem():
    from fracevol import NonlocalSpec, ProblemSpec, SpectralModel, TimeGrid
    from fracevol.config import sine_collocation_source

    problem = ProblemSpec(
        SpectralModel.dirichlet_laplacian(3),
        0.75,
        NonlocalSpec(np.array([0.2]), np.array([0.5]), 1.0),
        nonlinearity=sine_collocation_source(3),
    )
    return problem, TimeGrid(1.0, 32)


def test_install_wraps_every_binding_and_keeps_results(fracevol_restored):
    from fracevol import cli, config, control, greens, spectral, specfun

    problem, grid = _small_problem()
    plain, plain_report = greens.solve_mild(problem, grid)

    rec = layers.install(layers.Recorder())
    assert rec.missing == []
    for module in (greens, control, cli):
        assert module.solve_mild is greens.solve_mild
    assert spectral.mittag_leffler is specfun.mittag_leffler is greens.mittag_leffler
    problem = _small_problem()[0]  # built through the wrapped factory
    traced, report = control.solve_mild(problem, grid)

    np.testing.assert_array_equal(traced.states, plain.states)
    assert report == plain_report
    m = layers.layer_metrics(rec)
    assert m["greens.solves"] == 1 and m["greens.assembly_builds"] == 1
    assert m["greens.picard_iters"] == report.iterations
    assert m["greens.source_calls"] == m["greens.source_rows"] == 33 * report.iterations
    assert m["specfun.ml_calls"] > m["specfun.ml_distinct"] > 0
    assert m["greens.assembly_s"] >= m["spectral.decay_self_s"] > 0
    assert config.sine_collocation_source is greens.sine_collocation_source


def test_missing_entry_point_reports_null_not_zero(fracevol_restored, monkeypatch):
    from fracevol import greens

    problem, grid = _small_problem()
    monkeypatch.delattr(greens, "ResponseAssembly")  # control keeps its own binding
    rec = layers.install(layers.Recorder())
    assert rec.missing == ["fracevol.greens.ResponseAssembly.__init__"]
    from fracevol import control

    control.apply_K(problem, control.SampledFn(grid, np.ones((33, 3))))
    m = layers.layer_metrics(rec)
    assert m["greens.assembly_builds"] is None
    assert m["greens.assembly_s"] is None
    assert m["greens.builds_per_cell"] is None
    assert m["specfun.ml_calls"] > 0
    assert set(m) == {name for name, _ in layers.LAYER_METRICS}


def test_seeded_configs_parse_to_the_template():
    from fracevol.config import load_config, parse_config

    for name in ("demo_heat.ini", "demo_steer.ini"):
        template = load_config(str(run.CONFIGS / name))
        texts = {run.seeded_config(name, seed) for seed in range(6)}
        assert len(texts) == 6
        assert all(parse_config(text) == template for text in texts)


TOL = {"SOLVE_TOL_DEFAULT": 1e-8, "STEER_TOL_DEFAULT": 1e-9, "QUADRATURE_MATCH_TOL": 1e-12}


def _bump(text: bytes, row: int, col: int, delta: float) -> bytes:
    lines = text.decode("ascii").split("\n")
    data_rows = [i for i, ln in enumerate(lines) if ln and ln[0] != "#"]
    parts = lines[data_rows[row]].split()
    parts[col] = "%.17g" % (float(parts[col]) + delta)
    lines[data_rows[row]] = " ".join(parts)
    return "\n".join(lines).encode("ascii")


def test_output_checks_accept_inside_and_reject_outside_tolerance():
    traj = (run.REFERENCE / "heat.trajectory.txt").read_bytes()
    table = (run.REFERENCE / "steer.table.txt").read_bytes()
    assert run.check_trajectory(traj, traj, TOL) is None
    assert run.check_trajectory(_bump(traj, 100, 3, 5e-9), traj, TOL) is None
    assert run.check_trajectory(_bump(traj, 100, 3, 5e-8), traj, TOL) is not None
    assert run.check_table(_bump(table, 2, 2, 5e-10), table, TOL) is None
    assert run.check_table(_bump(table, 2, 3, 5e-9), table, TOL) is not None
    assert run.check_table(_bump(table, 2, 4, 3), table, TOL) is None  # outer passes
    assert run.steer_residual(table) == pytest.approx(2.0344566653138066e-06)
