"""End-to-end command-line tests: exit codes, file outputs, determinism.

Each test runs the installed module in a subprocess, so these exercise
argument parsing and error mapping exactly as a shell user would see
them.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracevol
from fracevol.serialize import read_trajectory
from fracevol.specfun import mittag_leffler

REPO = Path(__file__).resolve().parent.parent

SMALL = """
[model]
rule = dirichlet
n_modes = 2

[problem]
alpha = 0.75
horizon = 1
coupling_weights = 0.2
coupling_times = 0.4
kappa = 1
forcing = 0.3 0.1
nonlinearity = none

[grid]
n_steps = 48
"""

SMALL_STEER = """
[model]
rule = dirichlet
n_modes = 2

[problem]
alpha = 0.75
horizon = 1
coupling_weights = 0.2
coupling_times = 0.4
kappa = 1
nonlinearity = none

[grid]
n_steps = 48

[experiment]
targets = 0.05 0.01
rho = 0.1 0.001
"""

DIVERGING_STEER = """
[model]
rule = dirichlet
n_modes = 4

[problem]
alpha = 0.75
horizon = 1
coupling_weights = 0.2 0.1
coupling_times = 0.3 0.6
kappa = 1
nonlinearity = gains
gains = 3 3 3 3

[grid]
n_steps = 128

[experiment]
targets = 0.1 0.05 0.02 0.01
rho = 0.01 1e-06
"""


def run_cli(*args, cwd=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "fracevol.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def _env_with_blas_threads(threads):
    # this process's environment with OPENBLAS_NUM_THREADS removed, or set
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def test_ml_known_values():
    out = run_cli("ml", "1", "1", "1")
    assert out.returncode == 0
    assert out.stdout.strip() == "2.718281828459"
    out = run_cli("ml", "2", "1", "-2.4674011")
    assert out.returncode == 0
    assert abs(float(out.stdout)) < 1e-9
    out = run_cli("ml", "0.75", "0.75", "-1")
    assert out.returncode == 0
    assert float(out.stdout) == pytest.approx(
        mittag_leffler(0.75, 0.75, -1.0), rel=1e-12
    )


@pytest.mark.parametrize("z", ["-1e3", "-1E+2"])
def test_ml_negative_z_in_exponent_form(z):
    # argparse alone reads these as options; they must parse as after "--"
    out = run_cli("ml", "0.5", "1", z)
    assert out.returncode == 0, out.stderr
    assert out.stdout == run_cli("ml", "0.5", "1", "--", z).stdout
    assert float(out.stdout) == pytest.approx(mittag_leffler(0.5, 1.0, float(z)), rel=1e-12)


def test_ml_past_the_digit_cap_exits_5():
    # X = |z|**(1/alpha) = 1.06e37: the rule split at the wall misses its
    # gate, and the series in extended precision would need 4.8e36 digits
    out = run_cli("ml", "0.02462363315091384", "0.021970127638782862", "-8.160303105378954")
    assert out.returncode == 5
    (line,) = out.stderr.splitlines()
    assert line.startswith("unsupported regime: ")
    for part in ("alpha=0.02462363315091384", "beta=0.021970127638782862",
                 "z=-8.160303105378954", "4.77e+36 digits"):
        assert part in line


def test_cli_leaves_scipy_integrate_unimported():
    # no Mittag-Leffler route needs scipy: with every scipy import made to
    # fail, points that reach the rule split at the wall still evaluate
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import fracevol.cli\n"
        "from fracevol import specfun\n"
        "assert fracevol.cli.main(['ml', '0.2', '0.35', '-5']) == 0\n"
        "assert fracevol.cli.main(['ml', '0.9', '1', '-1e5']) == 0\n"
        "print(*specfun.mittag_leffler_array(0.2, 0.35, [-4.6, -5.3, -5.75]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    values = [float(v) for v in out.stdout.split()]
    assert values[0] == pytest.approx(mittag_leffler(0.2, 0.35, -5.0), rel=1e-12)
    assert out.stdout.split()[1] == "1.0511544325e-06"
    assert values[2:] == [mittag_leffler(0.2, 0.35, q) for q in (-4.6, -5.3, -5.75)]


def test_cli_leaves_scipy_unimported(tmp_path):
    # the package runs on numpy and the standard library; scipy serves only
    # the tests, and mpmath only the extended-precision series, which the
    # demo configs do not reach; numpy.ma, which np.unique loads unless
    # asked for return_inverse, costs about 15 ms
    configs = REPO / "demos" / "configs"
    heat = str(tmp_path / "heat")
    code = (
        "import sys\n"
        "import fracevol.cli\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')"
        " or m == 'mpmath' or m == 'numpy.ma' or m.startswith('numpy.ma.')]\n"
        "assert not loaded(), ('import', loaded())\n"
        f"assert fracevol.cli.main(['simulate', '--config', {str(configs / 'demo_heat.ini')!r},"
        f" '--out', {heat!r}]) == 0\n"
        "assert not loaded(), ('simulate', loaded())\n"
        f"assert fracevol.cli.main(['verify', '--config', {str(configs / 'demo_heat.ini')!r},"
        f" {heat + '.trajectory.txt'!r}]) == 0\n"
        "assert not loaded(), ('verify', loaded())\n"
        f"assert fracevol.cli.main(['steer', '--config', {str(configs / 'demo_steer.ini')!r},"
        f" '--out', {str(tmp_path / 'steer')!r}]) == 0\n"
        "assert not loaded(), ('steer', loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stderr
    assert "result pass" in out.stdout


def test_src_has_no_np_convolve():
    # every lag convolution in the package goes through one FFT operator,
    # fraccalc.LagConvolution; a direct per-column convolution is a second path
    hits = [
        f"{path.relative_to(REPO)}:{i}"
        for path in sorted((REPO / "src" / "fracevol").rglob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), start=1)
        if "convolve(" in line
    ]
    assert not hits, hits


def test_src_has_one_iteration_driver():
    # every fixed-point loop in the package, steering passes included, runs
    # through greens._fixed_point, so its fail-fast rules cover them all; a
    # loop that raises its own ConvergenceError is a second driver.  Only the
    # one Picard solve (ResponseAssembly.solve) and a steering cell call it,
    # and only the steering cell mixes: mixed Picard solves (or warm-started
    # ones) move steer's table by 1.1e-9 to 1.3e-9, past its reference check
    raisers, outer_loops, callers, mixers = set(), [], set(), set()
    for path in sorted((REPO / "src" / "fracevol").rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        funcs = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in ast.walk(tree):
            for func in ast.iter_child_nodes(scope):
                if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                owner = f"{scope.name}.{func.name}" if isinstance(scope, ast.ClassDef) else func.name
                calls = [
                    c for c in ast.walk(func)
                    if isinstance(c, ast.Call) and getattr(c.func, "id", None) == "_fixed_point"
                ]
                if calls:
                    callers.add((path.name, owner))
                if any(kw.arg in ("mix", None) for c in calls for kw in c.keywords):
                    mixers.add((path.name, owner))
        for i, line in enumerate(text.splitlines(), start=1):
            if "for outer in range" in line:
                outer_loops.append(f"{path.name}:{i}")
            if "raise ConvergenceError" in line:
                inside = [f for f in funcs if f.lineno <= i <= f.end_lineno]
                innermost = max(inside, key=lambda f: f.lineno).name if inside else None
                raisers.add((path.name, innermost))
    assert raisers == {("greens.py", "_fixed_point")}
    assert not outer_loops, outer_loops
    assert callers == {("greens.py", "ResponseAssembly.solve"), ("control.py", "_steer_cell")}
    assert mixers == {("control.py", "_steer_cell")}


# public package functions that nothing outside the tests calls, kept on purpose
TEST_ONLY_PUBLIC = {
    "apply_T": "the paper's solution operator T(t); decay_factors, its table row, is probed",
    "resolvent": "acceptance criterion 5, the Laplace transform of the kernel",
    "check_solution_operator_identity": "acceptance criterion 4",
    "operator_norm_estimate": "the exact discrete norm of apply_K that ROADMAP item 6 builds on",
    "signal_l2_norm": "the norm operator_norm_estimate is stated in, and its test's reference",
    "normalize_config": "the canonical config text that README documents; it parses back equal",
}
_DEFS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _code_references(tree):
    """(name, top-level def, innermost of it and its methods) for each name in code.

    Names are names, attributes and strings.  Docstrings and __all__ lists
    name things without using them, so they are left out.
    """
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *_DEFS)) and node.body
        and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }
    refs = []
    for top in tree.body:
        if isinstance(top, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in top.targets
        ):
            continue
        owner = top.name if isinstance(top, _DEFS) else None
        method = {
            id(node): f"{owner}.{func.name}"
            for func in (top.body if isinstance(top, ast.ClassDef) else ())
            if isinstance(func, _DEFS)
            for node in ast.walk(func)
        }
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) in docstrings:
                    continue
                name = node.value
            else:
                continue
            refs.append((name, owner, method.get(id(node), owner)))
    return refs


def test_src_has_no_test_only_public_surface():
    # each public top-level function or class of the package is used by
    # code in src/, demos/ or perfbench/ (not by its own definition and not
    # by a test), is exported by the package, or is on the allow-list with
    # its reason; so is each public method or property of a public class,
    # exported or not, where a use anywhere but in its own body counts (by
    # name, as an attribute); names that only tests reach are surface to delete
    package = REPO / "src" / "fracevol"
    used, public, members = set(), [], []
    for root in (package, REPO / "demos", REPO / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            if path.name.startswith("test_"):
                continue
            tree = ast.parse(path.read_text())
            used |= {(name, path, *owners) for name, *owners in _code_references(tree)}
            if path.parent != package:
                continue
            tops = [n for n in tree.body if isinstance(n, _DEFS) and not n.name.startswith("_")]
            public += [(path, node.name) for node in tops]
            members += [
                (path, f"{cls.name}.{func.name}", func.name)
                for cls in tops if isinstance(cls, ast.ClassDef)
                for func in cls.body
                if isinstance(func, _DEFS) and not func.name.startswith("_")
            ]
    unreached = {
        name for path, name in public
        if name not in fracevol.__all__
        and not any(n == name and (p, o) != (path, name) for n, p, o, _ in used)
    } | {
        qualified for path, qualified, name in members
        if not any(n == name and (p, o) != (path, qualified) for n, p, _, o in used)
    }
    # a stale entry of the allow-list fails too
    assert unreached == set(TEST_ONLY_PUBLIC), sorted(unreached ^ set(TEST_ONLY_PUBLIC))


def _peak_rss_kib(code):
    # peak resident set of a fresh interpreter that runs code, as VmHWM:
    # its ru_maxrss would also carry the peak of this (forking) process
    # across the exec
    out = subprocess.run(
        [sys.executable, "-c", code + "\nprint(open('/proc/self/status').read())"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return int(out.stdout.split("VmHWM:")[1].split()[0])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs Linux /proc")
def test_verify_peak_memory_stays_near_the_import(tmp_path):
    # the Mittag-Leffler routes build their row matrices in blocks of
    # 128 KiB; verify of the demo trajectory stays within 6 MB of the bare
    # import (1 MB blocks put it 10 MB above)
    heat = str(REPO / "demos" / "configs" / "demo_heat.ini")
    sim = run_cli("simulate", "--config", heat, "--out", str(tmp_path / "heat"))
    assert sim.returncode == 0, sim.stderr
    traj = str(tmp_path / "heat.trajectory.txt")
    base = _peak_rss_kib("import fracevol.cli")
    verify = _peak_rss_kib(
        "import fracevol.cli\n"
        f"assert fracevol.cli.main(['verify', '--config', {heat!r}, {traj!r}]) == 0"
    )
    assert verify - base < 6 * 1024, (verify, base)


def _tasks_after(code, threads):
    # thread count of a fresh interpreter that runs code, and the
    # OPENBLAS_NUM_THREADS it ends with
    probe = (
        code + "\nimport os\n"
        "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=_env_with_blas_threads(threads),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    tasks, value = out.stdout.split()
    return int(tasks), None if value == "None" else value


def _numpy_uses_openblas():
    # numpy >= 1.26 names its BLAS here; older builds skip the test
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {}).get("name", "")
    return "openblas" in blas.lower()


@pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs Linux /proc")
@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built on OpenBLAS")
def test_import_starts_openblas_with_one_thread_unless_told_otherwise():
    # importing fracevol before numpy starts OpenBLAS with no worker pool,
    # and leaves no OPENBLAS_NUM_THREADS behind for child processes
    assert _tasks_after("import fracevol.cli", None) == (1, None)
    # a count the user set wins, and stays set
    user = _tasks_after("import fracevol.cli", "2")
    assert user == (_tasks_after("import numpy", "2")[0], "2")
    if len(os.sched_getaffinity(0)) >= 2:
        assert user[0] == 2
    # a numpy loaded first keeps the pool it started with
    assert _tasks_after("import numpy\nimport fracevol.cli", None) == (
        _tasks_after("import numpy", None)[0], None,
    )


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # each command writes the same bytes with one OpenBLAS thread and two;
    # the 64-mode source's (513 x 64)(64 x 64) product is the one a
    # 2-thread pool splits
    configs = REPO / "demos" / "configs"
    heat = (configs / "demo_heat.ini").read_text()
    forcing = next(ln for ln in heat.splitlines() if ln.startswith("forcing ="))
    wide = tmp_path / "wide.ini"
    wide.write_text(
        heat.replace("n_modes = 8", "n_modes = 64").replace(
            forcing, forcing + " 0.001" * 56
        )
    )
    runs = {
        "heat": ("simulate", configs / "demo_heat.ini"),
        "wide": ("simulate", wide),
        "steer": ("steer", configs / "demo_steer.ini"),
    }
    for name, (command, cfg) in runs.items():
        written = {}
        for threads in ("1", "2"):
            out_dir = tmp_path / f"{name}-{threads}"
            out_dir.mkdir()
            out = run_cli(
                command, "--config", str(cfg), "--out", str(out_dir / name),
                env=_env_with_blas_threads(threads),
            )
            assert out.returncode == 0, out.stderr
            written[threads] = (
                out.stdout, {f.name: f.read_bytes() for f in out_dir.iterdir()},
            )
        assert written["1"][1], name
        assert written["1"] == written["2"], name


def test_ml_bad_arguments():
    assert run_cli("ml", "1", "1").returncode == 2
    assert run_cli("ml", "x", "1", "1").returncode == 2
    assert run_cli("ml", "-0.5", "1", "1").returncode == 2
    out = run_cli("ml", "0.5", "1", "-inf")
    assert out.returncode == 2
    assert out.stderr == "domain error: argument must be finite, got -inf\n"
    out = run_cli("ml", "-h")
    assert out.returncode == 0 and out.stdout.startswith("usage: fracevol ml")


def test_unknown_command_and_help():
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("--help").returncode == 0
    out = run_cli("verify", "--config", "run.ini", "run.trajectory.txt", "--seed", "1")
    assert out.returncode == 2
    assert "unrecognized arguments: --seed" in out.stderr


def test_simulate_writes_deterministic_files(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL)
    out1 = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert out1.returncode == 0, out1.stderr
    out2 = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "b"))
    assert out2.returncode == 0
    t_a = (tmp_path / "a.trajectory.txt").read_bytes()
    t_b = (tmp_path / "b.trajectory.txt").read_bytes()
    assert t_a == t_b
    assert (tmp_path / "a.report.txt").read_bytes() == (
        tmp_path / "b.report.txt"
    ).read_bytes()
    traj = read_trajectory(str(tmp_path / "a.trajectory.txt"))
    assert traj.grid.n_steps == 48
    assert traj.states.shape == (49, 2)
    assert np.any(traj.states != 0.0)
    report = (tmp_path / "a.report.txt").read_text()
    assert report.startswith("# fracevol report\n")
    assert "nonlocal_residual" in report


def test_simulate_demo_heat_meets_its_pinning_identity(tmp_path):
    # u(0) is formed with the inverse factors 1 / (1 - q) in closed form,
    # so the pinning identity holds to the rounding of one evaluation
    cfg = str(REPO / "demos" / "configs" / "demo_heat.ini")
    out = run_cli("simulate", "--config", cfg, "--out", str(tmp_path / "heat"))
    assert out.returncode == 0, out.stderr
    fields = dict(
        line.split() for line in (tmp_path / "heat.report.txt").read_text().splitlines()[1:]
    )
    assert float(fields["nonlocal_residual"]) <= 1e-16


def test_simulate_admissible_slow_mode_exits_0(tmp_path):
    # margin 1e-4 with a rate of 1e-6: admissible, and q is 1.01e-4 from 1
    cfg = tmp_path / "slow.ini"
    text = SMALL.replace("rule = dirichlet\nn_modes = 2", "rule = explicit\nvalues = 1e-6 1")
    text = text.replace("coupling_weights = 0.2", "coupling_weights = 0.9999")
    cfg.write_text(text.replace("coupling_times = 0.4", "coupling_times = 1"))
    out = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "slow"))
    assert out.returncode == 0, out.stderr
    states = read_trajectory(str(tmp_path / "slow.trajectory.txt")).states
    assert np.all(np.isfinite(states)) and np.any(states != 0.0)


def test_simulate_missing_config(tmp_path):
    out = run_cli("simulate", "--config", str(tmp_path / "no.ini"), "--out", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "config error" in out.stderr


def test_simulate_nan_tol_exits_2_before_solving(tmp_path):
    cfg = tmp_path / "nan.ini"
    cfg.write_text(SMALL + "\n[solver]\ntol = nan\n")
    out = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "config error" in out.stderr
    assert "[solver] tol" in out.stderr
    assert list(tmp_path.iterdir()) == [cfg]


def test_simulate_inadmissible_coupling_exits_3(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(SMALL.replace("coupling_weights = 0.2", "coupling_weights = 1.5"))
    out = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 3
    assert "margin" in out.stderr


def test_simulate_exhausted_budget_exits_4(tmp_path):
    cfg = tmp_path / "tight.ini"
    cfg.write_text(SMALL + "\n[solver]\nmax_iter = 1\n")
    out = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 4
    assert "no convergence" in out.stderr


def test_simulate_diverging_source_exits_4_early(tmp_path):
    # a Lipschitz-50 source pinned by weight 0.9 at horizon 0.02: the run
    # stops on growing updates, not at max_iter
    cfg = tmp_path / "expanding.ini"
    text = SMALL.replace("nonlinearity = none", "nonlinearity = gains\ngains = 50 50")
    text = text.replace("horizon = 1", "horizon = 0.02")
    text = text.replace("coupling_weights = 0.2", "coupling_weights = 0.9")
    cfg.write_text(text.replace("coupling_times = 0.4", "coupling_times = 0.02"))
    out = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 4
    assert "consecutive growing updates" in out.stderr
    iterations = int(out.stderr.split("iterations=")[1].split(",")[0])
    assert iterations < 20


def test_simulate_overflowing_source_exits_7(tmp_path):
    # the second Picard step feeds a state near 1000 to a gain of 1e308:
    # the source overflows, which is its own failure, not a usage error
    cfg = tmp_path / "overflow.ini"
    text = SMALL.replace("nonlinearity = none", "nonlinearity = gains\ngains = 1e308 1e308")
    cfg.write_text(text.replace("forcing = 0.3 0.1", "forcing = 1000 1000"))
    out = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 7
    assert out.stderr.splitlines()[-1] == (
        "source error: Picard iteration 2: source produced a non-finite value "
        "at node 0, time t = 0.0"
    )
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize(
    "forcing,line",
    [
        # finite source of about 3e307 whose response overflows
        ("0.3 0.1", "source error: Picard iteration 2: the response to a finite source "
                    "(sup 1.93e+307) is non-finite"),
        # the source itself overflows
        ("1000 1000", "source error: Picard iteration 2: source produced a non-finite value "
                      "at node 0, time t = 0.0"),
    ],
)
def test_simulate_huge_source_fails_with_one_line_and_no_warning(tmp_path, forcing, line):
    cfg = tmp_path / "huge.ini"
    text = SMALL.replace("nonlinearity = none", "nonlinearity = gains\ngains = 1e308 1e308")
    cfg.write_text(text.replace("forcing = 0.3 0.1", "forcing = " + forcing))
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fracevol.cli",
         "simulate", "--config", str(cfg), "--out", str(tmp_path / "x")],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 7
    assert out.stderr.splitlines() == [line]
    assert list(tmp_path.iterdir()) == [cfg]


def test_steer_diverging_sweep_exits_4_naming_its_cell(tmp_path):
    # a source of gain 3 in every mode: the Picard solve of each cell's
    # first pass diverges; the sweep runs every cell, writes its table and
    # names each failed cell and pass, which counts as the cell's one pass
    cfg = tmp_path / "diverge.ini"
    cfg.write_text(DIVERGING_STEER)
    out = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert out.returncode == 4
    first, second = out.stderr.splitlines()
    assert first.startswith(
        "no convergence: target 0, rho 0.01: steering pass 1: Picard iteration diverged: "
        "15 consecutive growing updates (iterations=17, "
    )
    assert second.startswith(
        "no convergence: target 0, rho 1e-06: steering pass 1: Picard iteration diverged: "
    )
    lines = (tmp_path / "s.table.txt").read_text().splitlines()
    assert [line.split()[2:] for line in lines[2:4]] == [["nan", "nan", "1"]] * 2
    assert lines[4:] == [
        "# failed: " + line.removeprefix("no convergence: ") for line in (first, second)
    ]


def test_steer_sweep_keeps_the_cells_around_a_failed_one(tmp_path):
    # at gain 1.5 rho 1 converges in 7 passes and rho 0.01 needs 11, past
    # max_outer 10: both rows are written, the failed one with nan error
    # and energy, and exit is 4
    cfg = tmp_path / "mixed.ini"
    text = DIVERGING_STEER.replace("gains = 3 3 3 3", "gains = 1.5 1.5 1.5 1.5")
    cfg.write_text(text.replace("rho = 0.01 1e-06", "rho = 1 0.01\nmax_outer = 10"))
    out = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert out.returncode == 4
    (line,) = out.stderr.splitlines()
    assert line.startswith(
        "no convergence: target 0, rho 0.01: steering pass did not reach tolerance (iterations=10, "
    )
    lines = (tmp_path / "s.table.txt").read_text().splitlines()
    converged, failed = ([float(x) for x in row.split()] for row in lines[2:4])
    assert converged[:2] == [0, 1.0] and converged[4] == 7
    assert 0.0 < converged[2] < 0.1 and 0.0 < converged[3] < np.inf
    assert failed[:2] == [0, 0.01] and np.isnan(failed[2:4]).all() and failed[4] == 10
    assert lines[4:] == ["# failed: " + line.removeprefix("no convergence: ")]


def test_demo_runs_keep_their_work(tmp_path, monkeypatch, capsys):
    # what "same behaviour" counts: Picard iterations per solve, solves, and
    # steering passes per cell on the demo configs, in-process
    from fracevol import cli
    from fracevol.greens import ResponseAssembly

    solve, iterations = ResponseAssembly.solve, []

    def counted(self, *args, **kwargs):
        traj, report = solve(self, *args, **kwargs)
        iterations.append(report.iterations)
        return traj, report

    monkeypatch.setattr(ResponseAssembly, "solve", counted)
    configs = REPO / "demos" / "configs"
    heat = ["--config", str(configs / "demo_heat.ini"), "--out", str(tmp_path / "h")]
    assert cli.main(["simulate", *heat]) == 0
    assert iterations == [17]
    iterations.clear()
    steer = ["--config", str(configs / "demo_steer.ini"), "--out", str(tmp_path / "s")]
    assert cli.main(["steer", *steer]) == 0
    assert (len(iterations), sum(iterations)) == (40, 530)
    # per cell, one uncontrolled solve (the zero state, at once) and 7 passes;
    # mixing cuts passes, not the Picard steps of a pass's solve
    assert iterations == ([1] + [15] * 7) * 5
    rows = (tmp_path / "s.table.txt").read_text().splitlines()[2:]
    assert [int(row.split()[-1]) for row in rows] == [7, 7, 7, 7, 7]
    assert capsys.readouterr().err == ""


def test_steer_sweep_outputs_table(tmp_path):
    cfg = tmp_path / "steer.ini"
    cfg.write_text(SMALL_STEER)
    out = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "s"))
    assert out.returncode == 0, out.stderr
    lines = (tmp_path / "s.table.txt").read_text().splitlines()
    assert lines[0] == "# fracevol reachability"
    rows = [ln.split() for ln in lines[2:]]
    assert len(rows) == 2
    errs = [float(r[2]) for r in rows]
    assert errs[0] > errs[1]
    # determinism of the table file
    out2 = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "s2"))
    assert out2.returncode == 0
    assert (tmp_path / "s.table.txt").read_bytes() == (
        tmp_path / "s2.table.txt"
    ).read_bytes()


def test_steer_low_order_exits_5(tmp_path):
    cfg = tmp_path / "low.ini"
    cfg.write_text(SMALL_STEER.replace("alpha = 0.75", "alpha = 0.4"))
    out = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 5
    assert "unsupported regime" in out.stderr


def test_steer_zero_gain_warns(tmp_path):
    cfg = tmp_path / "quiet.ini"
    cfg.write_text(SMALL_STEER.replace("kappa = 1", "kappa = 0"))
    out = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "q"))
    assert out.returncode == 0
    assert "kappa = 0" in out.stderr
    rows = (tmp_path / "q.table.txt").read_text().splitlines()[2:]
    # without a control channel every cell reports zero energy
    assert all(float(r.split()[3]) == 0.0 for r in rows)


def test_steer_requires_experiment_section(tmp_path):
    cfg = tmp_path / "nosweep.ini"
    cfg.write_text(SMALL.replace("forcing = 0.3 0.1\n", ""))
    out = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "experiment" in out.stderr


def test_steer_rejects_forcing(tmp_path):
    cfg = tmp_path / "forced.ini"
    cfg.write_text(SMALL + "\n[experiment]\ntargets = 0.1 0.1\nrho = 0.1\n")
    out = run_cli("steer", "--config", str(cfg), "--out", str(tmp_path / "x"))
    assert out.returncode == 2
    assert "forcing" in out.stderr


def test_verify_round_trip_and_perturbation(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL)
    sim = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert sim.returncode == 0
    traj_path = tmp_path / "a.trajectory.txt"
    ok = run_cli("verify", "--config", str(cfg), str(traj_path))
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "result pass" in ok.stdout

    lines = traj_path.read_text().splitlines()
    parts = lines[5 + 24].split()
    parts[1] = repr(float(parts[1]) + 1e-2)
    lines[5 + 24] = " ".join(parts)
    bad_path = tmp_path / "perturbed.txt"
    bad_path.write_text("\n".join(lines) + "\n")
    bad = run_cli("verify", "--config", str(cfg), str(bad_path))
    assert bad.returncode == 6
    assert "result fail" in bad.stdout


def test_verify_empty_file_exits_2(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = run_cli("verify", "--config", str(cfg), str(empty))
    assert out.returncode == 2
    assert "empty" in out.stderr


def test_verify_config_mismatch_exits_2(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL)
    sim = run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path / "a"))
    assert sim.returncode == 0
    other = tmp_path / "other.ini"
    other.write_text(SMALL.replace("n_modes = 2", "n_modes = 3").replace(
        "forcing = 0.3 0.1", "forcing = 0.3 0.1 0.1"
    ))
    out = run_cli("verify", "--config", str(other), str(tmp_path / "a.trajectory.txt"))
    assert out.returncode == 2
    assert "mode count" in out.stderr


TRAJ_HEADER = "# fracevol trajectory\n# horizon 1\n# n_steps 48\n# n_modes {}\n# columns t\n"


@pytest.mark.parametrize(
    "case, names",
    [
        ("missing trajectory", "none.txt"),
        ("non-ASCII trajectory", "accent.txt"),
        ("negative n_modes", "n_modes -1"),
        ("non-ASCII config", "accent.ini"),
        ("simulate into a missing directory", "nodir"),
        ("steer into a missing directory", "nodir"),
    ],
)
def test_unreadable_or_unwritable_file_exits_2_with_one_line(tmp_path, case, names):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL)
    steer_cfg = tmp_path / "steer.ini"
    steer_cfg.write_text(SMALL_STEER)
    accent = tmp_path / "accent.txt"
    accent.write_text(TRAJ_HEADER.replace("fracevol", "fr\u00e9cevol").format(2), encoding="utf-8")
    negative = tmp_path / "negative.txt"
    negative.write_text(TRAJ_HEADER.format(-1) + "0\n" * 49)
    bad_cfg = tmp_path / "accent.ini"
    bad_cfg.write_text("# r\u00e9gime\n" + SMALL, encoding="utf-8")
    argv = {
        "missing trajectory": ("verify", "--config", str(cfg), str(tmp_path / "none.txt")),
        "non-ASCII trajectory": ("verify", "--config", str(cfg), str(accent)),
        "negative n_modes": ("verify", "--config", str(cfg), str(negative)),
        "non-ASCII config": ("simulate", "--config", str(bad_cfg), "--out", str(tmp_path / "a")),
        "simulate into a missing directory": (
            "simulate", "--config", str(cfg), "--out", str(tmp_path / "nodir" / "a")
        ),
        "steer into a missing directory": (
            "steer", "--config", str(steer_cfg), "--out", str(tmp_path / "nodir" / "a")
        ),
    }[case]
    out = run_cli(*argv)
    assert out.returncode == 2, out.stderr
    assert len(out.stderr.splitlines()) == 1, out.stderr
    assert names in out.stderr


@pytest.mark.parametrize("command", ["simulate", "steer"])
def test_missing_output_directory_exits_2_before_any_solve(tmp_path, monkeypatch, capsys, command):
    from fracevol import cli

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before checking the output directory")

    monkeypatch.setattr(cli, "solve_mild", no_solve)
    monkeypatch.setattr(cli, "reachability_experiment", no_solve)
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL if command == "simulate" else SMALL_STEER)
    missing = tmp_path / "nodir"
    assert cli.main([command, "--config", str(cfg), "--out", str(missing / "a")]) == 2
    err = capsys.readouterr().err
    assert err == f"file error: [Errno 2] no such output directory: {str(missing)!r}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("horizon", ["nan", "inf", "-inf", "0", "-1"])
def test_verify_bad_trajectory_horizon_names_the_header(tmp_path, horizon):
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMALL)
    traj = tmp_path / "bad.txt"
    rows = "".join(f"{i / 48!r} 0 0\n" for i in range(49))
    traj.write_text(TRAJ_HEADER.replace("horizon 1", "horizon " + horizon).format(2) + rows)
    out = run_cli("verify", "--config", str(cfg), str(traj))
    assert out.returncode == 2
    assert out.stderr == (
        f"config error: trajectory header: horizon {float(horizon)!r} must be positive and finite\n"
    )


def test_every_trace_probe_resolves(monkeypatch):
    # perfbench/layers.py reports a probe whose name is gone as a null
    # metric; load it by path and only look the names up, since install
    # would rebind the fracevol modules for the rest of the session
    path = REPO / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclasses look it up
    spec.loader.exec_module(layers)
    for _, module, path, _ in layers.PROBES:
        assert layers._resolve(module, path) is not None, f"{module}.{path}"
    assert layers._resolve(*layers.SOURCE_FACTORY) is not None
