"""Command-line front end.

Commands:
    ml <alpha> <beta> <z>        print one Mittag-Leffler value; any float
                                 spelling, -1e3 and -inf too, is a number
    simulate --config C --out P  solve; writes P.trajectory.txt, P.report.txt
    steer    --config C --out P  rho sweep; writes P.table.txt, failed cells too
    verify   --config C TRAJ     residual check of a trajectory file

Exit codes: 0 success, 2 usage, config or file error, 3 inadmissible coupling,
4 non-convergence, 5 unsupported regime, 6 verification failure, 7 bad
source term, also a finite one whose response overflows (the source, not
the iteration, is at fault there).  All output is deterministic.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

import numpy as np

from .config import RunConfig, build_forcing, build_grid, build_problem, load_config
from .control import reachability_experiment
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    SourceError,
    UnsupportedRegimeError,
)
from .greens import solve_mild, verify_mild
from .serialize import (
    read_trajectory,
    render_verification,
    write_reachability_table,
    write_solve_report,
    write_trajectory,
)
from .specfun import mittag_leffler

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_UNSUPPORTED = 5
EXIT_VERIFY_FAILED = 6
EXIT_BAD_SOURCE = 7

# (exception type, stderr label, exit code); the first match wins, so
# SourceError comes before DomainError, its base
_FAILURES = (
    (ConfigError, "config error", EXIT_USAGE),
    (AdmissibilityError, "inadmissible coupling", EXIT_INADMISSIBLE),
    (UnsupportedRegimeError, "unsupported regime", EXIT_UNSUPPORTED),
    (ConvergenceError, "no convergence", EXIT_NO_CONVERGENCE),
    (SourceError, "source error", EXIT_BAD_SOURCE),
    (DomainError, "domain error", EXIT_USAGE),
    (OSError, "file error", EXIT_USAGE),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracevol",
        description="fractional evolution equations with nonlocally pinned "
        "initial states: simulation, steering, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ml = sub.add_parser("ml", help="evaluate the two-parameter Mittag-Leffler function")
    p_ml.add_argument("alpha", type=float)
    p_ml.add_argument("beta", type=float)
    p_ml.add_argument("z", type=float)

    for name, needs_out in (("simulate", True), ("steer", True), ("verify", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="run configuration file")
        if needs_out:
            p.add_argument("--out", required=True, help="output path prefix")
        else:
            p.add_argument("trajectory", help="trajectory file to check")
    return parser


def _cmd_ml(args: argparse.Namespace) -> int:
    value = mittag_leffler(args.alpha, args.beta, args.z)
    print("%.13g" % value)
    return EXIT_OK


def _cmd_simulate(cfg: RunConfig, out_prefix: str) -> int:
    problem = build_problem(cfg)
    grid = build_grid(cfg)
    traj, report = solve_mild(
        problem,
        grid,
        raw_forcing=build_forcing(cfg, grid),
        tol=cfg.tol,
        max_iter=cfg.max_iter,
    )
    write_trajectory(out_prefix + ".trajectory.txt", traj)
    write_solve_report(out_prefix + ".report.txt", report)
    print(
        "simulate: %d iterations, nonlocal residual %.3g"
        % (report.iterations, report.nonlocal_residual)
    )
    return EXIT_OK


def _cmd_steer(cfg: RunConfig, out_prefix: str) -> int:
    if cfg.forcing is not None:
        raise ConfigError("steer does not support a steady forcing term")
    problem = build_problem(cfg)
    grid = build_grid(cfg)
    if not np.any(problem.control_gains != 0.0):
        print(
            "warning: kappa = 0 leaves the control channel disconnected; "
            "steering cannot make progress",
            file=sys.stderr,
        )
    if not cfg.targets or not cfg.rhos:
        raise ConfigError("[experiment] targets and rho are required for steer")
    table = reachability_experiment(
        problem,
        grid,
        cfg.targets,
        cfg.rhos,
        tol=cfg.steer_tol,
        max_outer=cfg.max_outer,
    )
    write_reachability_table(out_prefix + ".table.txt", table)
    print("steer: %d sweep cells" % len(table.rows))
    for message in table.failures:
        print(f"no convergence: {message}", file=sys.stderr)
    return EXIT_NO_CONVERGENCE if table.failures else EXIT_OK


def _cmd_verify(cfg: RunConfig, trajectory_path: str) -> int:
    problem = build_problem(cfg)
    traj = read_trajectory(trajectory_path)
    report = verify_mild(problem, traj, raw_forcing=build_forcing(cfg, traj.grid))
    text, passed = render_verification(
        report, cfg.verify_equation_tol, cfg.verify_pinning_tol
    )
    print(text)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["ml"] and not {"-h", "--help", "--"} & set(argv):
        # ml takes numbers only, but argparse reads -1e3 or -inf as an
        # option: its negative-number pattern matches only -2 and -2.5
        argv.insert(1, "--")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message; keep its code for
        # --help (0) and force the documented code for bad usage
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        if args.command == "ml":
            return _cmd_ml(args)
        out_dir = os.path.dirname(getattr(args, "out", "")) or "."
        if not os.path.isdir(out_dir):  # checked before any solve
            raise FileNotFoundError(errno.ENOENT, "no such output directory", out_dir)
        cfg = load_config(args.config)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args.out)
        if args.command == "steer":
            return _cmd_steer(cfg, args.out)
        return _cmd_verify(cfg, args.trajectory)
    except tuple(kind for kind, _, _ in _FAILURES) as exc:
        _, label, code = next(f for f in _FAILURES if isinstance(exc, f[0]))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    raise SystemExit(main())
