"""Deterministic plain-text artifacts for simulation and steering runs.

Every float is written with repr-faithful precision (17 significant
digits), so a run serialized twice from the same inputs produces
byte-identical files and a read-back reconstructs the exact values.
"""

from __future__ import annotations

import numpy as np

from .control import ReachabilityTable
from .errors import ConfigError
from .fraccalc import TimeGrid
from .greens import SolveReport, Trajectory, VerificationReport

__all__ = [
    "format_float",
    "write_trajectory",
    "read_trajectory",
    "write_solve_report",
    "write_reachability_table",
    "render_verification",
]

_TRAJECTORY_MAGIC = "# fracevol trajectory"
_REPORT_MAGIC = "# fracevol report"
_TABLE_MAGIC = "# fracevol reachability"


def format_float(x: float) -> str:
    return "%.17g" % float(x)


def write_trajectory(path: str, traj: Trajectory) -> None:
    grid = traj.grid
    n_modes = traj.states.shape[1]
    lines = [
        _TRAJECTORY_MAGIC,
        f"# horizon {format_float(grid.horizon)}",
        f"# n_steps {grid.n_steps}",
        f"# n_modes {n_modes}",
        "# columns t " + " ".join(f"u_{m + 1}" for m in range(n_modes)),
    ]
    for t, state in zip(grid.nodes, traj.states):
        lines.append(" ".join(map(format_float, [t, *state])))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _header_value(line: str, key: str) -> str:
    prefix = f"# {key} "
    if not line.startswith(prefix):
        raise ConfigError(f"trajectory header: expected '{prefix}...', got {line!r}")
    return line[len(prefix):]


def read_trajectory(path: str) -> Trajectory:
    """Parse a trajectory file back into a Trajectory.

    Raises ConfigError on a file that is not ASCII, an empty file, a
    malformed header, or data that contradicts the declared grid.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"trajectory file {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"trajectory file {path} is empty")
    if lines[0] != _TRAJECTORY_MAGIC:
        raise ConfigError(f"not a trajectory file: first line {lines[0]!r}")
    if len(lines) < 5:
        raise ConfigError("trajectory file truncated before data rows")
    try:
        horizon = float(_header_value(lines[1], "horizon"))
        n_steps = int(_header_value(lines[2], "n_steps"))
        n_modes = int(_header_value(lines[3], "n_modes"))
    except ValueError as exc:
        raise ConfigError(f"trajectory header: {exc}") from exc
    if min(n_steps, n_modes) < 1:
        raise ConfigError(f"trajectory header: n_steps {n_steps}, n_modes {n_modes} must be >= 1")
    if not (np.isfinite(horizon) and horizon > 0.0):
        raise ConfigError(f"trajectory header: horizon {horizon!r} must be positive and finite")
    _header_value(lines[4], "columns")
    rows = lines[5:]
    if len(rows) != n_steps + 1:
        raise ConfigError(f"expected {n_steps + 1} data rows, found {len(rows)}")
    grid = TimeGrid(horizon, n_steps)
    states = np.empty((n_steps + 1, n_modes))
    for i, row in enumerate(rows):
        parts = row.split()
        if len(parts) != n_modes + 1:
            raise ConfigError(f"row {i}: expected {n_modes + 1} columns")
        try:
            t = float(parts[0])
            states[i] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ConfigError(f"row {i}: {exc}") from exc
        if abs(t - grid.nodes[i]) > 1e-12 * max(1.0, horizon):
            raise ConfigError(f"row {i}: time {t} does not sit on the declared grid")
    if not np.all(np.isfinite(states)):
        raise ConfigError("trajectory contains non-finite values")
    return Trajectory(grid, states)


def write_solve_report(path: str, report: SolveReport) -> None:
    lines = [
        _REPORT_MAGIC,
        f"iterations {report.iterations}",
        f"final_residual {format_float(report.final_residual)}",
        f"nonlocal_residual {format_float(report.nonlocal_residual)}",
        f"contraction_estimate {format_float(report.contraction_estimate)}",
        f"control_sup {format_float(report.control_sup)}",
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_reachability_table(path: str, table: ReachabilityTable) -> None:
    lines = [
        _TABLE_MAGIC,
        "# columns target_index rho endpoint_error control_energy outer_iterations",
    ]
    for tid, rho, err, energy, outers in table.rows:
        floats = " ".join(map(format_float, (rho, err, energy)))
        lines.append(f"{tid} {floats} {outers}")
    lines += [f"# failed: {message}" for message in table.failures]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def render_verification(report: VerificationReport, eq_tol: float, pin_tol: float) -> tuple[str, bool]:
    """Residual summary text plus the pass verdict against the given tolerances."""
    passed = report.equation_residual <= eq_tol and report.nonlocal_residual <= pin_tol
    lines = [
        f"equation_residual {format_float(report.equation_residual)}",
        f"nonlocal_residual {format_float(report.nonlocal_residual)}",
        f"equation_tolerance {format_float(eq_tol)}",
        f"pinning_tolerance {format_float(pin_tol)}",
        "result " + ("pass" if passed else "fail"),
    ]
    return "\n".join(lines), passed
