"""Run configuration: a flat sectioned key = value format.

Grammar (one level of sections, values are scalars or space-separated
lists; semicolons separate vectors inside the targets list):

    [model]
    rule = dirichlet | explicit
    n_modes = <int>                  required for dirichlet
    values = <float list>            required for explicit

    [problem]
    alpha = <float in (0, 1]>
    horizon = <float > 0>
    coupling_weights = <float list>  optional, paired with coupling_times
    coupling_times = <float list>
    kappa = <float or float list>    control gains, default 1
    forcing = <float or float list>  steady per-mode source, optional
    nonlinearity = none | demo_sin | gains
    gains = <float list>             required iff nonlinearity = gains

    [grid]
    n_steps = <int >= 1>

    [solver]                         optional section; steer reads none of it
    tol = <tolerance>                Picard stop: the update's sup norm
    max_iter = <budget>
    verify_equation_tol = <tolerance>
    verify_pinning_tol = <tolerance>

    [experiment]                     optional; required by the steer command
    targets = <float list> [; <float list> ...]
    rho = <strictly decreasing positive float list>
    steer_tol = <tolerance>          pass stop: the trajectory change's sup norm
    max_outer = <budget>

A <tolerance> is a positive finite float: nan, inf, 0 and negative
values are rejected at load time.  A <budget> is an iteration count
>= 1.  Unknown sections or keys are rejected.  normalize_config emits a
canonical text (fixed section and key order, 17-digit floats) whose
parse is equal to the original.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

from .constants import (
    SOLVE_MAX_ITER_DEFAULT,
    SOLVE_TOL_DEFAULT,
    STEER_MAX_OUTER_DEFAULT,
    STEER_TOL_DEFAULT,
)
from .errors import ConfigError, DomainError
from .fraccalc import SampledFn, TimeGrid
from .greens import (
    NonlocalSpec,
    ProblemSpec,
    mode_gain_source,
    sine_collocation_source,
)
from .serialize import format_float
from .spectral import SpectralModel

__all__ = [
    "RunConfig",
    "parse_config",
    "load_config",
    "normalize_config",
    "build_model",
    "build_problem",
    "build_grid",
    "build_forcing",
]

VERIFY_EQUATION_TOL_DEFAULT = 2e-3
VERIFY_PINNING_TOL_DEFAULT = 1e-3


@dataclasses.dataclass(frozen=True)
class RunConfig:
    rule: str
    n_modes: int
    model_values: tuple[float, ...] | None
    alpha: float
    horizon: float
    coupling_weights: tuple[float, ...]
    coupling_times: tuple[float, ...]
    kappa: tuple[float, ...]
    forcing: tuple[float, ...] | None
    nonlinearity: str
    gains: tuple[float, ...] | None
    n_steps: int
    tol: float
    max_iter: int
    verify_equation_tol: float
    verify_pinning_tol: float
    targets: tuple[tuple[float, ...], ...]
    rhos: tuple[float, ...]
    steer_tol: float
    max_outer: int


class _Kind(NamedTuple):
    """How one kind of value is read from and written to the config text."""

    parse: Callable[[str], object]  # raises ValueError on a bad value
    what: str  # a valid value, as the error message names it
    format: Callable[[object], str]


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split())


def _budget(raw: str) -> int:
    n = int(raw)
    if n < 1:
        raise ValueError(raw)
    return n


def _tolerance(raw: str) -> float:
    x = float(raw)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(raw)
    return x


def _word(*choices: str) -> _Kind:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(raw)
        return raw

    return _Kind(parse, ", ".join(choices[:-1]) + " or " + choices[-1], str)


_FLOAT = _Kind(float, "a number", format_float)
_INT = _Kind(int, "an integer", str)
_BUDGET = _Kind(_budget, "an integer >= 1", str)
_TOL = _Kind(_tolerance, "a positive finite number", format_float)
_FLOATS = _Kind(_floats, "a number list", lambda vals: " ".join(map(format_float, vals)))
_VECTORS = _Kind(
    lambda raw: tuple(map(_floats, raw.split(";"))),
    "a ;-separated list of number lists",
    lambda vecs: " ; ".join(map(_FLOATS.format, vecs)),
)

_REQUIRED = object()

# (section, key, RunConfig field, kind, default when the key is absent),
# in the order of the normal form
_KEYS = (
    ("model", "rule", "rule", _word("dirichlet", "explicit"), "dirichlet"),
    ("model", "n_modes", "n_modes", _INT, None),
    ("model", "values", "model_values", _FLOATS, None),
    ("problem", "alpha", "alpha", _FLOAT, _REQUIRED),
    ("problem", "horizon", "horizon", _FLOAT, _REQUIRED),
    ("problem", "coupling_weights", "coupling_weights", _FLOATS, ()),
    ("problem", "coupling_times", "coupling_times", _FLOATS, ()),
    ("problem", "kappa", "kappa", _FLOATS, (1.0,)),
    ("problem", "forcing", "forcing", _FLOATS, None),
    ("problem", "nonlinearity", "nonlinearity", _word("none", "demo_sin", "gains"), "none"),
    ("problem", "gains", "gains", _FLOATS, None),
    ("grid", "n_steps", "n_steps", _INT, _REQUIRED),
    ("solver", "tol", "tol", _TOL, SOLVE_TOL_DEFAULT),
    ("solver", "max_iter", "max_iter", _BUDGET, SOLVE_MAX_ITER_DEFAULT),
    ("solver", "verify_equation_tol", "verify_equation_tol", _TOL, VERIFY_EQUATION_TOL_DEFAULT),
    ("solver", "verify_pinning_tol", "verify_pinning_tol", _TOL, VERIFY_PINNING_TOL_DEFAULT),
    ("experiment", "targets", "targets", _VECTORS, ()),
    ("experiment", "rho", "rhos", _FLOATS, ()),
    ("experiment", "steer_tol", "steer_tol", _TOL, STEER_TOL_DEFAULT),
    ("experiment", "max_outer", "max_outer", _BUDGET, STEER_MAX_OUTER_DEFAULT),
)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(
        interpolation=None, delimiters=("=",), comment_prefixes=("#",)
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc

    known = {(section, key) for section, key, *_ in _KEYS}
    for section in parser.sections():
        if section not in {s for s, _ in known}:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    for required in ("model", "problem", "grid"):
        if not parser.has_section(required):
            raise ConfigError(f"missing required section [{required}]")

    v: dict[str, object] = {}
    for section, key, field, kind, default in _KEYS:
        if not parser.has_option(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"[{section}] {key} is required")
            v[field] = default
            continue
        raw = parser.get(section, key).strip()
        try:
            v[field] = kind.parse(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: not {kind.what}: {raw!r}") from exc

    if v["rule"] == "explicit":
        if v["model_values"] is None:
            raise ConfigError("[model] rule = explicit needs a values list")
        if v["n_modes"] is not None and v["n_modes"] != len(v["model_values"]):
            raise ConfigError("[model] n_modes contradicts the explicit values list")
        v["n_modes"] = len(v["model_values"])
    elif v["model_values"] is not None:
        raise ConfigError("[model] values requires rule = explicit")
    elif v["n_modes"] is None:
        raise ConfigError("[model] n_modes is required for rule = dirichlet")
    n_modes = v["n_modes"]
    if n_modes < 1:
        raise ConfigError("[model] needs at least one mode")

    if parser.has_option("problem", "coupling_weights") != parser.has_option(
        "problem", "coupling_times"
    ):
        raise ConfigError("[problem] coupling_weights and coupling_times come in a pair")
    if len(v["coupling_weights"]) != len(v["coupling_times"]):
        raise ConfigError("[problem] coupling lists differ in length")
    if len(v["kappa"]) not in (1, n_modes):
        raise ConfigError(
            f"[problem] kappa must be a scalar or one gain per mode ({n_modes})"
        )
    if v["forcing"] is not None:
        if len(v["forcing"]) == 1:
            v["forcing"] = v["forcing"] * n_modes
        if len(v["forcing"]) != n_modes:
            raise ConfigError(
                f"[problem] forcing must be a scalar or one value per mode ({n_modes})"
            )
    if (v["nonlinearity"] == "gains") != (v["gains"] is not None):
        raise ConfigError("[problem] gains is required iff nonlinearity = gains")
    if v["gains"] is not None and len(v["gains"]) != n_modes:
        raise ConfigError(f"[problem] gains needs one entry per mode ({n_modes})")
    if any(len(vec) != n_modes for vec in v["targets"]):
        raise ConfigError(f"[experiment] each target needs {n_modes} components")

    cfg = RunConfig(**v)
    # re-validate the module invariants eagerly so a bad config fails at
    # load time, not mid-run
    try:
        build_problem(cfg)
        build_grid(cfg)
    except DomainError as exc:
        raise ConfigError(f"config violates a domain invariant: {exc}") from exc
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse_config(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def normalize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse_config(normalize_config(c)) == c."""
    lines: list[str] = []
    current = None
    for section, key, field, kind, _ in _KEYS:
        if section != current:
            lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
            current = section
        value = getattr(cfg, field)
        if value is None or value == () or (field == "n_modes" and cfg.rule == "explicit"):
            continue
        lines.append(f"{key} = {kind.format(value)}")
    return "\n".join(lines) + "\n"


def build_model(cfg: RunConfig) -> SpectralModel:
    if cfg.rule == "explicit":
        assert cfg.model_values is not None
        return SpectralModel(np.array(cfg.model_values, dtype=float))
    return SpectralModel.dirichlet_laplacian(cfg.n_modes)


def build_problem(cfg: RunConfig) -> ProblemSpec:
    model = build_model(cfg)
    coupling = NonlocalSpec(
        np.array(cfg.coupling_weights, dtype=float),
        np.array(cfg.coupling_times, dtype=float),
        cfg.horizon,
    )
    if cfg.nonlinearity == "demo_sin":
        source = sine_collocation_source(cfg.n_modes)
    elif cfg.nonlinearity == "gains":
        assert cfg.gains is not None
        source = mode_gain_source(np.array(cfg.gains, dtype=float))
    else:
        source = None
    kappa = np.array(cfg.kappa, dtype=float)
    gains = float(kappa[0]) if len(kappa) == 1 else kappa
    return ProblemSpec(
        model, cfg.alpha, coupling, nonlinearity=source, control_gains=gains
    )


def build_grid(cfg: RunConfig) -> TimeGrid:
    return TimeGrid(cfg.horizon, cfg.n_steps)


def build_forcing(cfg: RunConfig, grid: TimeGrid):
    """Steady source as a sampled signal, or None when the config has none."""
    if cfg.forcing is None:
        return None
    row = np.array(cfg.forcing, dtype=float)
    return SampledFn(grid, np.tile(row, (grid.n_steps + 1, 1)))
