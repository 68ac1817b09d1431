"""Config grammar: parsing, validation, normal form, builders."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracevol import config
from fracevol.config import (
    build_forcing,
    build_grid,
    build_model,
    build_problem,
    load_config,
    normalize_config,
    parse_config,
)
from fracevol.constants import (
    SOLVE_MAX_ITER_DEFAULT,
    SOLVE_TOL_DEFAULT,
    STEER_MAX_OUTER_DEFAULT,
    STEER_TOL_DEFAULT,
)
from fracevol.errors import ConfigError

MINIMAL = """
[model]
rule = dirichlet
n_modes = 3

[problem]
alpha = 0.75
horizon = 1

[grid]
n_steps = 64
"""

FULL = """
[model]
rule = dirichlet
n_modes = 2

[problem]
alpha = 0.6
horizon = 2.5
coupling_weights = 0.2 -0.1
coupling_times = 0.5 1.25
kappa = 2
forcing = 0.3
nonlinearity = gains
gains = -1 -0.5

[grid]
n_steps = 48

[solver]
tol = 1e-9
max_iter = 77
verify_equation_tol = 5e-3
verify_pinning_tol = 2e-3

[experiment]
targets = 0.1 0.2 ; 0 0
rho = 0.1 0.001
steer_tol = 1e-8
max_outer = 11
"""


EXPLICIT = FULL.replace(
    "rule = dirichlet\nn_modes = 2", "rule = explicit\nn_modes = 2\nvalues = 1 4.5"
)

# normalize_config texts of FULL and EXPLICIT, pinned byte for byte
FULL_NORMAL = """\
[model]
rule = dirichlet
n_modes = 2

[problem]
alpha = 0.59999999999999998
horizon = 2.5
coupling_weights = 0.20000000000000001 -0.10000000000000001
coupling_times = 0.5 1.25
kappa = 2
forcing = 0.29999999999999999 0.29999999999999999
nonlinearity = gains
gains = -1 -0.5

[grid]
n_steps = 48

[solver]
tol = 1.0000000000000001e-09
max_iter = 77
verify_equation_tol = 0.0050000000000000001
verify_pinning_tol = 0.002

[experiment]
targets = 0.10000000000000001 0.20000000000000001 ; 0 0
rho = 0.10000000000000001 0.001
steer_tol = 1e-08
max_outer = 11
"""

EXPLICIT_NORMAL = """\
[model]
rule = explicit
values = 1 4.5

[problem]
alpha = 0.59999999999999998
horizon = 2.5
coupling_weights = 0.20000000000000001 -0.10000000000000001
coupling_times = 0.5 1.25
kappa = 2
forcing = 0.29999999999999999 0.29999999999999999
nonlinearity = gains
gains = -1 -0.5

[grid]
n_steps = 48

[solver]
tol = 1.0000000000000001e-09
max_iter = 77
verify_equation_tol = 0.0050000000000000001
verify_pinning_tol = 0.002

[experiment]
targets = 0.10000000000000001 0.20000000000000001 ; 0 0
rho = 0.10000000000000001 0.001
steer_tol = 1e-08
max_outer = 11
"""


def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.rule == "dirichlet"
    assert cfg.n_modes == 3
    assert cfg.alpha == 0.75
    assert cfg.coupling_weights == ()
    assert cfg.kappa == (1.0,)
    assert cfg.forcing is None
    assert cfg.nonlinearity == "none"
    assert cfg.tol == 1e-8
    assert cfg.max_iter == 200
    assert cfg.targets == ()


def test_parse_full_config():
    cfg = parse_config(FULL)
    assert cfg.coupling_weights == (0.2, -0.1)
    assert cfg.coupling_times == (0.5, 1.25)
    assert cfg.kappa == (2.0,)
    # scalar forcing broadcasts to all modes
    assert cfg.forcing == (0.3, 0.3)
    assert cfg.gains == (-1.0, -0.5)
    assert cfg.targets == ((0.1, 0.2), (0.0, 0.0))
    assert cfg.rhos == (0.1, 0.001)
    assert cfg.max_outer == 11
    assert cfg.verify_equation_tol == 5e-3


def test_normal_form_round_trip():
    for text in (MINIMAL, FULL):
        cfg = parse_config(text)
        assert parse_config(normalize_config(cfg)) == cfg


FINITE = st.floats(allow_nan=False, allow_infinity=False)
TOLERANCE = st.floats(0.0, 1e300, exclude_min=True)
BUDGET = st.integers(1, 10**9)


def _vector(n):
    return st.lists(FINITE, min_size=n, max_size=n).map(tuple)


@st.composite
def run_configs(draw):
    """A valid RunConfig: every key of config._KEYS may be drawn, and the
    optional [solver] and [experiment] sections may keep their defaults."""
    n_modes = draw(st.integers(1, 4))
    rule = draw(st.sampled_from(["dirichlet", "explicit"]))
    values = None
    if rule == "explicit":
        rate = st.floats(0.0, 1e300, exclude_min=True)
        rates = draw(st.lists(rate, min_size=n_modes, max_size=n_modes, unique=True))
        values = tuple(sorted(rates))
    horizon = draw(st.floats(1e-6, 1e6))
    times = draw(st.lists(st.floats(0.0, horizon, exclude_min=True), max_size=3, unique=True))
    nonlinearity = draw(st.sampled_from(["none", "demo_sin", "gains"]))
    fields = dict(
        rule=rule,
        n_modes=n_modes,
        model_values=values,
        alpha=draw(st.floats(0.0, 1.0, exclude_min=True)),
        horizon=horizon,
        coupling_weights=draw(_vector(len(times))),
        coupling_times=tuple(sorted(times)),
        kappa=draw(_vector(draw(st.sampled_from([1, n_modes])))),
        forcing=draw(st.none() | _vector(n_modes)),
        nonlinearity=nonlinearity,
        gains=draw(_vector(n_modes)) if nonlinearity == "gains" else None,
        n_steps=draw(st.integers(1, 10**6)),
        tol=SOLVE_TOL_DEFAULT,
        max_iter=SOLVE_MAX_ITER_DEFAULT,
        verify_equation_tol=config.VERIFY_EQUATION_TOL_DEFAULT,
        verify_pinning_tol=config.VERIFY_PINNING_TOL_DEFAULT,
        targets=(),
        rhos=(),
        steer_tol=STEER_TOL_DEFAULT,
        max_outer=STEER_MAX_OUTER_DEFAULT,
    )
    absent = []
    if draw(st.booleans()):
        fields.update(
            tol=draw(TOLERANCE),
            max_iter=draw(BUDGET),
            verify_equation_tol=draw(TOLERANCE),
            verify_pinning_tol=draw(TOLERANCE),
        )
    else:
        absent.append("solver")
    if draw(st.booleans()):
        rhos = draw(st.lists(TOLERANCE, min_size=1, max_size=4, unique=True))
        fields.update(
            targets=tuple(draw(st.lists(_vector(n_modes), min_size=1, max_size=3))),
            rhos=tuple(sorted(rhos, reverse=True)),
            steer_tol=draw(TOLERANCE),
            max_outer=draw(BUDGET),
        )
    else:
        absent.append("experiment")
    return config.RunConfig(**fields), absent


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(drawn=run_configs())
def test_normal_form_round_trips_generated_configs(drawn):
    cfg, absent = drawn
    text = normalize_config(cfg)
    assert parse_config(text) == cfg
    # an optional section left at its defaults may be left out altogether
    blocks = [b for b in text.split("\n\n") if b.split("]")[0][1:] not in absent]
    assert parse_config("\n\n".join(blocks)) == cfg


def test_bundled_configs_parse_and_round_trip():
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    for name in ("demo_heat.ini", "demo_steer.ini"):
        cfg = load_config(str(root / "demos" / "configs" / name))
        assert parse_config(normalize_config(cfg)) == cfg
        assert cfg.alpha == 0.75
        assert cfg.n_modes == 8
        assert cfg.n_steps == 512


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(MINIMAL + "\n[extra]\nx = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(MINIMAL.replace("n_steps = 64", "n_steps = 64\nstyle = fast"))


def test_missing_required_section():
    with pytest.raises(ConfigError, match="missing required section"):
        parse_config("[model]\nrule = dirichlet\nn_modes = 2\n")


def test_explicit_model_values():
    text = MINIMAL.replace(
        "rule = dirichlet\nn_modes = 3", "rule = explicit\nvalues = 1 4.5 9"
    )
    cfg = parse_config(text)
    assert cfg.n_modes == 3
    model = build_model(cfg)
    assert np.array_equal(model.lambdas, np.array([1.0, 4.5, 9.0]))


def test_explicit_model_contradicting_n_modes():
    text = MINIMAL.replace(
        "rule = dirichlet\nn_modes = 3",
        "rule = explicit\nn_modes = 2\nvalues = 1 4 9",
    )
    with pytest.raises(ConfigError, match="contradicts"):
        parse_config(text)


def test_values_without_explicit_rule_rejected():
    with pytest.raises(ConfigError, match="explicit"):
        parse_config(MINIMAL.replace("n_modes = 3", "n_modes = 3\nvalues = 1 2"))


def test_coupling_lists_must_pair():
    with pytest.raises(ConfigError, match="pair"):
        parse_config(MINIMAL.replace("horizon = 1", "horizon = 1\ncoupling_weights = 0.1"))


def test_gains_selector_contract():
    with pytest.raises(ConfigError, match="gains"):
        parse_config(MINIMAL.replace("horizon = 1", "horizon = 1\nnonlinearity = gains"))
    with pytest.raises(ConfigError, match="gains"):
        parse_config(MINIMAL.replace("horizon = 1", "horizon = 1\ngains = 1 1 1"))
    with pytest.raises(ConfigError, match="per mode"):
        parse_config(
            MINIMAL.replace(
                "horizon = 1", "horizon = 1\nnonlinearity = gains\ngains = 1 1"
            )
        )


def test_kappa_length_checked():
    with pytest.raises(ConfigError, match="kappa"):
        parse_config(MINIMAL.replace("horizon = 1", "horizon = 1\nkappa = 1 2"))


def test_domain_violations_surface_as_config_errors():
    with pytest.raises(ConfigError, match="domain"):
        parse_config(MINIMAL.replace("alpha = 0.75", "alpha = 1.5"))
    with pytest.raises(ConfigError, match="domain"):
        parse_config(
            MINIMAL.replace(
                "horizon = 1",
                "horizon = 1\ncoupling_weights = 0.1\ncoupling_times = 1.7",
            )
        )
    with pytest.raises(ConfigError):
        parse_config(MINIMAL.replace("n_steps = 64", "n_steps = 0"))


def test_numeric_validation():
    with pytest.raises(ConfigError, match="not a number"):
        parse_config(MINIMAL.replace("alpha = 0.75", "alpha = fast"))
    with pytest.raises(ConfigError, match="not an integer"):
        parse_config(MINIMAL.replace("n_steps = 64", "n_steps = 64.5"))
    with pytest.raises(ConfigError, match="positive"):
        parse_config(MINIMAL + "\n[solver]\ntol = -1\n")
    with pytest.raises(ConfigError, match=">= 1"):
        parse_config(MINIMAL + "\n[solver]\nmax_iter = 0\n")


def test_target_length_checked():
    with pytest.raises(ConfigError, match="components"):
        parse_config(MINIMAL + "\n[experiment]\ntargets = 0.1 0.2\nrho = 0.1\n")


def test_builders():
    cfg = parse_config(FULL)
    problem = build_problem(cfg)
    assert problem.alpha == 0.6
    assert problem.n_modes == 2
    assert np.array_equal(problem.control_gains, np.array([2.0, 2.0]))
    assert problem.nonlinearity is not None
    assert problem.nonlinearity.lipschitz_bound == 1.0
    grid = build_grid(cfg)
    assert grid.n_steps == 48 and grid.horizon == 2.5
    forcing = build_forcing(cfg, grid)
    assert forcing.values.shape == (49, 2)
    assert np.all(forcing.values == 0.3)
    assert build_forcing(parse_config(MINIMAL), grid) is None


def test_syntax_error_wrapped():
    with pytest.raises(ConfigError, match="syntax"):
        parse_config("n_steps = 64\n")


def test_normal_form_text_is_pinned():
    assert normalize_config(parse_config(FULL)) == FULL_NORMAL
    # under rule = explicit the values list stands in for n_modes
    assert normalize_config(parse_config(EXPLICIT)) == EXPLICIT_NORMAL


@pytest.mark.parametrize(
    "section, key",
    [
        ("solver", "tol"),
        ("solver", "verify_equation_tol"),
        ("solver", "verify_pinning_tol"),
        ("experiment", "steer_tol"),
    ],
)
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_tolerances_must_be_positive_and_finite(section, key, value):
    with pytest.raises(ConfigError, match=rf"\[{section}\] {key}: .*positive finite"):
        parse_config(MINIMAL + f"\n[{section}]\n{key} = {value}\n")


def test_docstring_grammar_lists_exactly_the_config_keys():
    pairs, section = [], None
    for line in config.__doc__.splitlines():
        head = re.match(r"    \[(\w+)\]", line)
        if head:
            section = head.group(1)
        entry = re.match(r"    (\w+) = ", line)
        if entry:
            pairs.append((section, entry.group(1)))
    assert pairs == [(section, key) for section, key, *_ in config._KEYS]
