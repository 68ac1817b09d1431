"""Outside-in layer trace for the fracevol CLI.

The recorder wraps public entry points of each fracevol module from
outside the package: every module that bound an entry point (including
``from .x import y`` bindings) gets the same wrapper.  A wrapper only
times the call and counts what its arguments and result show, so traced
outputs stay byte-identical to untraced ones.

Spans are aggregated per name as they close (calls, inclusive time, self
time).  Self time is a span's duration minus the part covered by its
directly nested spans.  Inclusive time counts only the outermost active
span of a name, so a name nested in itself is not counted twice.

An entry point that no longer exists leaves its metrics ``None``
(reported as null), never 0, and the untraced run is not affected.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import sys
import time
from typing import Any, Callable

import numpy as np


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Recorder:
    """Span stack plus per-name aggregates and free-form counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._depth: dict[str, int] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[["Recorder", tuple, dict, Any], None] | None = None,
    ) -> Callable:
        """fn timed under span name; observe(rec, args, kwargs, result) runs after."""
        stats = self.spans.setdefault(name, SpanStats())
        stack = self._stack
        depth = self._depth
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                depth[name] -= 1
                stats.calls += 1
                stats.self_time += duration - frame[0]
                if depth[name] == 0:
                    stats.total += duration
                if stack:
                    stack[-1][0] += duration
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper


# -- observers: read counts from arguments and results, never change them --


def _hashable(x: Any) -> Any:
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes())
    return x


def _ml_observe(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    key = tuple(_hashable(a) for a in args) + tuple(
        (k, _hashable(v)) for k, v in sorted(kwargs.items())
    )
    rec.distinct.setdefault("specfun.ml", set()).add(key)


def _rows_observe(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    # node rows the source evaluated: 1 for a (t, mode_vector) call, the
    # leading dimension for a batched (times, states) call
    arrays = [a for a in list(args) + list(kwargs.values()) if isinstance(a, np.ndarray)]
    rows = 1
    if arrays and arrays[-1].ndim >= 2:
        rows = arrays[-1].shape[0]
    rec.count("greens.source_rows", rows)


def _picard_observe(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        iterations = getattr(part, "iterations", None)
        if isinstance(iterations, int):
            rec.count("greens.picard_iters", iterations)
            return
    rec.count("greens.picard_unreadable")


def _outer_observe(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    outer = getattr(result, "outer_iterations", None)
    if isinstance(outer, int):
        rec.count("control.outer_passes", outer)
    else:
        rec.count("control.outer_unreadable")


def _bytes_observe(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    for a in list(args) + list(kwargs.values()):
        if isinstance(a, (str, os.PathLike)) and os.path.isfile(a):
            rec.count("serialize.bytes", os.path.getsize(a))
            return


# -- probes: (span name, module, attribute path, observer) --------------

PROBES: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("specfun.ml", "fracevol.specfun", "mittag_leffler", _ml_observe),
    ("spectral.decay", "fracevol.spectral", "decay_factors", None),
    ("fraccalc.weights", "fracevol.fraccalc", "singular_kernel_weights", None),
    ("fraccalc.conv", "fracevol.fraccalc", "singular_convolution_all", None),
    ("greens.assembly", "fracevol.greens", "ResponseAssembly.__init__", None),
    ("greens.solve", "fracevol.greens", "solve_mild", _picard_observe),
    ("greens.endpoint_rows", "fracevol.greens", "endpoint_response_rows", None),
    ("greens.verify", "fracevol.greens", "verify_mild", None),
    ("control.cell", "fracevol.control", "steer", _outer_observe),
    ("control.gramian", "fracevol.control", "gramian", None),
    ("config.load", "fracevol.config", "load_config", None),
    ("serialize.write", "fracevol.serialize", "write_trajectory", _bytes_observe),
    ("serialize.write", "fracevol.serialize", "write_solve_report", _bytes_observe),
    ("serialize.write", "fracevol.serialize", "write_reachability_table", _bytes_observe),
    ("serialize.read", "fracevol.serialize", "read_trajectory", _bytes_observe),
)

# the source closure is reached through its public factory, which
# config.build_problem looks up by name
SOURCE_FACTORY = ("fracevol.greens", "sine_collocation_source")


def _resolve(module: str, path: str) -> tuple[Any, str, Any] | None:
    """(owner, attribute, current value) for module.path, or None if gone."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, vars(owner)[attr]


def _rebind(original: Any, replacement: Any) -> None:
    """Replace original in every loaded fracevol module that bound it."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "fracevol" or name.startswith("fracevol.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(rec: Recorder) -> Recorder:
    """Wrap every probe that still exists; record the ones that do not."""
    for span, module, path, observe in PROBES:
        found = _resolve(module, path)
        if found is None:
            rec.missing.append(f"{module}.{path}")
            continue
        owner, attr, original = found
        wrapped = rec.wrap(span, original, observe)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped)
    _install_source(rec)
    return rec


def _install_source(rec: Recorder) -> None:
    module, path = SOURCE_FACTORY
    found = _resolve(module, path)
    if found is None:
        rec.missing.append(f"{module}.{path}")
        return
    _, _, factory = found
    rec.spans.setdefault("greens.source", SpanStats())
    timed_fn = functools.partial(rec.wrap, "greens.source", observe=_rows_observe)

    @functools.wraps(factory)
    def traced_factory(*args, **kwargs):
        source = factory(*args, **kwargs)
        if dataclasses.is_dataclass(source) and callable(getattr(source, "fn", None)):
            return dataclasses.replace(source, fn=timed_fn(source.fn))
        rec.count("greens.source_unwrappable")
        return source

    _rebind(factory, traced_factory)


# -- metrics ---------------------------------------------------------------

# (metric, unit); the order is the order of BENCHMARK.json's per_layer list
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("specfun.ml_calls", "count"),
    ("specfun.ml_distinct", "count"),
    ("specfun.ml_s", "s"),
    ("specfun.ml_repeat_share", "share"),
    ("spectral.decay_calls", "count"),
    ("spectral.decay_self_s", "s"),
    ("fraccalc.weights_calls", "count"),
    ("fraccalc.weights_self_s", "s"),
    ("fraccalc.conv_calls", "count"),
    ("fraccalc.conv_s", "s"),
    ("greens.assembly_builds", "count"),
    ("greens.assembly_s", "s"),
    ("greens.builds_per_cell", "builds/cell"),
    ("greens.solves", "count"),
    ("greens.picard_iters", "count"),
    ("greens.iters_per_solve", "iters/solve"),
    ("greens.solve_self_s", "s"),
    ("greens.source_calls", "count"),
    ("greens.source_rows", "count"),
    ("greens.source_s", "s"),
    ("greens.endpoint_rows_calls", "count"),
    ("greens.endpoint_rows_s", "s"),
    ("greens.verify_self_s", "s"),
    ("control.cells", "count"),
    ("control.outer_passes", "count"),
    ("control.passes_per_cell", "passes/cell"),
    ("control.cell_s", "s"),
    ("control.gramian_s", "s"),
    ("config.load_s", "s"),
    ("serialize.write_s", "s"),
    ("serialize.read_s", "s"),
    ("serialize.bytes", "bytes"),
)


def _ratio(num: float | None, den: float | None) -> float | None:
    """num / den; None if either side is missing, 0 for an empty denominator."""
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, float | None]:
    """Per-layer metric values; None marks a layer whose entry point is gone."""
    spans, counters = rec.spans, rec.counters

    def stat(span: str, field: str) -> float | None:
        return getattr(spans[span], field) if span in spans else None

    def calls(span: str) -> int | None:
        return stat(span, "calls")

    def total(span: str) -> float | None:
        return stat(span, "total")

    def self_time(span: str) -> float | None:
        return stat(span, "self_time")

    def counter(name: str, span: str, unreadable: str | None = None) -> float | None:
        if span not in spans or (unreadable and counters.get(unreadable)):
            return None
        return counters.get(name, 0)

    if counters.get("greens.source_unwrappable"):
        spans = {k: v for k, v in spans.items() if k != "greens.source"}
    ml_calls = calls("specfun.ml")
    ml_distinct = None if ml_calls is None else len(rec.distinct.get("specfun.ml", ()))
    builds = calls("greens.assembly")
    solves = calls("greens.solve")
    iters = counter("greens.picard_iters", "greens.solve", "greens.picard_unreadable")
    cells = calls("control.cell")
    outer = counter("control.outer_passes", "control.cell", "control.outer_unreadable")
    values: dict[str, float | None] = {
        "specfun.ml_calls": ml_calls,
        "specfun.ml_distinct": ml_distinct,
        "specfun.ml_s": total("specfun.ml"),
        "specfun.ml_repeat_share": (
            None if ml_calls is None else (1.0 - ml_distinct / ml_calls if ml_calls else 0.0)
        ),
        "spectral.decay_calls": calls("spectral.decay"),
        "spectral.decay_self_s": self_time("spectral.decay"),
        "fraccalc.weights_calls": calls("fraccalc.weights"),
        "fraccalc.weights_self_s": self_time("fraccalc.weights"),
        "fraccalc.conv_calls": calls("fraccalc.conv"),
        "fraccalc.conv_s": total("fraccalc.conv"),
        "greens.assembly_builds": builds,
        "greens.assembly_s": total("greens.assembly"),
        "greens.builds_per_cell": _ratio(builds, cells),
        "greens.solves": solves,
        "greens.picard_iters": iters,
        "greens.iters_per_solve": _ratio(iters, solves),
        "greens.solve_self_s": self_time("greens.solve"),
        "greens.source_calls": calls("greens.source"),
        "greens.source_rows": counter("greens.source_rows", "greens.source"),
        "greens.source_s": total("greens.source"),
        "greens.endpoint_rows_calls": calls("greens.endpoint_rows"),
        "greens.endpoint_rows_s": total("greens.endpoint_rows"),
        "greens.verify_self_s": self_time("greens.verify"),
        "control.cells": cells,
        "control.outer_passes": outer,
        "control.passes_per_cell": _ratio(outer, cells),
        "control.cell_s": total("control.cell"),
        "control.gramian_s": total("control.gramian"),
        "config.load_s": total("config.load"),
        "serialize.write_s": total("serialize.write"),
        "serialize.read_s": total("serialize.read"),
        "serialize.bytes": (
            counters.get("serialize.bytes", 0)
            if "serialize.write" in spans or "serialize.read" in spans
            else None
        ),
    }
    return values
