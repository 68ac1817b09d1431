"""Discrete fractional calculus on uniformly sampled functions.

Provides the Riemann-Liouville fractional integral, the Caputo fractional
derivative (L1 scheme), and a product quadrature for convolutions with
weakly singular kernels of the form (t - s)**(alpha - 1) * h(t - s).  The
quadrature integrates the singular power factor exactly on every
subinterval against the piecewise linear interpolant of the sampled data,
so no kernel value is ever requested at the singularity itself.
Every lag-weight sum at all nodes (this quadrature's, the L1 Caputo
derivative's, verify_mild's midpoint rule) goes through one operator,
LagConvolution, one FFT pair per call; ProductQuadrature is it with the
product-trapezoid weights of one kernel table, and row(i) gives the
weights of node i's sum.  singular_kernel_weights gives the quadrature's
weight vector at one time t on or between nodes (the pin rows).  All
these weights read the power's panel moments from _panel_moments, free
of cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError
from .specfun import gamma


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, horizon] into n_steps subintervals."""

    horizon: float
    n_steps: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise DomainError("horizon must be a positive finite number")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise DomainError("n_steps must be a positive integer")
        object.__setattr__(self, "n_steps", int(self.n_steps))

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    @property
    def delta(self) -> float:
        return self.horizon / self.n_steps

    def locate(self, t: float) -> tuple[int, float]:
        """Return (j, theta) with t = (j + theta) * delta, 0 <= theta < 1.

        t equal to the horizon maps to (n_steps, 0.0).
        """
        if not 0.0 <= t <= self.horizon * (1.0 + 1e-12):
            raise DomainError(f"time {t!r} outside [0, {self.horizon}]")
        pos = t / self.delta
        j = min(int(np.floor(pos)), self.n_steps)
        theta = pos - j
        # snap to the nearest node; keeps on-node queries exact despite
        # floating fuzz in t
        if theta > 1.0 - 1e-9 and j < self.n_steps:
            j, theta = j + 1, 0.0
        elif theta < 1e-9:
            theta = 0.0
        if j == self.n_steps:
            theta = 0.0
        return j, theta


@dataclass(frozen=True)
class SampledFn:
    """Function values on the nodes of a TimeGrid.

    values has one row per node; each row is either a scalar or a vector
    of mode coefficients.  node0_extrapolated marks outputs of the
    derivative operators whose t = 0 entry comes from one-sided
    extrapolation rather than from the defining integral.
    """

    grid: TimeGrid
    values: np.ndarray
    node0_extrapolated: bool = field(default=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape[:1] != (self.grid.n_steps + 1,):
            raise DomainError(f"expected {self.grid.n_steps + 1} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise DomainError("sampled values must all be finite")
        object.__setattr__(self, "values", vals)


def _check_order(alpha: float, allow_one: bool = False) -> float:
    alpha = float(alpha)
    hi_ok = alpha <= 1.0 if allow_one else alpha < 1.0
    if not (np.isfinite(alpha) and 0.0 < alpha and hi_ok):
        rng = "(0, 1]" if allow_one else "(0, 1)"
        raise DomainError(f"order alpha={alpha!r} outside {rng}")
    return alpha


def _panel_moments(alpha: float, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a0, far): integrals of s**(alpha-1) and s**(alpha-1) * (s - u) over [u, u + 1].

    Free of cancellation: a0 = (u + 1)**alpha * -expm1(-alpha L) / alpha with
    L = log1p(1/u), and from u = 1/4 on (L <= log 5) far = u**(alpha+1) L**2
    sum_{m>=2} ((alpha+1)**(m-1) - alpha**(m-1)) L**(m-2) / m!, 40 positive
    terms; below, far = ((u+1)**(alpha+1) - u**(alpha+1)) / (alpha+1) - u a0.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        el = np.log1p(1.0 / u)  # inf at u = 0, where a0 is 1 / alpha
    a0 = (u + 1.0) ** alpha * -np.expm1(-alpha * el) / alpha
    far = ((u + 1.0) ** (alpha + 1.0) - u ** (alpha + 1.0)) / (alpha + 1.0) - u * a0
    hi = u >= 0.25
    v, el, series = u[hi], el[hi], 0.0
    for m in range(41, 1, -1):  # Horner, highest term first
        series = series * el + ((alpha + 1.0) ** (m - 1) - alpha ** (m - 1)) / math.factorial(m)
    far[hi] = v ** (alpha + 1.0) * el * el * series
    return a0, far


def _uniform_kernel(alpha: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Convolution weights of the power kernel against hat functions.

    Returns (k, mu1) with k[d] the weight multiplying the sample at lag d
    and mu1[d] = integral of sigma**(alpha-1) * (d + 1 - sigma) over
    [d, d + 1], the part of k[d] that the t = 0 sample at lag d lacks.
    """
    a0, far = _panel_moments(alpha, np.arange(n + 1))
    mu1 = a0 - far
    return np.concatenate([mu1[:1], far[:-1] + mu1[1:]]), mu1


def _fast_len(m: int) -> int:
    """Smallest 2**a 3**b 5**c >= m, the real FFT's fast lengths."""
    best = 1 << (m - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest p35 * 2**a >= m
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def rl_integral(alpha: float, f: SampledFn) -> SampledFn:
    """Fractional integral of order alpha at every grid node; node 0 is 0."""
    # the power kernel is the singular product quadrature with h = 1
    conv = singular_convolution_all(alpha, np.ones(f.grid.n_steps + 1), f)
    return SampledFn(f.grid, conv / gamma(alpha))


def _extrapolate_node0(vals: np.ndarray) -> np.ndarray:
    n = vals.shape[0] - 1
    if n >= 3:
        vals[0] = 3.0 * vals[1] - 3.0 * vals[2] + vals[3]
    elif n == 2:
        vals[0] = 2.0 * vals[1] - vals[2]
    else:
        vals[0] = vals[1]
    return vals


def caputo_derivative(alpha: float, f: SampledFn) -> SampledFn:
    """L1 discretization of the Caputo derivative of order alpha in (0, 1).

    Exact zero for constant data.  The node 0 value is extrapolated from
    nodes 1..3 and flagged, since the defining kernel is singular there.
    """
    alpha = _check_order(alpha)
    n = f.grid.n_steps
    # b[d - 1] = d**(1 - alpha) - (d - 1)**(1 - alpha), free of cancellation
    b = (1.0 - alpha) * _panel_moments(1.0 - alpha, np.arange(n))[0]
    coef = f.grid.delta ** (-alpha) / gamma(2.0 - alpha)
    # node i sums the increments j = 0..i-1 at lags i - j = 1..i, the
    # weight at lag d being coef * b[d - 1]
    steps = np.zeros_like(f.values)
    steps[:-1] = np.diff(f.values, axis=0)
    out = LagConvolution(np.concatenate([[0.0], coef * b]))(steps)
    return SampledFn(f.grid, _extrapolate_node0(out), node0_extrapolated=True)


def singular_kernel_weights(
    alpha: float,
    kernel_smooth: Callable[[np.ndarray], np.ndarray],
    grid: TimeGrid,
    t: float,
) -> np.ndarray:
    """Weight vector representing the singular product quadrature at t.

    Dotted with the sample values it gives the quadrature up to t, at a
    node the sum ProductQuadrature takes there (whose own rows are
    LagConvolution.row); it serves the pinning times, which may sit
    between nodes.  There the trailing partial panel interpolates the
    product between the last node below t and t itself, so kernel lags
    stay nonnegative.  kernel_smooth maps an array of lags to an array
    whose leading axis runs over the lags: (n_lags,) gives weights of
    shape (n_nodes,), (n_lags, n_cols) one weight column per kernel
    column, each equal to the weights of that column's kernel alone.  It
    is asked for the node lags (jp - j + theta) * delta, then for w0 =
    theta * delta and 0; the power weights are _panel_moments' in units
    of delta.
    """
    alpha = _check_order(alpha, allow_one=True)
    jp, theta = grid.locate(t)
    delta = grid.delta
    w0 = theta * delta
    lags = np.concatenate([(np.arange(jp, -1, -1) + theta) * delta, [w0, 0.0]])
    # one kernel call, array in and array out; its own exceptions propagate
    h = np.asarray(kernel_smooth(lags), dtype=float)
    if h.shape[:1] != lags.shape:
        raise DomainError(f"kernel returned shape {h.shape} for lags of shape {lags.shape}")
    cols = h.reshape(jp + 3, -1)
    w = np.zeros((grid.n_steps + 1, cols.shape[1]))
    if jp > 0:
        # panel j spans lags [u, u + 1] * delta with u = jp - 1 - j + theta;
        # its far moment goes to node j, its near one to node j + 1
        a0, far = _panel_moments(alpha, np.arange(jp - 1, -1, -1) + theta)
        pw = np.append(far, 0.0) + np.append(0.0, a0 - far)
        w[: jp + 1] = (delta ** alpha * pw)[:, None] * cols[: jp + 1]
    if theta > 0.0:
        # the trailing panel's moments against s / w0 and 1 - s / w0
        edge = cols[-1] * (w0 ** alpha / (alpha * (alpha + 1.0)))
        w[jp] += cols[-2] * (w0 ** alpha / (alpha + 1.0)) + edge * (1.0 - theta)
        w[jp + 1] += edge * theta
    return w.reshape((grid.n_steps + 1,) + h.shape[1:])


class LagConvolution:
    """A lag-weight (lower triangular Toeplitz) sum at every node, by FFT.

    out[i] = sum_{d <= i} weights[d] x[i - d] - correction[i] x[0], and
    out[0] = 0.  weights is (n + 1,), one column for every data column, or
    (n + 1, cols), column m for data column m; correction, if given, has
    its shape.  The real FFT (numpy.fft) of the weights is taken once, at
    the smallest 5-smooth length L of at least 2 n, and a call is one
    forward and one inverse real FFT over all data columns.  The linear
    convolution of two length-(n + 1) sequences has 2 n + 1 terms; the
    circular one of length L >= 2 n folds at most its last term, weights[n]
    x[n] at index 2 n, back onto index 0, so nodes 1..n are the linear sums
    and node 0, set to exactly 0, discards the folded term.  Every column's
    value is the same bits as when that column is transformed alone.
    """

    def __init__(self, weights: np.ndarray, correction: np.ndarray | None = None):
        weights = np.asarray(weights, dtype=float)
        n = weights.shape[0] - 1
        self._shape = weights.shape
        self._size = _fast_len(2 * n)
        self._weights = weights.reshape(n + 1, -1)
        self._spectrum = np.fft.rfft(self._weights, self._size, axis=0)
        self._correction = None if correction is None else correction.reshape(n + 1, -1)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The sums at every node; values has one row per node."""
        vals = np.asarray(values, dtype=float)
        n = self._shape[0] - 1
        if vals.shape[:1] != (n + 1,) or self._spectrum.shape[1] not in (1, vals[0].size):
            raise DomainError(f"lag weights {self._shape} do not fit data {vals.shape}")
        cols = vals.reshape(n + 1, -1)
        spectrum = np.fft.rfft(cols, self._size, axis=0) * self._spectrum
        out = np.fft.irfft(spectrum, self._size, axis=0)[: n + 1]
        if self._correction is not None:
            out -= self._correction * cols[0]
        out[0] = 0.0
        return out.reshape(vals.shape)

    def row(self, i: int) -> np.ndarray:
        """Node i's weights on the data at nodes 0..n: out[i] to the FFT's rounding.

        (n + 1,) for 1-D weights, else (cols, n + 1), row m for data column m.
        """
        if not 0 <= i < self._shape[0]:
            raise DomainError(f"node {i} outside 0..{self._shape[0] - 1}")
        w = np.zeros(self._weights.shape[::-1])
        if i > 0:
            w[:, : i + 1] = self._weights[i::-1].T
            if self._correction is not None:
                w[:, 0] -= self._correction[i]
        return w.reshape(self._shape[1:] + w.shape[1:])


class ProductQuadrature(LagConvolution):
    """The product quadrature at every node for one kernel table, precomputed.

    smooth_at_lags[d] must hold h(d * delta).  A 1-D table is one kernel for
    every data column; an (n_nodes, n_cols) table gives data column m its
    own kernel, column m.  The lag weights are delta**alpha k h and the
    node-0 correction delta**alpha mu1 h (_uniform_kernel), so a call gives
    at each node the sum of singular_kernel_weights there against the data.
    """

    def __init__(self, alpha: float, grid: TimeGrid, smooth_at_lags: np.ndarray):
        alpha = _check_order(alpha, allow_one=True)
        n = grid.n_steps
        table = np.asarray(smooth_at_lags, dtype=float)
        if table.shape[:1] != (n + 1,):
            raise DomainError(f"kernel table {table.shape} does not fit {n + 1} nodes")
        k, mu1 = _uniform_kernel(alpha, n)
        cols = table.reshape(n + 1, -1)
        scale = grid.delta ** alpha
        super().__init__(scale * k[:, None] * cols, scale * mu1[:, None] * cols)


def singular_convolution_all(
    alpha: float, smooth_at_lags: np.ndarray, f: SampledFn
) -> np.ndarray:
    """The product quadrature of f at every node and column at once.

    A ProductQuadrature used once; to convolve many data sets with one
    table, build it once and call it.  perfbench/layers.py times the
    quadrature by this name.
    """
    return ProductQuadrature(alpha, f.grid, smooth_at_lags)(f.values)
