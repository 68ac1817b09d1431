"""Discrete fractional calculus on uniformly sampled functions.

Provides the Riemann-Liouville fractional integral, the Caputo and
Riemann-Liouville fractional derivatives (L1-type schemes), and a product
quadrature for convolutions with weakly singular kernels of the form
(t - s)**(alpha - 1) * h(t - s).  The quadrature integrates the singular
power factor exactly on every subinterval against the piecewise linear
interpolant of the sampled data, so no kernel value is ever requested at
the singularity itself.  These weights, the L1 weights and verify_mild's
all read the power's panel moments from _panel_moments, free of cancellation.
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
        if vals.shape[0] != self.grid.n_steps + 1:
            raise DomainError(
                f"expected {self.grid.n_steps + 1} samples, got {vals.shape[0]}"
            )
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


def rl_integral_at(alpha: float, f: SampledFn, t: float) -> float | np.ndarray:
    """Fractional integral evaluated at an arbitrary time in [0, horizon]."""
    # the power kernel is the singular product quadrature with h = 1
    w = singular_kernel_weights(alpha, np.ones_like, f.grid, t)
    return w @ f.values / gamma(alpha)


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
    vals = np.asarray(f.values, dtype=float)
    cols = vals.reshape(n + 1, -1)
    out = np.zeros_like(cols)
    for m in range(cols.shape[1]):
        out[1:, m] = coef * np.convolve(b, np.diff(cols[:, m]))[:n]
    out = _extrapolate_node0(out).reshape(vals.shape)
    return SampledFn(f.grid, out, node0_extrapolated=True)


def rl_derivative(alpha: float, f: SampledFn) -> SampledFn:
    """Riemann-Liouville derivative: Caputo part plus the t**(-alpha) offset.

    Coincides with caputo_derivative whenever f(0) = 0.
    """
    alpha = _check_order(alpha)
    cap = caputo_derivative(alpha, f)
    n = f.grid.n_steps
    out = np.array(cap.values, dtype=float).reshape(n + 1, -1)
    t_pos = f.grid.nodes[1:]
    boundary = t_pos ** (-alpha) / gamma(1.0 - alpha)
    f0 = f.values.reshape(n + 1, -1)[0]
    out[1:] += np.outer(boundary, f0)
    out = _extrapolate_node0(out).reshape(cap.values.shape)
    return SampledFn(f.grid, out, node0_extrapolated=True)


def singular_convolution(
    alpha: float,
    kernel_smooth: Callable[[np.ndarray], np.ndarray],
    f: SampledFn,
    t_index: int,
) -> float | np.ndarray:
    """integral_0^{t_i} (t_i - s)**(alpha-1) * h(t_i - s) * f(s) ds.

    The power factor is integrated exactly per subinterval against the
    piecewise linear interpolant of the sampled product h(t_i - s) f(s).
    h is only ever evaluated at nonnegative lags including 0, never at a
    point where the combined kernel is singular.
    """
    n = f.grid.n_steps
    i = int(t_index)
    if not 0 <= i <= n:
        raise DomainError(f"t_index {t_index!r} outside 0..{n}")
    return singular_convolution_at(alpha, kernel_smooth, f, f.grid.nodes[i])


def singular_convolution_at(
    alpha: float,
    kernel_smooth: Callable[[np.ndarray], np.ndarray],
    f: SampledFn,
    t: float,
) -> float | np.ndarray:
    """Same product quadrature with an arbitrary upper limit t in [0, horizon].

    When t falls strictly between nodes, the product on the trailing
    partial subinterval is interpolated between its value at the last node
    below t and its value at t itself, so kernel lags stay nonnegative.
    """
    w = singular_kernel_weights(alpha, kernel_smooth, f.grid, t)
    return w @ np.asarray(f.values, dtype=float)


def singular_kernel_weights(
    alpha: float,
    kernel_smooth: Callable[[np.ndarray], np.ndarray],
    grid: TimeGrid,
    t: float,
) -> np.ndarray:
    """Weight vector representing the singular product quadrature at t.

    The value singular_convolution_at returns is exactly this vector dotted
    with the sample values; exposing the weights lets linear functionals of
    the data (endpoint response rows, Gramian assembly) reuse the identical
    discretization.  kernel_smooth maps an array of lags to an array whose
    leading axis runs over the lags: (n_lags,) gives weights of shape
    (n_nodes,), (n_lags, n_cols) gives one weight column per kernel column,
    each equal to the weights of that column's kernel alone.  It is asked
    for the node lags (jp - j + theta) * delta, at a node exactly the
    product quadrature's k * delta, then for w0 = theta * delta and 0; the
    power weights are _panel_moments' in units of delta.
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


class ProductQuadrature:
    """singular_convolution at every node for one kernel table, precomputed.

    smooth_at_lags[d] must hold h(d * delta).  A 1-D table is one kernel for
    every data column; an (n_nodes, n_cols) table gives data column m its
    own kernel, column m.  Building it forms the weighted table k * h and
    the t = 0 correction mu1 * h once, and the real FFT (numpy.fft) of the
    weighted table at the smallest 5-smooth length L of at least 2 n.  Each
    call is then one forward and one inverse real FFT over all data
    columns: the same sums as the node-by-node quadrature, up to the FFT's
    rounding.  The linear convolution of two length-(n + 1) sequences has
    2 n + 1 terms; the circular one of length L >= 2 n folds at most its
    last term, k[n] x[n] at index 2 n, back onto index 0, so nodes 1..n
    are the linear sums.  Node 0, the integral over an empty interval, is
    set to exactly 0, which discards the folded term.  Every column's
    value is the same bits as when that column is transformed alone.
    The product-trapezoid weights k and mu1 come from _panel_moments.
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
        self.grid = grid
        self._table_shape = table.shape
        self._size = _fast_len(2 * n)
        self._spectrum = np.fft.rfft(scale * k[:, None] * cols, self._size, axis=0)
        self._correction = scale * mu1[:, None] * cols

    def __call__(self, values: np.ndarray) -> np.ndarray:
        """The quadrature at every node; values has one row per node."""
        vals = np.asarray(values, dtype=float)
        n = self.grid.n_steps
        if vals.shape[:1] != (n + 1,) or self._correction.shape[1] not in (1, vals[0].size):
            raise DomainError(
                f"kernel table {self._table_shape} does not fit data {vals.shape}"
            )
        cols = vals.reshape(n + 1, -1)
        spectrum = np.fft.rfft(cols, self._size, axis=0) * self._spectrum
        out = np.fft.irfft(spectrum, self._size, axis=0)[: n + 1]
        out -= self._correction * cols[0]
        out[0] = 0.0
        return out.reshape(vals.shape)


def singular_convolution_all(
    alpha: float, smooth_at_lags: np.ndarray, f: SampledFn
) -> np.ndarray:
    """singular_convolution at every node and column at once.

    A ProductQuadrature used once; see there for the table's shape.  To
    convolve many data sets with one table, build the ProductQuadrature
    once and call it.
    """
    return ProductQuadrature(alpha, f.grid, smooth_at_lags)(f.values)
