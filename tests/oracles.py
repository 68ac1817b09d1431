"""Independent reference values for the test suite.

Everything here is computed with mpmath at adaptive precision, through
routes that do not share code with the package: the defining power
series, high-precision quadrature of defining integrals, and term-wise
integrated series.  Floats are promoted to mpf before any arithmetic so
the oracle evaluates the same binary inputs the implementation sees.  Some
references are float64: product_quadrature_direct, the product
quadrature's direct O(n**2) sum, which the package's FFT evaluation is
checked against; midpoint_convolution_direct and l1_convolution_direct,
the per-column np.convolve sums of verify_mild and the L1 Caputo
derivative; manufactured_solution, a closed-form mild solution with its
forcing; and tail_expansion_reference, the Mittag-Leffler tail
expansion with a per-row stop scan, which the package's must match bit
for bit.  branch_cut_reference, the Mittag-Leffler branch-cut rule summed
at step h on every row, is float64 too.  The product-trapezoid weights and sums
(panel_moments and its users) take the power's panel moments from the
antiderivatives at 40 digits, which their cancellation leaves over 30.

The power-series oracle is the ground truth wherever it is affordable.
For strongly negative arguments with small alpha its peak term outgrows
any reasonable precision budget, so there the branch-cut quadrature
oracle takes over; ``test_oracle_chain`` in test_specfun.py pins the two
against each other on an overlap grid first.
"""
from __future__ import annotations

import functools
import math

import mpmath as mp

# peak magnitude of the series in digits we are willing to cancel
_SERIES_DIGIT_BUDGET = 450


def ml_series_digits_needed(alpha: float, z: float) -> float:
    """Decimal digits the series oracle would cancel at these arguments."""
    x = abs(z)
    if x == 0.0 or z > 0.0:
        return 0.0
    try:
        peak = x ** (1.0 / alpha)
    except OverflowError:
        return math.inf
    return 0.45 * peak


def ml_series(alpha: float, beta: float, z: float, min_terms: int = 300):
    """Power-series reference, at least ``min_terms`` terms, adaptive dps."""
    digits = ml_series_digits_needed(alpha, z)
    if digits > _SERIES_DIGIT_BUDGET:
        raise ValueError("series oracle infeasible at these arguments")
    dps = int(digits) + 40
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        zz = mp.mpf(z)
        s = mp.mpf(0)
        tol = mp.mpf(10) ** (-dps + 6)
        n = 0
        while True:
            t = zz ** n / mp.gamma(a * n + b)
            s += t
            n += 1
            if n >= min_terms and abs(t) < tol * max(abs(s), mp.mpf("1e-60")):
                break
            if n > 500_000:
                raise ValueError("series oracle did not converge")
        return +s


def ml_branch_cut(alpha: float, beta: float, z: float):
    """Branch-cut integral reference for 0 < alpha < 1, z < 0.

    The integrand behaves like chi**((1-beta)/alpha) near 0, which for
    beta close to 1+alpha is barely integrable.  Substituting
    u = chi**(1+(1-beta)/alpha) on the first panel absorbs that kernel
    exactly, so the quadrature only ever sees a smooth integrand.
    """
    if not (0.0 < alpha < 1.0 and z < 0.0):
        raise ValueError("branch-cut oracle needs alpha in (0,1) and z < 0")
    with mp.workdps(40):
        a = mp.mpf(alpha)
        zz = mp.mpf(z)
        b = mp.mpf(beta)
        shifts = []
        while b >= 1 + a - mp.mpf("1e-9"):
            b -= a
            shifts.append(b)
        sa = mp.sin(mp.pi * (1 - b))
        sb = mp.sin(mp.pi * (1 - b + a))
        ca = mp.cos(mp.pi * a)
        x = -zz

        def smooth_part(chi):
            num = chi * sa - zz * sb
            den = chi * chi - 2 * chi * zz * ca + zz * zz
            return mp.exp(-chi ** (1 / a)) * num / den / (mp.pi * a)

        pw = (1 - b) / a
        q = 1 + pw  # positive because b < 1 + a after reduction
        delta = mp.mpf(1)

        def transformed(u):
            if u <= 0:
                return mp.mpf(0)
            return smooth_part(u ** (1 / q)) / q

        head = mp.quad(transformed, [0, delta ** q], maxdegree=8)

        def integrand(chi):
            return chi ** pw * smooth_part(chi)

        upper = max(mp.mpf(460) ** a, 3 * x)
        pts = sorted({delta, x / 2, x, 2 * x, upper})
        pts = [p for p in pts if delta <= p <= upper]
        if pts[0] != delta:
            pts.insert(0, delta)
        tail = mp.quad(integrand, pts, maxdegree=8)

        value = head + tail
        for bb in reversed(shifts):
            value = (value - 1 / mp.gamma(bb)) / zz
        return +value


def ml_oracle(alpha: float, beta: float, z: float) -> float:
    """Best available reference as a float."""
    if z > 0.0 and z ** (1.0 / alpha) > 705.0:
        # beyond float64 range; the value itself is astronomically large
        return math.inf
    if ml_series_digits_needed(alpha, z) <= _SERIES_DIGIT_BUDGET:
        return float(ml_series(alpha, beta, z))
    return float(ml_branch_cut(alpha, beta, z))


def gamma_integral(x: float) -> float:
    """Gamma(x) by quadrature of the defining integral, x > 0.

    Deliberately avoids mp.gamma so it cannot share a route with any
    gamma implementation under test.
    """
    with mp.workdps(40):
        xx = mp.mpf(x)
        if xx >= 1:
            def integrand(t):
                if t <= 0:
                    return mp.mpf(0)
                return t ** (xx - 1) * mp.exp(-t)

            pts = [mp.mpf(0), mp.mpf(1), xx + 10, mp.inf]
            return float(mp.quad(integrand, pts))

        # x < 1: substitute u = t**x so the integrand is regular at 0
        def integrand(u):
            if u <= 0:
                return mp.mpf(0)
            return mp.exp(-(u ** (1 / xx))) / xx

        pts = [mp.mpf(0), mp.mpf(1), mp.mpf(30) ** xx, mp.inf]
        return float(mp.quad(integrand, pts))


def frac_integral_power(alpha: float, p: float, t: float) -> float:
    """Closed form of the order-alpha integral of s**p at time t."""
    with mp.workdps(30):
        a = mp.mpf(alpha)
        pp = mp.mpf(p)
        tt = mp.mpf(t)
        return float(mp.gamma(pp + 1) / mp.gamma(pp + 1 + a) * tt ** (pp + a))


def caputo_power(alpha: float, p: float, t: float) -> float:
    """Closed form of the order-alpha Caputo derivative of s**p, p >= 1."""
    with mp.workdps(30):
        a = mp.mpf(alpha)
        pp = mp.mpf(p)
        tt = mp.mpf(t)
        return float(mp.gamma(pp + 1) / mp.gamma(pp + 1 - a) * tt ** (pp - a))


def caputo_quadrature(alpha: float, f, df, t: float) -> float:
    """Caputo derivative by quadrature of its defining integral.

    f and df take and return mpf; the kernel singularity at s = t is
    handled by mp.quad through an explicit break point list.
    """
    with mp.workdps(40):
        a = mp.mpf(alpha)
        tt = mp.mpf(t)

        def integrand(s):
            return (tt - s) ** (-a) * df(s)

        val = mp.quad(integrand, [mp.mpf(0), tt / 2, tt])
        return float(val / mp.gamma(1 - a))


def resolvent_kernel_integral(alpha: float, lam: float, t: float) -> float:
    """Term-wise integrated resolvent kernel: t**a * E_{a,a+1}(-lam t**a).

    Equals the time integral of s**(a-1) E_{a,a}(-lam s**a) from 0 to t;
    used as the closed-form response to unit forcing.
    """
    with mp.workdps(40):
        a = mp.mpf(alpha)
        ll = mp.mpf(lam)
        tt = mp.mpf(t)
        arg = -ll * tt ** a
        s = mp.mpf(0)
        n = 0
        while True:
            term = arg ** n / mp.gamma(a * n + a + 1)
            s += term
            n += 1
            if n > 20 and abs(term) < mp.mpf("1e-45") * max(abs(s), mp.mpf("1e-30")):
                break
        return float(tt ** a * s)


@functools.lru_cache(maxsize=None)
def laplace_of_resolvent_kernel(alpha: float, lam: float, nu: float,
                                horizon: float) -> float:
    """Truncated Laplace transform of the resolvent kernel, term by term.

    integral_0^T exp(-nu t) t**(a-1) E_{a,a}(-lam t**a) dt is the
    Mittag-Leffler series integrated term by term (Podlubny, Fractional
    Differential Equations, 1999, ch. 1):

        sum_n (-lam)**n P(a n + a, nu T) / nu**(a n + a),

    with P the regularized lower incomplete gamma function.  The terms
    alternate and their magnitudes sum to about exp(lam**(1/a) T), so the
    working precision covers 0.45 * (lam * T**a)**(1/a) cancelled digits.
    A pure function of its float arguments, so results are memoized: the
    suite asks for the same transforms from more than one test.
    """
    cancel = 0.45 * (lam * horizon ** alpha) ** (1.0 / alpha)
    if cancel > 4 * _SERIES_DIGIT_BUDGET:
        raise ValueError("laplace oracle infeasible at these arguments")
    dps = int(cancel) + 50
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        ll = mp.mpf(lam)
        nn = mp.mpf(nu)
        x = nn * mp.mpf(horizon)
        tol = mp.mpf(10) ** (-dps + 6)
        s = mp.mpf(0)
        n = 0
        while True:
            p = a * n + a
            term = (-ll) ** n * mp.gammainc(p, 0, x, regularized=True) / nn ** p
            s += term
            n += 1
            # |term| only grows while lam / nu**a > 1 and P(a n + a, x) is
            # still near 1, so a dead term lies past the peak
            if n > 10 and abs(term) < tol * max(abs(s), mp.mpf("1e-25")):
                break
            if n > 500_000:
                raise ValueError("laplace oracle did not converge")
        return float(s)



def product_quadrature_direct(weights, correction, table, values):
    """A lag-weight product quadrature at every node, by its direct O(n**2) sum.

    out[i] = sum_{d=0}^{i} weights[d] * table[d] * values[i - d]
             - correction[i] * table[i] * values[0],

    each node summed on its own with math.fsum, one data column at a time.
    This is the discrete sum the package evaluates by FFT, so it checks the
    evaluation, not the lag weights.  table is (n + 1,) or (n + 1, m), values
    is (n + 1, m); the result is (n + 1, m) floats.
    """
    import numpy as np

    vals = np.asarray(values, dtype=float)
    n = vals.shape[0] - 1
    h = np.broadcast_to(np.asarray(table, dtype=float).reshape(n + 1, -1), vals.shape)
    kap = np.asarray(weights, dtype=float)[: n + 1, None] * h
    corr = np.asarray(correction, dtype=float)[: n + 1, None] * h
    out = np.zeros_like(vals)
    for m in range(vals.shape[1]):
        for i in range(n + 1):
            terms = kap[i::-1, m] * vals[: i + 1, m]
            out[i, m] = math.fsum(list(terms) + [-corr[i, m] * vals[0, m]])
    return out


def midpoint_convolution_direct(averages, kernel):
    """verify_mild's midpoint sums at nodes 1..n, one np.convolve per mode.

    Row i - 1 of the result is sum_{j < i} averages[j] kernel[i - 1 - j]:
    averages (n, m) are the panel averages of the forcing, kernel (n, m)
    the midpoint weights by lag distance.  The direct evaluation that
    verify_mild's FFT sums (fraccalc.LagConvolution) are checked against.
    """
    import numpy as np

    n = averages.shape[0]
    out = np.empty(averages.shape)
    for m in range(averages.shape[1]):
        out[:, m] = np.convolve(averages[:, m], kernel[:, m])[:n]
    return out


def l1_convolution_direct(b, coef, values):
    """The L1 sums of caputo_derivative at nodes 1..n, one np.convolve per column.

    Row i - 1 is coef * sum_{j < i} b[i - 1 - j] (values[j + 1] - values[j])
    for the (n + 1, m) values: the direct evaluation that caputo_derivative's
    FFT sums (fraccalc.LagConvolution) are checked against.
    """
    import numpy as np

    n = values.shape[0] - 1
    out = np.empty((n, values.shape[1]))
    for m in range(values.shape[1]):
        out[:, m] = coef * np.convolve(b, np.diff(values[:, m]))[:n]
    return out


def manufactured_solution(problem, nodes, b, c, d):
    """(raw forcing, exact states) at nodes of a known mild solution.

    u*_m(t) = a_m + b_m t**alpha + c_m t**(2 alpha) + d_m t**2, with a_m
    chosen so that u* meets the pinning condition u(0) = sum_k c_k u(t_k):
    a (1 - sum_k c_k) = sum_k c_k (u*(t_k) - a).  The Caputo derivatives
    of the powers are closed forms, D^alpha t**p = Gamma(p + 1) / Gamma(p +
    1 - alpha) t**(p - alpha) and 0 for a constant, so the raw forcing F =
    D^alpha u* + lambda u* - f(t, u*) makes u* the exact mild solution of
    problem (without control).  f is the problem's own source evaluated at
    u*, so it needs no closed form; the t**alpha terms give u* the
    singularity at t = 0 that real solutions have.  Float64 throughout.
    """
    import numpy as np

    alpha, lams = problem.alpha, problem.model.lambdas

    def rise(t):  # u* - a
        t = np.asarray(t, dtype=float)[:, None]
        return b * t ** alpha + c * t ** (2.0 * alpha) + d * t ** 2

    weights = problem.coupling.weights
    a = weights @ rise(problem.coupling.times) / (1.0 - weights.sum())
    states = a + rise(nodes)
    t = np.asarray(nodes, dtype=float)[:, None]
    caputo = (
        b * math.gamma(alpha + 1.0)
        + c * math.gamma(2.0 * alpha + 1.0) / math.gamma(alpha + 1.0) * t ** alpha
        + d * 2.0 / math.gamma(3.0 - alpha) * t ** (2.0 - alpha)
    )
    source = 0.0 if problem.nonlinearity is None else problem.nonlinearity.fn(nodes, states)
    return caputo + lams * states - source, states


def tail_expansion_reference(alpha: float, beta: float, z):
    """The tail expansion of the Mittag-Leffler function, by a per-row scan.

    Every row finds the last nonzero term before each column with its own
    running maximum over column indices.  Returns the same (values,
    relative error estimates) as ``specfun._tail_expansion``, which must
    match them bit for bit.  It shares the package's 1/Gamma, term count,
    epsilon and row blocks; a row's bits do not depend on the blocks.
    """
    import numpy as np
    from fracevol.specfun import _EPS, _TAIL_TERMS, _rgamma, _row_blocks

    k = np.arange(1, _TAIL_TERMS + 1, dtype=float)
    arg = beta - alpha * k
    neg_rgamma = -_rgamma(arg)
    # an argument within rounding of a pole stands for the pole itself:
    # its 1/Gamma is 0, not a rounding-sized live term that would stop
    # the row early
    pole = np.round(arg)
    neg_rgamma[(pole <= 0.0) & (np.abs(arg - pole) <= 4.0 * _EPS * (beta + alpha * k))] = 0.0
    col = np.arange(_TAIL_TERMS)
    value = np.empty(z.size)
    est = np.empty(z.size)
    for rows in _row_blocks(z.size, _TAIL_TERMS + 1):
        # z**-k as 1 / z / z / ... / z, one division per term
        chain = np.empty((z[rows].size, _TAIL_TERMS + 1))
        chain[:, 0] = 1.0
        chain[:, 1:] = z[rows, None]
        power = np.divide.accumulate(chain, axis=1)[:, 1:]
        # a term whose power underflowed is 0, also where 1/Gamma overflowed
        terms = np.where(power != 0.0, power * neg_rgamma, 0.0)
        mag = np.abs(terms)
        # magnitude of the last nonzero term up to each column (inf before any)
        last_nz = np.maximum.accumulate(np.where(mag != 0.0, col, -1), axis=1)
        prev = np.take_along_axis(mag, np.maximum(last_nz, 0), axis=1)
        prev[last_nz < 0] = math.inf
        grows = mag[:, 1:] > prev[:, :-1]
        stop = np.where(grows.any(axis=1), grows.argmax(axis=1) + 1, _TAIL_TERMS)
        kept = col < stop[:, None]
        total = np.where(kept, terms, 0.0).sum(axis=1)
        abssum = np.where(kept, mag, 0.0).sum(axis=1)
        omitted = mag[np.arange(mag.shape[0]), np.minimum(stop, _TAIL_TERMS - 1)]
        value[rows] = total
        est[rows] = (omitted + _EPS * abssum) / np.maximum(np.abs(total), 1e-300)
    return value, est


def branch_cut_reference(alpha: float, b: float, z):
    """The branch-cut rule of the Mittag-Leffler function at step h on every row.

    ``specfun._branch_cut`` as it was before it summed progressively: every
    row adds the even and the odd nodes, answers with S_h and estimates
    |S_h - S_2h| plus h times the end terms, over |S_h|.  It takes the
    package's nodes and row blocks, so it differs from ``_branch_cut`` only
    in which rule answers and how that rule is estimated.
    """
    import numpy as np
    from fracevol.specfun import _DE_STEP, _branch_cut_nodes, _row_blocks

    h = _DE_STEP
    A_even, c_even, A_odd, c_odd, ends = _branch_cut_nodes(alpha, b)
    x = -z
    X = x ** (1.0 / alpha)
    even = np.empty(z.size)
    odd = np.empty(z.size)
    edge = np.empty(z.size)
    for rows in _row_blocks(z.size, A_even.size):
        p = np.exp(-X[rows, None] * A_even) * c_even
        even[rows] = p.sum(axis=1)
        edge[rows] = np.abs(p[:, ends]).sum(axis=1)
        odd[rows] = (np.exp(-X[rows, None] * A_odd) * c_odd).sum(axis=1)
    fine = h * (even + odd)
    coarse = 2.0 * h * even
    est = (np.abs(fine - coarse) + h * edge) / np.abs(fine)
    return x ** ((1.0 - b) / alpha) * fine, est


def progressive_branch_cut_reference(alpha: float, b: float, z):
    """The progressive branch-cut rule of the Mittag-Leffler function over every node.

    ``specfun._branch_cut`` as it was before each row's step-2h sum left
    out the nodes whose terms cannot count: every row sums all even nodes,
    answers with S_2h where |S_2h - S_4h| plus h times the end terms and
    eps times the term magnitudes, over |S_2h|, passes the gate, and
    otherwise adds the odd nodes and answers with S_h as
    ``branch_cut_reference`` does.  Returns the same (values, relative
    error estimates); it takes the package's nodes and row blocks.
    """
    import numpy as np
    from fracevol.constants import ML_ASYMP_ACCEPT
    from fracevol.specfun import _DE_STEP, _EPS, _branch_cut_nodes, _row_blocks

    h = _DE_STEP
    A_even, c_even, A_odd, c_odd, ends = _branch_cut_nodes(alpha, b)
    x = -z
    X = x ** (1.0 / alpha)
    even, quarter, edge, mass = np.empty((4, z.size))
    for rows in _row_blocks(z.size, A_even.size):
        p = np.exp(-X[rows, None] * A_even) * c_even
        even[rows] = p.sum(axis=1)
        quarter[rows] = p[:, ::2].sum(axis=1)
        edge[rows] = np.abs(p[:, ends]).sum(axis=1)
        mass[rows] = np.abs(p).sum(axis=1)
    value = 2.0 * h * even
    est = (np.abs(value - 4.0 * h * quarter) + h * edge + 2.0 * h * _EPS * mass) / np.abs(value)
    miss = np.flatnonzero(~(est <= ML_ASYMP_ACCEPT))
    odd = np.empty(miss.size)
    for rows in _row_blocks(miss.size, A_odd.size):
        odd[rows] = (np.exp(-X[miss[rows], None] * A_odd) * c_odd).sum(axis=1)
    fine = h * (even[miss] + odd)
    est[miss] = (np.abs(fine - value[miss]) + h * edge[miss]) / np.abs(fine)
    value[miss] = fine
    return x ** ((1.0 - b) / alpha) * value, est


@functools.lru_cache(maxsize=None)
def panel_moments(alpha: float, u):
    """(a0, far) = integrals of s**(alpha-1) and s**(alpha-1) (s - u) over [u, u + 1].

    From the antiderivatives at 40 digits, which leave at least 30 after
    the cancellation of the powers for u up to a few thousand.  u is an
    int or an mpf, taken exactly.
    """
    with mp.workdps(40):
        a, uu = mp.mpf(alpha), mp.mpf(u)
        hi, lo = (uu + 1) ** a, uu ** a
        a0 = (hi - lo) / a
        far = ((uu + 1) * hi - uu * lo) / (a + 1) - uu * a0
        return +a0, +far


def product_trapezoid_weights(alpha: float, n: int):
    """40-digit lag weights (k, mu1) of the product trapezoid rule, as mpf lists.

    Lags in units of delta: k[d] = far(d - 1) + near(d), the integral of
    s**(alpha-1) against the hat function centred at lag d, and mu1[d] =
    near(d) = a0(d) - far(d), its part on [d, d + 1].
    """
    with mp.workdps(40):
        a0, far = zip(*(panel_moments(alpha, d) for d in range(n + 1)))
        near = [p - q for p, q in zip(a0, far)]
        return [near[0]] + [f + m for f, m in zip(far, near[1:])], near


def kernel_weight_row(alpha: float, delta: float, jp: int, theta: float):
    """40-digit weights of the unit-kernel product quadrature at t = (jp + theta) delta.

    Entry j is the integral over [0, t] of (t - s)**(alpha-1) times the
    piecewise linear interpolant's hat function of node j (with the value
    at t itself taken between nodes jp and jp + 1): jp + 1 mpf entries at
    a node, jp + 2 between nodes.
    """
    with mp.workdps(40):
        a, th = mp.mpf(alpha), mp.mpf(theta)
        w = [mp.mpf(0)] * (jp + 1 + (theta > 0.0))
        for j in range(jp):
            a0, far = panel_moments(alpha, (jp - 1 - j) + th)
            w[j] += far
            w[j + 1] += a0 - far
        if theta > 0.0:
            edge = th ** a / (a * (a + 1))
            w[jp] += th ** a / (a + 1) + edge * (1 - th)
            w[jp + 1] += edge * th
        scale = mp.mpf(delta) ** a
        return [scale * x for x in w]


def product_quadrature_exact(alpha: float, delta: float, table, values):
    """The product trapezoid quadrature at every node with 40-digit weights and sums.

    out[i] = delta**alpha (sum_{d=0}^{i} k[d] table[d] values[i - d]
             - mu1[i] table[i] values[0]), out[0] = 0, rounded to floats;
    table and values are 1-D of one length.
    """
    n = len(values) - 1
    k, mu1 = product_trapezoid_weights(alpha, n)
    with mp.workdps(40):
        h = [mp.mpf(float(x)) for x in table]
        x = [mp.mpf(float(v)) for v in values]
        kh = [kd * hd for kd, hd in zip(k, h)]
        scale = mp.mpf(delta) ** mp.mpf(alpha)
        out = [0.0]
        for i in range(1, n + 1):
            s = mp.fdot(kh[: i + 1], x[i::-1]) - mu1[i] * h[i] * x[0]
            out.append(float(scale * s))
        return out
