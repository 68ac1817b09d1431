"""Gamma and the two-parameter Mittag-Leffler function on the real line.

Everything downstream reduces to ml(alpha, beta, z) for real z.  One
evaluator, ``mittag_leffler_array``, takes an array of arguments for one
(alpha, beta) and tries on each point only the routes that can serve it;
the first whose own error estimate clears its gate answers.  Routes and
gates act point by point as boolean masks; each matrix route builds one
row per point, in blocks of at most ``_BLOCK_ELEMS`` entries (128 KiB),
and sums every row on its own, so a point's value does not depend on the
other points in the batch, nor on the block size.
Exact closed forms serve (alpha, beta) in {1, 2} x {1, 2}, the power
series (a term matrix) nonnegative z.  For z < 0 and 0 < alpha < 1 - 1e-4
the series peak X = |z|**(1/alpha) decides the chain:

* X <= ``_SERIES_CANCEL_LIMIT`` (34) tries the series first (gate
  ``ML_TAYLOR_ACCEPT``; a row whose terms already prove it must miss that
  gate stops early, see ``_series_doom``);
* every point left tries the branch cut (gate ``ML_ASYMP_ACCEPT``);
* its misses with X > 34 try the tail expansion in powers of 1/z, each
  row truncated at its own smallest term (same gate), then adaptive
  quadrature (scipy's ``quad``, imported only then); those with X <= 34
  the series in extended precision (below; 45 digits at most), as
  ``quad`` misses them too when alpha is near 1 and beta is not 1 or alpha.

The branch cut (collapsed Hankel contour, Gorenflo, Loutchko & Luchko) is
a tanh-sinh rule on [0, |z|] plus an exp-sinh rule on [|z|, inf), summed
progressively: step 2h against 4h, first over each row's leading nodes
(the route decisions are those of all nodes), then h against 2h on misses.

For alpha > 1 the branch-cut route is unavailable (the integrand picks up
a non-integrable ridge), so a negative point tries the series (X <= 34),
then the tail expansion, then extended precision (mpmath, imported only
then).  The same chain serves alpha within 1e-4 below 1, where the
branch-cut integrand has a ridge of width pi (1 - alpha) at chi = |z|
that neither quadrature resolves (at alpha = 0.99999 both miss it, at
0.99995 both still get it).  Within 1e-4 of alpha = 1 on either side,
the tail expansion's gate also counts the contribution of the poles
s**alpha = z next to the negative axis, which its truncation estimate
cannot see; relative to the value it grows like 1 / |1 - alpha|, and
outside the band it stays below ML_REL_TOL.
``mittag_leffler`` is the same evaluator on one point.

Gamma, log Gamma and 1/Gamma come from the standard library's
``math.gamma`` and ``math.lgamma``, so importing this module loads numpy
only; scipy and mpmath load on the first point that needs their route.
"""
from __future__ import annotations

import math

import numpy as np

from .constants import ML_ASYMP_ACCEPT, ML_TAYLOR_ACCEPT
from .errors import DomainError

__all__ = ["gamma", "mittag_leffler", "mittag_leffler_array"]

_EPS = 2.2e-16
# |z|**(1/alpha) above this, the float64 series would lose more digits to
# cancellation than the accept gate can tolerate
_SERIES_CANCEL_LIMIT = 34.0
# exp overflows just above 709
_EXP_OVERFLOW = 705.0
# entries of one block of a term or node matrix: 128 KiB of float64.
# With 1 MB blocks (1 << 17), above glibc's 128 KiB mmap threshold, the
# temporaries mapped, faulted in and unmapped fresh pages: about 12,000
# minor faults and 10 MB of peak memory per `fracevol verify` of
# demo_heat.ini, against about 700 faults and 3 MB here.  A sweep over
# 1 << 12 .. 1 << 17 ran verify fastest at 1 << 13 and 1 << 14 (alike
# within noise); smaller blocks pay more per-block overhead
_BLOCK_ELEMS = 1 << 14
# terms of the tail expansion before its truncation
_TAIL_TERMS = 199
# step h of the finest double-exponential rule; the coarser ones take
# every second and every fourth node
_DE_STEP = 1.0 / 64.0
# the rule's left end in the scaled variable is exp(-_DE_REACH), short of
# underflow; a share exp(-_DE_DEAD) of the integral's mass counts as dead
_DE_REACH = 690.0
_DE_DEAD = 40.0
# a step-2h row first takes the nodes with X A_j < _DE_CUT, in widths of _DE_RUNG
_DE_CUT = 60.0
_DE_RUNG = 32
# half-width of the band around alpha = 1 where the tail expansion's gate
# counts the pole contribution and, below 1, the branch cut gives way to
# the extended-precision series (see the module docstring)
_NEAR_ONE = 1e-4


def gamma(x: float) -> float:
    """Gamma restricted to x > 0, from the standard library's ``math.gamma``.

    Raises DomainError off the half line (poles and reflection are not
    this package's business); relative accuracy 1e-13 or better.  Values
    beyond float64 range (x above about 171.6, or x below about 5.6e-309)
    come back as inf.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires a finite x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _lgamma(x: np.ndarray) -> np.ndarray:
    """log|Gamma| of every entry of a vector of positive term indices."""
    return np.array([math.lgamma(v) for v in x.tolist()])


def _rgamma(x):
    """1/Gamma of a float, or of every entry of an array.

    0 at the poles 0, -1, -2, ... and above about 171.6, where Gamma
    overflows; a signed inf below about -171.5, where Gamma underflows.
    """
    x = np.asarray(x, dtype=float)
    out = []
    for v in x.ravel().tolist():
        try:
            g = math.gamma(v)
        except (OverflowError, ValueError):
            g = math.inf
        # below 1e-300 Gamma overflows and 1/Gamma(v) = v / Gamma(1 + v) = v;
        # a signed subnormal or zero Gamma has a reciprocal of inf of its sign
        out.append(v if 0.0 < v < 1e-300 else 1.0 / g if g else math.copysign(math.inf, g))
    return np.array(out).reshape(x.shape) if x.ndim else out[0]


def _row_blocks(n_rows: int, width: int):
    """Slices of at most _BLOCK_ELEMS // width rows covering n_rows."""
    step = max(1, _BLOCK_ELEMS // width)
    for start in range(0, n_rows, step):
        yield slice(start, start + step)


def _closed_form(alpha: float, beta: float, z: np.ndarray) -> np.ndarray | None:
    # exponential / trigonometric special cases, exact up to libm
    if alpha == 1.0:
        if beta == 1.0:
            return np.exp(z)
        if beta == 2.0:
            return np.where(z != 0.0, np.expm1(z) / z, 1.0)
    elif alpha == 2.0:
        r = np.sqrt(np.abs(z))
        if beta == 1.0:
            return np.where(z < 0.0, np.cos(r), np.cosh(r))
        if beta == 2.0:
            return np.where(z == 0.0, 1.0, np.where(z < 0.0, np.sin(r), np.sinh(r)) / r)
    return None


def _series_doom(alpha: float, beta: float) -> float:
    """Largest log-term with which a z < 0 series row can still pass.

    A row of the series whose largest term exceeds exp of this bound gets
    an estimate above ML_TAYLOR_ACCEPT whatever its other terms are, so
    ``_series`` drops it.  The bound exists for 0 < alpha <= 1 and
    beta >= alpha only; elsewhere it is inf and no row is dropped.

    Derivation.  There E(-x) = E_{alpha,beta}(-x) is completely monotone
    in x >= 0 (W. R. Schneider, Expo. Math. 14, 1996), so
    0 < E(-x) <= E(0) = 1/Gamma(beta).  A row's computed total differs
    from E by its truncated tail (the last term lies exp(-40) below the
    largest) plus the rounding of its terms and of their sum; both are
    a share kappa, far below 1e-6, of S, the sum of the term magnitudes.
    So |total| <= 1/Gamma(beta) + kappa S, and the estimate
    eps S / |total| exceeds the gate A = ML_TAYLOR_ACCEPT once
    S (eps - A kappa) > A / Gamma(beta).  S is at least the largest term
    exp(peak), and A kappa < eps / 100, so
    peak > log(A / eps) - log Gamma(beta) + log 2
    is enough: the safety factor 2 also covers the rounding of the
    estimate itself.  log(A / eps) is log 2,273; log Gamma keeps large
    beta, where 1/Gamma(beta) underflows, clear of log(0).
    """
    if not (alpha <= 1.0 and beta >= alpha):
        return math.inf
    return math.log(2.0 * ML_TAYLOR_ACCEPT / _EPS) - math.lgamma(beta)


def _series(alpha: float, beta: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power series, one row of terms per point.

    Returns (values, relative error estimates).  Terms are built in log
    space so individual magnitudes up to exp(705) never overflow.  A row
    starts with 128 terms and doubles until its own last term is dead.
    Two kinds of rows get (nan, inf): a point still unconverged at 2**21
    terms, and a point z < 0 whose largest computed log-term exceeds
    ``_series_doom``, which is dropped as soon as a round shows it, before
    exponentials, sums or further rounds.
    """
    value = np.full(z.size, math.nan)
    est = np.full(z.size, math.inf)
    log_x = np.log(np.abs(z))
    doom = np.where(z < 0.0, _series_doom(alpha, beta), math.inf)
    pending = np.arange(z.size)
    n_hi = 128
    while pending.size and n_hi <= (1 << 21):
        n = np.arange(n_hi, dtype=float)
        log_gamma = _lgamma(alpha * n + beta)
        alternating = np.where(n % 2 == 0, 1.0, -1.0)
        done = np.zeros(pending.size, dtype=bool)
        for rows in _row_blocks(pending.size, n_hi):
            idx = pending[rows]
            logt = n * log_x[idx, None] - log_gamma
            peak = logt.max(axis=1)
            last = logt[:, -1]
            doomed = peak > doom[idx]
            # converged when the last term is dead both absolutely and
            # relative to the largest term
            ok = (last < peak - 40.0) & (last < -42.0) & ~doomed
            done[rows] = ok | doomed
            idx = idx[ok]
            mags = np.exp(logt[ok])
            signed = np.where(z[idx, None] < 0.0, mags * alternating, mags)
            total = signed.sum(axis=1)
            value[idx] = total
            est[idx] = _EPS * mags.sum(axis=1) / np.maximum(np.abs(total), 1e-300)
        pending = pending[~done]
        n_hi *= 2
    return value, est


def _first_growth(mag: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Per row, the first column j >= 1 with mag[j] > prev[j - 1], else all."""
    grows = mag[:, 1:] > prev
    return np.where(grows.any(axis=1), grows.argmax(axis=1) + 1, _TAIL_TERMS)


def _tail_expansion(alpha: float, beta: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expansion in 1/z for z << 0, each row truncated at its smallest term.

    Term k is -z**-k / Gamma(beta - alpha k), k = 1 .. 199.  A row stops
    before the first term (k > 1) that outgrows the last nonzero one; the
    omitted term, or the last one if none outgrows, is the error
    estimate's truncation part.  A coefficient within rounding of a pole
    of 1/Gamma, or whose Gamma overflows, is exactly 0: its column is dead
    in every row.  Other zeros lie where z**-k has underflowed, so each
    column is compared with the last live column before it.  Above beta =
    165 or so a live term can underflow to 0 mid-row; a row that stops on
    outgrowing such a 0 is rescanned through its own last nonzero term.  A
    dead term is nan where z**-k overflows, and both rules keep it.
    """
    k = np.arange(1, _TAIL_TERMS + 1, dtype=float)
    arg = beta - alpha * k
    neg_rgamma = -_rgamma(arg)
    # an argument within rounding of a pole stands for the pole itself:
    # its 1/Gamma is 0, not a rounding-sized live term that would stop
    # the row early
    pole = np.round(arg)
    neg_rgamma[(pole <= 0.0) & (np.abs(arg - pole) <= 4.0 * _EPS * (beta + alpha * k))] = 0.0
    col = np.arange(_TAIL_TERMS)
    # before[j - 1]: the last live column before column j, else j itself
    before = np.maximum.accumulate(np.where(neg_rgamma != 0.0, col, -1))
    before = np.where(before >= 0, before, col + 1)
    value = np.empty(z.size)
    est = np.empty(z.size)
    for rows in _row_blocks(z.size, _TAIL_TERMS + 1):
        # z**-k as 1 / z / z / ... / z, one division per term
        chain = np.empty((z[rows].size, _TAIL_TERMS + 1))
        chain[:, 0] = 1.0
        chain[:, 1:] = z[rows, None]
        terms = np.divide.accumulate(chain, axis=1)[:, 1:] * neg_rgamma
        mag = np.abs(terms)
        stop = _first_growth(mag, mag[:, before[:-1]])
        # a stop on outgrowing an underflowed live term: rescan that row
        cut = np.flatnonzero(stop < _TAIL_TERMS)
        odd = cut[mag[cut, before[stop[cut] - 1]] == 0.0]
        if odd.size:
            m = mag[odd]
            last_nz = np.maximum.accumulate(np.where(m != 0.0, col, -1), axis=1)
            prev = np.take_along_axis(m, np.where(last_nz >= 0, last_nz, col + 1)[:, :-1], axis=1)
            stop[odd] = _first_growth(m, prev)
        kept = col < stop[:, None]
        total = np.where(kept, terms, 0.0).sum(axis=1)
        abssum = np.where(kept, mag, 0.0).sum(axis=1)
        omitted = mag[np.arange(mag.shape[0]), np.minimum(stop, _TAIL_TERMS - 1)]
        value[rows] = total
        est[rows] = (omitted + _EPS * abssum) / np.maximum(np.abs(total), 1e-300)
    return value, est


def _reduce_beta(alpha: float, beta: float) -> tuple[float, list[float]]:
    """(b, shifts): b safely below 1 + alpha, reached from beta by steps of alpha.

    The branch-cut integral is valid for b < 1 + alpha, but its integrand
    a**pw, pw = (1 - b) / alpha, is barely integrable at 0 as b nears
    1 + alpha.  So beta above 1 + alpha (1 - _DE_DEAD / _DE_REACH) is
    reduced through E(alpha, beta) = (E(alpha, beta - alpha) - 1/Gamma(beta
    - alpha)) / z and climbed back afterwards over ``shifts``.
    """
    shifts: list[float] = []
    b = beta
    # the rule's left end a_min = exp(-_DE_REACH) leaves a_min**(1 + pw)
    # of the mass of a**pw uncovered; keep 1 + pw >= _DE_DEAD / _DE_REACH
    # so that share is exp(-_DE_DEAD) at most
    while b >= 1.0 + alpha * (1.0 - _DE_DEAD / _DE_REACH):
        b -= alpha
        shifts.append(b)
    return b, shifts


def _branch_cut_nodes(alpha: float, b: float):
    """Nodes of the branch-cut rule in the scaled variable a = chi / |z|.

    With chi = |z| a the integral is |z|**pw * sum_k c_k exp(-X A_k),
    X = |z|**(1/alpha), A_k = a_k**(1/alpha), pw = (1 - b) / alpha: every
    node constant is independent of z.  Tanh-sinh nodes cover a in (0, 1],
    exp-sinh nodes a in [1, inf); both lattices run over even multiples of
    the step, so the even nodes form the rule of step 2h.  Returns
    (A_even, c_even, A_odd, c_odd, end columns of the even set).
    """
    h = _DE_STEP
    pw = (1.0 - b) / alpha
    # a**pw is integrable at 0 only barely when pw is near -1: reach far
    # enough left that a_min**(1 + pw) is dead, short of underflow
    left = 3.2
    if pw < 0.0:
        left = max(left, math.asinh(min(_DE_DEAD / (1.0 + pw), _DE_REACH) / math.pi))
    t = np.arange(-2 * math.ceil(left / h / 2), 2 * math.ceil(3.2 / h / 2) + 1) * h
    e = np.exp(-math.pi * np.abs(np.sinh(t)))
    a_ts = np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    w_ts = math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    s = np.arange(-2 * math.ceil(4.0 / h / 2), 2 * math.ceil(3.0 / h / 2) + 1) * h
    off = np.exp(0.5 * math.pi * np.sinh(s))
    a_es = 1.0 + off
    w_es = 0.5 * math.pi * np.cosh(s) * off

    sa = math.sin(math.pi * (1.0 - b))
    # sin(pi (1 - b + alpha)) as sin(pi (b - alpha)) within 0.1 of b = alpha, exactly
    # 0 there: sin(pi) = 1.2e-16 put a relative error of about 1.2e-16 |z| / sa
    # into the value (7e-11 at alpha = 0.99989, z = -200); further out both round alike
    sb = math.sin(math.pi * (b - alpha if abs(b - alpha) < 0.1 else 1.0 - b + alpha))
    ca = math.cos(math.pi * alpha)
    # a**2 + 2 a cos(pi alpha) + 1 as a sum of squares, which keeps its
    # relative accuracy at the ridge a = -cos(pi alpha) when alpha -> 1
    s2 = math.sin(math.pi * alpha) ** 2

    def parts(a, w):
        c = w * a ** pw * (a * sa + sb) / ((a + ca) ** 2 + s2) / (math.pi * alpha)
        return a ** (1.0 / alpha), c

    A_ts, c_ts = parts(a_ts, w_ts)
    A_es, c_es = parts(a_es, w_es)
    A_even = np.concatenate([A_ts[::2], A_es[::2]])
    c_even = np.concatenate([c_ts[::2], c_es[::2]])
    A_odd = np.concatenate([A_ts[1::2], A_es[1::2]])
    c_odd = np.concatenate([c_ts[1::2], c_es[1::2]])
    n_ts = A_ts[::2].size
    ends = np.array([0, n_ts - 1, n_ts, A_even.size - 1])
    return A_even, c_even, A_odd, c_odd, ends


def _node_sums(X: np.ndarray, A: np.ndarray, c: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per X, the sums of exp(-X A) c, of every second term, the end terms' |.| and all |.|."""
    out = np.empty((4, X.size))
    for rows in _row_blocks(X.size, A.size):
        p = np.exp(-X[rows, None] * A) * c
        out[:, rows] = p.sum(1), p[:, ::2].sum(1), np.abs(p[:, ends]).sum(1), np.abs(p).sum(1)
    return out


def _branch_cut(alpha: float, b: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed Hankel contour for 0 < alpha < 1, z < 0, b < 1 + alpha.

    Double-exponential rule (Takahasi & Mori) on the integral
    representation of Gorenflo, Loutchko & Luchko.  Returns (values,
    relative error estimates).  Every row takes S_2h, estimated by |S_2h -
    S_4h| (every second node of each piece), h times the end terms and eps
    times the term magnitudes (rounding that S_4h shares), over |S_2h|.  A
    row missing ML_ASYMP_ACCEPT adds the odd nodes and takes S_h, with
    |S_h - S_2h| plus the end terms, over |S_h|.

    S_2h first sums a row's W leading nodes (A ascends; W from X alone, all
    terms past it below exp(-60) |c_j|).  If W < n the estimate adds 8 h (D +
    eps M) for what S_2h, S_4h and the end terms lose to the dropped terms,
    at most D = exp(-X A_W) sum_{j >= W} exp(-(_DE_CUT / A_W) (A_j - A_W)) |c_j|,
    and to rounding in another order (M: the kept |terms|).  Rows then above a
    tenth of the gate, or whose terms cancel below M / 2, sum all n nodes.
    """
    h = _DE_STEP
    A_even, c_even, A_odd, c_odd, ends = _branch_cut_nodes(alpha, b)
    X = (-z) ** (1.0 / alpha)
    n = A_even.size
    width = np.minimum((np.searchsorted(A_even, _DE_CUT / X) // _DE_RUNG + 1) * _DE_RUNG, n)
    sums, slack = np.empty((4, z.size)), np.zeros(z.size)
    for w in [*range(_DE_RUNG, n, _DE_RUNG), n]:
        idx = np.flatnonzero(width == w)
        sums[:, idx] = _node_sums(X[idx], A_even[:w], c_even[:w], ends[ends < w])
        if idx.size and w < n:
            D = np.exp(-(_DE_CUT / A_even[w]) * (A_even[w:] - A_even[w])) @ np.abs(c_even[w:])
            slack[idx] = 8.0 * h * (np.exp(-X[idx] * A_even[w]) * D + _EPS * sums[3, idx])
    even, quarter, edge, mass = sums

    def rule_2h():
        err = np.abs(2.0 * h * even - 4.0 * h * quarter) + h * edge + 2.0 * h * _EPS * mass + slack
        return 2.0 * h * even, err / np.abs(2.0 * h * even)

    value, est = rule_2h()
    redo = ~(est <= 0.1 * ML_ASYMP_ACCEPT) | (mass > 2.0 * np.abs(even))
    full = np.flatnonzero((width < n) & redo)
    sums[:, full] = _node_sums(X[full], A_even, c_even, ends)
    slack[full] = 0.0
    value, est = rule_2h()
    miss = np.flatnonzero(~(est <= ML_ASYMP_ACCEPT))
    odd = _node_sums(X[miss], A_odd, c_odd, ends[:0])[0]
    fine = h * (even[miss] + odd)
    est[miss] = (np.abs(fine - value[miss]) + h * edge[miss]) / np.abs(fine)
    value[miss] = fine
    return (-z) ** ((1.0 - b) / alpha) * value, est


def _branch_cut_quad(alpha: float, b: float, z: float) -> float:
    """The branch-cut integral at one point by adaptive quadrature."""
    from scipy.integrate import quad

    sa = math.sin(math.pi * (1.0 - b))
    sb = math.sin(math.pi * (b - alpha if abs(b - alpha) < 0.1 else 1.0 - b + alpha))
    ca = math.cos(math.pi * alpha)
    x = -z
    inv_alpha = 1.0 / alpha
    pw = (1.0 - b) / alpha

    def integrand(chi: float) -> float:
        if chi <= 0.0:
            return 0.0
        num = chi * sa - z * sb
        den = chi * chi - 2.0 * chi * z * ca + z * z
        return chi ** pw * math.exp(-chi ** inv_alpha) * num / den / (math.pi * alpha)

    # exp(-chi**(1/alpha)) is dead beyond 460**alpha; keep the ridge near
    # chi = |z| well inside the interval
    upper = max(460.0 ** alpha, 2.5 * x)
    points = [x] if x < upper else None
    # epsrel sits at the float64 floor, so quadpack may flag its own
    # roundoff limit; full_output keeps that out of the warning stream
    # (accuracy is pinned against series oracles in the test suite)
    return quad(integrand, 0.0, upper, points=points, limit=800,
                epsabs=1e-280, epsrel=5e-14, full_output=1)[0]


def _extended_precision_series(alpha: float, beta: float, z: float) -> float:
    # last resort for z < 0 with cancellation beyond float64 (see _evaluate)
    import mpmath as mp

    peak = abs(z) ** (1.0 / alpha)
    dps = int(0.45 * peak) + 30
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        zz = mp.mpf(z)
        s = mp.mpf(0)
        n = 0
        tol = mp.mpf(10) ** (-dps + 5)
        while True:
            t = zz ** n / mp.gamma(a * n + b)
            s += t
            n += 1
            if n > 20 and abs(t) < tol * max(abs(s), mp.mpf("1e-60")):
                break
            if n > 200_000:  # pragma: no cover - guarded by domain checks
                raise ArithmeticError("extended-precision series did not converge")
        return float(s)


def _tail(alpha: float, beta: float, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tail-expansion values, and which of them pass ML_ASYMP_ACCEPT."""
    if not z.size:
        return z, np.zeros(0, dtype=bool)
    value, est = _tail_expansion(alpha, beta, z)
    if abs(alpha - 1.0) <= _NEAR_ONE:
        # the expansion drops the contribution of the poles s**alpha = z,
        # next to the negative axis here: 2 x**(1 - beta) exp(x cos(pi/alpha))
        # / alpha at most, x = |z|**(1/alpha), invisible to its truncation
        # estimate
        x = (-z) ** (1.0 / alpha)
        pole = 2.0 * x ** (1.0 - beta) * np.exp(x * math.cos(math.pi / alpha)) / alpha
        est = est + pole / np.abs(value)
    return value, (est <= ML_ASYMP_ACCEPT) & (value != 0.0)


def _evaluate(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Route every point of the 1-D array z; see the module docstring."""
    closed = _closed_form(alpha, beta, z)
    if closed is not None:
        return closed
    out = np.empty(z.size)
    out[z == 0.0] = _rgamma(beta)

    pos = np.flatnonzero(z > 0.0)
    huge = z[pos] ** (1.0 / alpha) > _EXP_OVERFLOW
    out[pos[huge]] = math.inf
    out[pos[~huge]] = _series(alpha, beta, z[pos[~huge]])[0]

    # z < 0: the series first where it can pass its gate
    rest = np.flatnonzero(z < 0.0)
    near = np.abs(z[rest]) ** (1.0 / alpha) <= _SERIES_CANCEL_LIMIT
    value, est = _series(alpha, beta, z[rest[near]])
    ok = np.zeros(rest.size, dtype=bool)
    ok[near] = est <= ML_TAYLOR_ACCEPT
    out[rest[ok]] = value[ok[near]]
    near, rest = near[~ok], rest[~ok]
    if not rest.size:
        return out

    if alpha >= 1.0 - _NEAR_ONE:
        value, ok = _tail(alpha, beta, z[rest])
        out[rest[ok]] = value[ok]
        out[rest[~ok]] = [_extended_precision_series(alpha, beta, float(q)) for q in z[rest[~ok]]]
        return out
    b, shifts = _reduce_beta(alpha, beta)
    zr = z[rest]
    value, est = _branch_cut(alpha, b, zr)
    # misses past the series band: the tail expansion, then adaptive quadrature
    missed = ~(est <= ML_ASYMP_ACCEPT)
    far = np.flatnonzero(missed & ~near)
    tail_value, tail_ok = _tail(alpha, beta, zr[far])
    for i in far[~tail_ok]:
        value[i] = _branch_cut_quad(alpha, b, float(zr[i]))
    for bb in reversed(shifts):
        value = (value - _rgamma(bb)) / zr
    value[far[tail_ok]] = tail_value[tail_ok]
    # a missed point of mild cancellation: at most 45 digits, with beta itself
    for i in np.flatnonzero(missed & near):
        value[i] = _extended_precision_series(alpha, beta, float(zr[i]))
    out[rest] = value
    return out


def mittag_leffler_array(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta}(z) for every entry of a real array z, one (alpha, beta).

    Same contract as ``mittag_leffler``, which is this function on one
    point: each entry's value is the same bits whatever else is in the
    array and in whatever order.  Raises DomainError naming the first
    non-finite entry.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and 0.0 < alpha <= 2.0):
        raise DomainError(f"order alpha must lie in (0, 2], got {alpha!r}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise DomainError(f"second parameter beta must be positive, got {beta!r}")
    z = np.array(z, dtype=float)
    bad = ~np.isfinite(z)
    if bad.any():
        raise DomainError(f"argument must be finite, got {float(z[bad][0])!r}")
    # masked-out rows overflow or divide by zero by design
    with np.errstate(all="ignore"):
        return _evaluate(alpha, beta, z.ravel()).reshape(z.shape)


def mittag_leffler(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for real z, alpha in (0, 2], beta > 0.

    Relative accuracy 1e-10 or better for |z| <= 50 (and far better over
    most of that range); for z <= 0 with beta = 1 the value lies in
    (0, 1].  Values beyond float64 range (large positive z with small
    alpha) come back as inf.  Tables of many arguments should go through
    ``mittag_leffler_array``, which gives the same bits per point.
    """
    return float(mittag_leffler_array(alpha, beta, [float(z)])[0])

