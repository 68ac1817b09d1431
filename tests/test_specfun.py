"""Gamma and Mittag-Leffler evaluation contracts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fracevol import constants, specfun
from fracevol.errors import DomainError
from fracevol.specfun import gamma, mittag_leffler, mittag_leffler_array, ml_derivative_kernel

import oracles


def test_gamma_against_integral_oracle():
    for x in [0.1, 0.5, 0.75, 1.0, 1.75, 2.0, 3.5, 7.0, 12.5, 20.0]:
        ref = oracles.gamma_integral(x)
        assert gamma(x) == pytest.approx(ref, rel=constants.GAMMA_REL_TOL)


def test_gamma_frozen_reference_values():
    # frozen from oracles.gamma_integral
    assert gamma(1.75) == pytest.approx(0.9190625268488832, rel=1e-13)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, math.inf])
def test_gamma_domain(x):
    with pytest.raises(DomainError):
        gamma(x)


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        (0.0, 1.0, 1.0),
        (-0.5, 1.0, 1.0),
        (2.5, 1.0, 1.0),
        (math.nan, 1.0, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, -1.0, 1.0),
        (1.0, 1.0, math.nan),
        (1.0, 1.0, math.inf),
    ],
)
def test_ml_domain(alpha, beta, z):
    with pytest.raises(DomainError):
        mittag_leffler(alpha, beta, z)


def test_ml_exponential_identity():
    # E_{1,1}(z) = exp(z) on a 200-point lattice
    for z in np.linspace(-20.0, 5.0, 200):
        assert mittag_leffler(1.0, 1.0, float(z)) == pytest.approx(
            math.exp(z), rel=constants.ML_IDENTITY_TOL
        )


def test_ml_cosine_identity():
    # E_{2,1}(-z**2) = cos(z)
    for z in np.linspace(0.0, 10.0, 200):
        z = float(z)
        assert mittag_leffler(2.0, 1.0, -z * z) == pytest.approx(
            math.cos(z), rel=constants.ML_IDENTITY_TOL, abs=1e-15
        )


def test_ml_expm1_identity():
    # E_{1,2}(z) = (exp(z) - 1)/z away from 0
    for z in np.linspace(-20.0, 5.0, 200):
        z = float(z)
        if z == 0.0:
            continue
        assert mittag_leffler(1.0, 2.0, z) == pytest.approx(
            math.expm1(z) / z, rel=constants.ML_IDENTITY_TOL
        )


def test_ml_shift_recurrence():
    # E_{a,b}(z) = z * E_{a,a+b}(z) + 1/Gamma(b)
    for alpha in (0.3, 0.5, 0.75, 0.9):
        for beta in (0.5, 1.0, 1.5):
            for z in (-30.0, -12.0, -5.0, -1.0, -0.1, 0.5, 2.0):
                lhs = mittag_leffler(alpha, beta, z)
                rhs = z * mittag_leffler(alpha, alpha + beta, z) + 1.0 / gamma(beta)
                scale = max(1.0, abs(lhs), abs(z * mittag_leffler(alpha, alpha + beta, z)))
                assert abs(lhs - rhs) <= constants.ML_RECURRENCE_TOL * scale


def test_ml_completely_monotone_range():
    # for beta = 1 and z <= 0: values in (0, 1], nonincreasing in |z|
    for alpha in (0.2, 0.5, 0.75, 0.95, 1.0):
        prev = 1.0
        for x in np.linspace(0.0, 50.0, 120):
            v = mittag_leffler(alpha, 1.0, -float(x))
            assert 0.0 < v <= 1.0 + 1e-15
            assert v <= prev + 1e-12
            prev = v


def test_ml_random_sweep_against_series_oracle():
    # random (alpha, beta, z), |z| <= 5, against the adaptive series oracle
    rng = np.random.default_rng(20260822)
    for _ in range(250):
        alpha = float(rng.uniform(0.05, 1.0))
        beta = float(rng.uniform(0.05, 2.0))
        z = float(rng.uniform(-5.0, 5.0))
        ref = oracles.ml_oracle(alpha, beta, z)
        got = mittag_leffler(alpha, beta, z)
        assert got == pytest.approx(ref, rel=constants.ML_REL_TOL, abs=1e-290)


def test_ml_wide_negative_lattice_against_oracle():
    # |z| up to 50 across the regime boundaries
    for alpha in (0.3, 0.55, 0.75, 0.9, 0.95):
        for beta in (0.75, 1.0, 1.5):
            for z in (-50.0, -35.0, -20.0, -10.0, -7.0):
                ref = oracles.ml_oracle(alpha, beta, z)
                got = mittag_leffler(alpha, beta, z)
                assert got == pytest.approx(ref, rel=constants.ML_REL_TOL)


def test_ml_positive_arguments():
    # no cancellation for z > 0; check against the series oracle
    for alpha in (0.5, 0.75, 1.3, 2.0):
        for z in (0.5, 5.0, 20.0, 50.0):
            ref = oracles.ml_oracle(alpha, 1.0, z)
            assert mittag_leffler(alpha, 1.0, z) == pytest.approx(ref, rel=1e-11)
    # small alpha at large positive z overflows float64; reported as inf
    assert mittag_leffler(0.1, 1.0, 50.0) == math.inf


def test_ml_alpha_above_one_negative_z():
    for alpha in (1.1, 1.5, 1.9):
        for z in (-40.0, -12.0, -3.0):
            ref = oracles.ml_oracle(alpha, 1.2, z)
            assert mittag_leffler(alpha, 1.2, z) == pytest.approx(
                ref, rel=constants.ML_REL_TOL, abs=1e-280
            )


def test_oracle_chain():
    # the two oracle routes agree where both are affordable, so the
    # branch-cut route can stand in where the series is not
    checked = 0
    for alpha in (0.45, 0.55, 0.6, 0.75, 0.9):
        for beta in (0.5, 1.0, 1.5, 1.7):
            for z in (-6.0, -15.0, -30.0):
                if oracles.ml_series_digits_needed(alpha, z) > oracles._SERIES_DIGIT_BUDGET:
                    continue
                a = float(oracles.ml_series(alpha, beta, z))
                b = float(oracles.ml_branch_cut(alpha, beta, z))
                assert b == pytest.approx(a, rel=1e-18 ** 0.5)  # 1e-9
                checked += 1
    assert checked > 40


def test_kernel_values():
    # t**(a-1) * E_{a,a}(-lam t**a), frozen oracle value and composition
    alpha, lam, t = 0.75, 4.0, 0.5
    ref = t ** (alpha - 1.0) * oracles.ml_oracle(alpha, alpha, -lam * t ** alpha)
    assert ml_derivative_kernel(alpha, lam, t) == pytest.approx(ref, rel=1e-12)
    # lam = 0 collapses to the power kernel
    assert ml_derivative_kernel(0.6, 0.0, 0.25) == pytest.approx(
        0.25 ** (-0.4) / gamma(0.6), rel=1e-13
    )


@pytest.mark.parametrize(
    "alpha,lam,t",
    [(1.0, 1.0, 0.5), (0.0, 1.0, 0.5), (0.5, -1.0, 0.5), (0.5, 1.0, 0.0), (0.5, 1.0, -1.0)],
)
def test_kernel_domain(alpha, lam, t):
    with pytest.raises(DomainError):
        ml_derivative_kernel(alpha, lam, t)


# ------------------------------------------------------- array evaluator

# deterministic examples, no example database written next to the tests
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ORDERS = st.floats(0.3, 1.0)
SECOND = st.floats(0.0, 2.0, exclude_min=True)


@PROPERTY
@given(
    alpha=ORDERS,
    beta=SECOND,
    z=st.lists(st.floats(-60.0, 5.0), min_size=1, max_size=24),
    seed=st.integers(0, 2**32 - 1),
)
def test_ml_array_bits_do_not_depend_on_batch(alpha, beta, z, seed):
    # a batch, a shuffled copy of it and its single elements give the same bits
    z = np.array(z)
    batch = mittag_leffler_array(alpha, beta, z)
    perm = np.random.default_rng(seed).permutation(z.size)
    assert np.array_equal(mittag_leffler_array(alpha, beta, z[perm]), batch[perm])
    assert np.array_equal([mittag_leffler(alpha, beta, q) for q in z], batch)


def test_ml_array_bits_across_blocks():
    # batches far larger than one block of every route's matrix
    rng = np.random.default_rng(7)
    z = np.concatenate([-rng.uniform(0.0, 60.0, 4000), rng.uniform(0.0, 5.0, 200)])
    for alpha, beta in ((0.75, 1.0), (0.75, 0.75), (0.4, 1.3)):
        batch = mittag_leffler_array(alpha, beta, z)
        perm = rng.permutation(z.size)
        assert np.array_equal(mittag_leffler_array(alpha, beta, z[perm]), batch[perm])
        pick = rng.choice(z.size, 60, replace=False)
        assert np.array_equal([mittag_leffler(alpha, beta, z[i]) for i in pick], batch[pick])
        grid = mittag_leffler_array(alpha, beta, z[:200].reshape(20, 10))
        assert np.array_equal(grid.ravel(), batch[:200])


def test_ml_array_domain():
    with pytest.raises(DomainError, match="finite"):
        mittag_leffler_array(0.75, 1.0, [-1.0, math.nan])
    with pytest.raises(DomainError, match="alpha"):
        mittag_leffler_array(2.5, 1.0, [-1.0])
    assert mittag_leffler_array(0.75, 1.0, []).shape == (0,)


@PROPERTY
@given(alpha=ORDERS, beta=SECOND, z=st.floats(-50.0, 5.0))
def test_ml_shift_recurrence_property(alpha, beta, z):
    # E_{a,b}(z) = z * E_{a,a+b}(z) + 1/Gamma(b)
    lhs = mittag_leffler(alpha, beta, z)
    shifted = z * mittag_leffler(alpha, alpha + beta, z)
    rhs = shifted + 1.0 / gamma(beta)
    scale = max(1.0, abs(lhs), abs(shifted))
    assert abs(lhs - rhs) <= constants.ML_RECURRENCE_TOL * scale


@pytest.mark.parametrize(
    "alpha,betas,z",
    [
        (0.3, (1.0, 0.3), -np.geomspace(0.5, 60.0, 20)),
        (0.55, (1.0, 0.55), -np.geomspace(0.5, 60.0, 20)),
        (0.95, (1.0, 0.95), -np.geomspace(0.5, 60.0, 20)),
        # the double-exponential estimate misses its gate here, and the
        # tail expansion and the series miss theirs
        (0.2, (0.35,), -np.array([4.6, 5.0, 5.3, 5.75])),
    ],
)
def test_ml_array_against_oracle_with_fallback(monkeypatch, alpha, betas, z):
    fallbacks = []
    quad = specfun._branch_cut_quad

    def counted(*args):
        fallbacks.append(args)
        return quad(*args)

    monkeypatch.setattr(specfun, "_branch_cut_quad", counted)
    for beta in betas:
        got = mittag_leffler_array(alpha, beta, z)
        ref = [oracles.ml_oracle(alpha, beta, float(q)) for q in z]
        assert got == pytest.approx(ref, rel=constants.ML_REL_TOL)
    if alpha == 0.2:
        assert len(fallbacks) == z.size


@pytest.mark.parametrize("alpha", [0.9998, 0.9999, 0.99995, 0.99999, 1.00001])
def test_ml_near_alpha_one_against_oracle(alpha):
    # a ridge of width pi (1 - alpha) at chi = |z| defeats both branch-cut
    # quadratures and hides from the tail expansion's truncation estimate;
    # 0.9998 lies just outside the band that routes around both
    z = -np.concatenate([np.geomspace(0.5, 50.0, 24), [5.682, 6.5, 36.5, 40.0]])
    for beta in (1.0, alpha):
        got = mittag_leffler_array(alpha, beta, z)
        ref = [oracles.ml_oracle(alpha, beta, float(q)) for q in z]
        assert got == pytest.approx(ref, rel=constants.ML_REL_TOL)


@pytest.mark.parametrize("alpha", [0.995, 0.999, 0.9995, 0.9998, 0.99989])
def test_ml_near_alpha_one_other_betas_against_oracle(alpha):
    # just outside the band, for beta neither 1 nor alpha, the branch-cut
    # rule misses its gate at small |z| and adaptive quadrature misses the
    # ridge as well; such points are summed in extended precision
    z = -np.geomspace(0.3, 50.0, 40)
    for beta in (0.35, 0.5, 0.75, 1.25, 1.5):
        got = mittag_leffler_array(alpha, beta, z)
        ref = [oracles.ml_oracle(alpha, beta, float(q)) for q in z]
        assert got == pytest.approx(ref, rel=constants.ML_REL_TOL, abs=0.0)


@pytest.mark.parametrize(
    "alpha,beta,z",
    [
        (0.9998, 0.35, -0.5024),
        (0.99989, 0.75, -1.8612),
        (0.9998, 0.75, -1.8612),
        (0.9995, 0.75, -1.861),
        (0.999, 0.35, -0.5024),
    ],
)
def test_ml_branch_cut_misses_near_alpha_one_against_oracle(alpha, beta, z):
    got = mittag_leffler(alpha, beta, z)
    # relative error only: some of these values are small enough that the
    # default absolute floor would pass a relative error of 1e-9
    ref = oracles.ml_oracle(alpha, beta, z)
    assert got == pytest.approx(ref, rel=constants.ML_REL_TOL, abs=0.0)


def test_ml_beta_just_below_one_plus_alpha_against_oracle():
    # chi**((1 - b)/alpha) with b a hair below 1 + alpha is barely integrable
    # at 0; the shift reduction must take over before the rule loses mass
    alpha, beta, z = 0.5355063214036464, 1.5354963214036466, -7.644053761200283
    got = mittag_leffler(alpha, beta, z)
    assert got == pytest.approx(oracles.ml_oracle(alpha, beta, z), rel=constants.ML_REL_TOL)


# the top order of a 56-order sweep np.linspace(0.01, 0.99989, 56): just
# below the band around alpha = 1, so its negative axis splits at X = 34
SWEEP_TOP_ALPHA = float(np.linspace(0.01, 0.99989, 56)[-1])
SWEEP_Z = -np.geomspace(0.05, 200.0, 200)


@pytest.mark.parametrize("beta", [2.0, 3.0])
def test_ml_series_band_misses_go_to_the_branch_cut(beta):
    # X = |z|**(1/alpha) <= 34 here and the series misses its gate; the
    # tail expansion used to pass its own gate on these points while off
    # by up to 4.25e-11, and the branch cut gets them to the oracle
    z = SWEEP_Z[(np.abs(SWEEP_Z) >= 20.0) & (np.abs(SWEEP_Z) <= 26.0)]
    got = mittag_leffler_array(SWEEP_TOP_ALPHA, beta, z)
    ref = [oracles.ml_oracle(SWEEP_TOP_ALPHA, beta, float(q)) for q in z]
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_tail_expansion_serves_only_points_past_the_series_band(monkeypatch):
    peaks = {}
    tail = specfun._tail_expansion

    def counted(alpha, beta, z):
        peaks.setdefault(alpha, []).extend(np.abs(z) ** (1.0 / alpha))
        return tail(alpha, beta, z)

    monkeypatch.setattr(specfun, "_tail_expansion", counted)
    below = (0.4, 0.6, 0.75, 0.95, SWEEP_TOP_ALPHA)
    for alpha in below + (0.99995, 1.5):
        for beta in (0.5, 1.0, alpha, 1.5, 2.0, 3.0):
            mittag_leffler_array(alpha, beta, SWEEP_Z)
    for alpha in below:
        assert min(peaks[alpha]) > specfun._SERIES_CANCEL_LIMIT
    # within 1e-4 of alpha = 1 and above 1 there is no branch cut: the
    # series' misses still go to the tail expansion
    for alpha in (0.99995, 1.5):
        assert min(peaks[alpha]) <= specfun._SERIES_CANCEL_LIMIT


def _log_terms(alpha, beta, q, n_hi):
    n = np.arange(n_hi, dtype=float)
    return n * math.log(abs(q)) - np.array([math.lgamma(alpha * k + beta) for k in n])


def _full_series(alpha, beta, q):
    # the series row of one negative point with every term, to the same
    # convergence rule as specfun._series: (sum t, eps * sum |t| / |sum t|)
    n_hi = 128
    logt = _log_terms(alpha, beta, q, n_hi)
    while not (logt[-1] < logt.max() - 40.0 and logt[-1] < -42.0):
        n_hi *= 2
        logt = _log_terms(alpha, beta, q, n_hi)
    mags = np.exp(logt)
    total = np.where(np.arange(n_hi) % 2 == 0, mags, -mags).sum()
    return total, specfun._EPS * mags.sum() / abs(total)


def _series_band(alpha):
    # the negative points mittag_leffler_array sends to the series
    return SWEEP_Z[np.abs(SWEEP_Z) ** (1.0 / alpha) <= specfun._SERIES_CANCEL_LIMIT]


@pytest.mark.parametrize("alpha", [0.4, 0.75, 0.95, SWEEP_TOP_ALPHA, 1.0])
@pytest.mark.parametrize("beta", [None, 1.0, 1.5, 3.0])
def test_series_drops_only_rows_that_miss_the_gate(alpha, beta):
    beta = alpha if beta is None else beta
    z = _series_band(alpha)
    value, est = specfun._series(alpha, beta, z)
    dropped = np.isinf(est)
    assert dropped.any()
    assert np.isnan(value[dropped]).all()
    for q in z[dropped]:
        assert _full_series(alpha, beta, float(q))[1] > constants.ML_TAYLOR_ACCEPT
    # every other row keeps the bits it had without the drop
    for q, v, e in zip(z[~dropped], value[~dropped], est[~dropped]):
        assert (v, e) == _full_series(alpha, beta, float(q))


@pytest.mark.parametrize(
    "alpha,beta,sign",
    [(0.75, 1.0, 1.0), (0.4, 3.0, 1.0), (0.75, 0.5, -1.0), (0.4, 0.2, -1.0), (1.5, 1.0, -1.0),
     (1.5, 3.0, -1.0), (1.2, 1.2, -1.0)],
)
def test_series_drops_no_row_off_the_completely_monotone_range(alpha, beta, sign):
    # positive z, beta < alpha and alpha > 1 have no bound |E| <= 1/Gamma(beta)
    z = sign * np.abs(_series_band(alpha))
    if alpha <= 1.0 and beta >= alpha:
        assert specfun._series_doom(alpha, beta) < math.inf
    else:
        assert specfun._series_doom(alpha, beta) == math.inf
    # rows whose terms outgrow the bound the completely monotone range uses
    bound = math.log(constants.ML_TAYLOR_ACCEPT / specfun._EPS) - math.lgamma(beta)
    assert max(_log_terms(alpha, beta, float(q), 128).max() for q in z) > bound + 2.0
    _, est = specfun._series(alpha, beta, z)
    assert np.isfinite(est).all()


# alpha = beta = 0.2 puts coefficients within rounding of poles of 1/Gamma;
# above beta = 165 or so 1/Gamma is subnormal and a live term can underflow
# to 0 in the middle of a row
TAIL_PARAMS = st.one_of(
    st.just((0.2, 0.2)),
    st.tuples(st.floats(0.0, 2.0, exclude_min=True), st.floats(165.0, 250.0)),
    st.tuples(st.floats(0.0, 2.0, exclude_min=True), st.floats(0.0, 250.0, exclude_min=True)),
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    params=TAIL_PARAMS,
    shift=st.floats(0.0, 1.0),
    small=st.lists(st.floats(-12.0, 0.0), max_size=16),
)
def test_tail_expansion_matches_the_per_row_scan(params, shift, small):
    # X = |z|**(1/alpha) in [34, 5000], where _evaluate sends points below
    # the band around alpha = 1, plus |z| in [e**-12, 1]
    alpha, beta = params
    log_x = np.linspace(math.log(34.0), math.log(5000.0), 161)
    log_x = log_x[:-1] + shift * (log_x[1] - log_x[0])
    z = -np.concatenate([np.exp(alpha * log_x), np.exp(small)])
    with np.errstate(all="ignore"):
        got = specfun._tail_expansion(alpha, beta, z)
        ref = oracles.tail_expansion_reference(alpha, beta, z)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b, equal_nan=True)


def test_ml_array_bits_do_not_depend_on_block_size(monkeypatch):
    rng = np.random.default_rng(7)
    z = np.concatenate([-rng.uniform(0.0, 60.0, 4000), rng.uniform(0.0, 5.0, 200)])
    pairs = ((0.75, 1.0), (0.75, 0.75), (0.4, 1.3))
    tables = {}
    for elems in (1 << 17, specfun._BLOCK_ELEMS, 1 << 8):
        monkeypatch.setattr(specfun, "_BLOCK_ELEMS", elems)
        tables[elems] = [mittag_leffler_array(alpha, beta, z) for alpha, beta in pairs]
    first, *rest = tables.values()
    for other in rest:
        for a, b in zip(first, other):
            assert np.array_equal(a, b)


# ------------------------------------------------ Gamma helpers against scipy

_POSITIVE = np.concatenate([np.geomspace(1e-300, 1.0, 400), np.linspace(1.0, 171.0, 1701)])
_NEGATIVE = -np.concatenate([np.geomspace(1e-6, 1.0, 100), np.linspace(1.0, 150.0, 3001) + 0.37])


def test_gamma_matches_scipy():
    got = np.array([gamma(x) for x in _POSITIVE])
    assert got == pytest.approx(special.gamma(_POSITIVE), rel=constants.GAMMA_REL_TOL)
    # overflow comes back as inf, as scipy has it
    for x in (5e-324, 1e-310, 171.7, 172.0, 1e300):
        assert gamma(x) == special.gamma(x) == math.inf


def test_lgamma_matches_scipy_gammaln():
    x = np.concatenate([_POSITIVE, np.linspace(171.0, 4e5, 500)])
    assert specfun._lgamma(x) == pytest.approx(special.gammaln(x), rel=constants.GAMMA_REL_TOL)


def test_rgamma_matches_scipy():
    x = np.concatenate([_POSITIVE, _NEGATIVE])
    ref = special.rgamma(x)
    got = specfun._rgamma(x)
    assert got == pytest.approx(ref, rel=constants.GAMMA_REL_TOL)
    # large negative non-integers keep their sign
    assert np.array_equal(np.sign(got), np.sign(ref))
    # the vector form is the scalar form entry by entry
    assert np.array_equal(got, [specfun._rgamma(v) for v in x])


def test_rgamma_poles_and_overflow_edges_match_scipy():
    poles = -np.arange(0.0, 151.0)
    assert np.array_equal(specfun._rgamma(poles), special.rgamma(poles))
    assert not np.any(specfun._rgamma(poles))
    # 1/Gamma underflows to 0 above about 171.6, overflows to a signed inf
    # below about -171.5, and is x itself where Gamma(x) overflows at 0+
    for x in (171.7, 172.0, 1e300, -171.5, -175.5, -180.5, -200.5, -396.3, 5e-324, 1e-310):
        assert specfun._rgamma(x) == special.rgamma(x)


def test_tail_expansion_skips_coefficients_at_rounded_poles(monkeypatch):
    # at alpha = beta = 0.2, beta - alpha k lands within rounding of -1, -2,
    # ...; those coefficients are 0, so the tail expansion serves the whole
    # band instead of stopping at k = 7 and handing it to adaptive quadrature
    fallbacks = []
    quad = specfun._branch_cut_quad

    def counted(*args):
        fallbacks.append(args)
        return quad(*args)

    monkeypatch.setattr(specfun, "_branch_cut_quad", counted)
    z = -np.linspace(4.5, 60.0, 40)
    got = mittag_leffler_array(0.2, 0.2, z)
    assert len(fallbacks) == 0
    ref = [oracles.ml_oracle(0.2, 0.2, float(q)) for q in z]
    assert got == pytest.approx(ref, rel=constants.ML_REL_TOL)
