"""Gamma and Mittag-Leffler evaluation contracts."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from fracevol import constants, specfun
from fracevol.errors import DomainError
from fracevol.specfun import gamma, mittag_leffler, mittag_leffler_array
from fracevol.spectral import SpectralModel, kernel_factors, ml_table

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


@pytest.mark.parametrize("alpha,beta,z", [(1.8, 1.0, -700.0), (1.5, 1.0, -210.0), (1.9, 1.0, -1e4),
                                          (2.0, 1.5, -2000.0), (1.99, 1.3, -3000.0)])
def test_ml_alpha_above_one_adds_the_pole_pair(alpha, beta, z):
    # past the series band the tail expansion alone misses the pair of poles
    # s = X exp(+-i pi/alpha) on the principal sheet, which dominates here
    ref = oracles.ml_oracle(alpha, beta, z)
    assert mittag_leffler(alpha, beta, z) == pytest.approx(ref, rel=constants.ML_REL_TOL, abs=0.0)


def test_ml_pole_pair_estimate_counts_the_rounding_of_its_phase(monkeypatch):
    # the pair's phase X sin(pi/alpha) carries the rounding of log X as well:
    # counted, (1.99, 1.3, -3000) gets an estimate of 1.5e-13 for an error
    # of 5.4e-14, misses the gate and takes extended precision
    mp = _counting(monkeypatch, "_extended_precision_series")
    assert mittag_leffler(1.99, 1.3, -3000.0) == oracles.ml_oracle(1.99, 1.3, -3000.0)
    assert len(mp) == 1


@pytest.mark.parametrize("alpha,beta,z", [(1.0, 0.5, -200.0), (0.99995, 1.0, -300.0),
                                          (1.2, 1.0, -1000.0)])
def test_tail_expansion_terms_past_underflow_are_zero(monkeypatch, alpha, beta, z):
    # z**-k underflows to 0 where 1/Gamma(beta - alpha k) overflows to inf;
    # their product is 0, not a nan that sends the point to extended precision
    mp = _counting(monkeypatch, "_extended_precision_series")
    got = mittag_leffler(alpha, beta, z)
    assert not mp
    ref = oracles.ml_oracle(alpha, beta, z)
    assert got == pytest.approx(ref, rel=constants.ML_REL_TOL, abs=0.0)


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
    assert kernel_factors(SpectralModel(np.array([lam])), alpha, t)[0] == pytest.approx(
        ref, rel=1e-12
    )
    # lam = 0 collapses to the power kernel; a model's rates are positive,
    # so the table row that kernel_factors scales is taken directly
    assert 0.25 ** (-0.4) * ml_table([0.0], 0.6, 0.6, [0.25])[0, 0] == pytest.approx(
        0.25 ** (-0.4) / gamma(0.6), rel=1e-13
    )


@pytest.mark.parametrize(
    "alpha,lam,t",
    [(0.0, 1.0, 0.5), (0.5, -1.0, 0.5), (0.5, 1.0, 0.0), (0.5, 1.0, -1.0)],
)
def test_kernel_domain(alpha, lam, t):
    # alpha = 1 is inside the domain: the kernel is then exp(-lam t)
    with pytest.raises(DomainError):
        kernel_factors(SpectralModel(np.array([lam])), alpha, t)


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
        # branch cut split at the wall serves these points
        (0.2, (0.35,), -np.array([4.6, 5.0, 5.3, 5.75])),
        # far field, where the rule split at the wall serves what the
        # double-exponential rule misses
        (0.9, (1.0, 0.9), -np.array([3e4, 1e5])),
    ],
)
def test_ml_array_against_oracle_with_fallback(monkeypatch, alpha, betas, z):
    wall = _counting(monkeypatch, "_branch_cut_wall")
    for beta in betas:
        got = mittag_leffler_array(alpha, beta, z)
        ref = [oracles.ml_oracle(alpha, beta, float(q)) for q in z]
        assert got == pytest.approx(ref, rel=constants.ML_REL_TOL)
    if alpha == 0.2:
        assert _points(wall) == z.size


@pytest.mark.parametrize("alpha,beta,z", [(0.15, 0.1, -1.825447991463726),
                                          (0.35, 0.3, -4.578173065185914)])
def test_wall_rule_misses_take_extended_precision(monkeypatch, alpha, beta, z):
    # next to a zero of E past the series band (X = 55 and 77) every
    # float64 route misses its gate, the rule split at the wall too; the
    # series in extended precision answers, not an error
    wall = _counting(monkeypatch, "_branch_cut_wall")
    mp = _counting(monkeypatch, "_extended_precision_series")
    got = mittag_leffler(alpha, beta, z)
    assert _points(wall) == 1 and len(mp) == 1
    assert got == pytest.approx(oracles.ml_oracle(alpha, beta, z), rel=constants.ML_REL_TOL)


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


@pytest.mark.parametrize("alpha,beta,z", [(0.18998, 0.1, -17.83131470848593),
                                          (0.207978, 0.35, -7.431328874924312),
                                          (0.405956, 0.25, -64.90950366750903)])
def test_branch_cut_misses_past_the_series_band_take_the_wall_rule(monkeypatch, alpha, beta, z):
    # the tail expansion passed its gate on these sweep points while off by
    # 7e-14 to 8.5e-14; the rule split at the wall gets them to the oracle
    wall = _counting(monkeypatch, "_branch_cut_wall")
    got = mittag_leffler(alpha, beta, z)
    assert _points(wall) == 1
    ref = oracles.ml_oracle(alpha, beta, z)
    assert abs(got - ref) <= 1e-14 * abs(ref)


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
    # below the band the branch cut and the rule split at the wall serve
    # every point the series misses
    assert not any(alpha in peaks for alpha in below)
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
    # X = |z|**(1/alpha) in [34, 5000], past the series band, plus |z| in
    # [e**-12, 1]
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


def test_tail_expansion_skips_coefficients_at_rounded_poles():
    # at alpha = beta = 0.2, beta - alpha k lands within rounding of -1, -2,
    # ...; those coefficients are 0, so the tail expansion passes its gate on
    # the whole band instead of stopping at k = 7
    z = -np.linspace(4.5, 60.0, 40)
    value, est = specfun._tail_expansion(0.2, 0.2, z)
    assert (est <= constants.ML_ASYMP_ACCEPT).all()
    ref = [oracles.ml_oracle(0.2, 0.2, float(q)) for q in z]
    assert value == pytest.approx(ref, rel=constants.ML_REL_TOL)
    assert mittag_leffler_array(0.2, 0.2, z) == pytest.approx(ref, rel=constants.ML_REL_TOL)


# ---------------------------- branch cut, then the rule split at the wall

SWEEP_ALPHAS = [float(a) for a in np.linspace(0.01, 0.99989, 56)]
SWEEP_BETAS = (0.1, 0.25, 0.35, 0.5, 0.75, 1.0, "alpha", 1.25, 1.5, 2.0, 2.5, 3.0, "1+alpha")
# (wall-rule, extended-precision) points per order of the 56-order sweep;
# orders not listed had none.  The extended-precision column was taken when
# the tail expansion still came before the branch cut, the branch cut
# summed every row at step h and adaptive quadrature was the last resort;
# the wall-rule column when that rule took every branch-cut miss past the
# series band, the tail expansion none
SWEEP_FALLBACKS = {
    0: (1644, 6), 1: (1612, 0), 2: (1575, 0), 3: (1531, 0), 4: (1492, 0), 5: (1437, 0),
    6: (1395, 0), 7: (1341, 0), 8: (1287, 0), 9: (1223, 0), 10: (1168, 0), 11: (1109, 0),
    12: (1049, 0), 13: (990, 0), 14: (909, 0), 15: (835, 0), 16: (768, 0), 17: (696, 1),
    18: (625, 0), 19: (542, 0), 20: (478, 0), 21: (397, 0), 22: (311, 0), 23: (244, 1),
    24: (168, 0), 25: (109, 0), 26: (53, 0), 27: (23, 0), 28: (2, 0), 55: (0, 1),
}


def _beta(alpha, beta):
    return {"alpha": alpha, "1+alpha": 1.0 + alpha}.get(beta, beta)


def _counting(monkeypatch, name, module=specfun):
    # the arguments of every call of the route
    calls = []
    route = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return route(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def _points(calls):
    # the points those calls served: each call's last argument is one z or an array
    return sum(np.size(args[-1]) for args in calls)


def test_sweep_fallbacks_do_not_grow(monkeypatch):
    # 56 orders x 13 betas x SWEEP_Z, all below the band around alpha = 1:
    # the branch cut's misses past the series band go to the rule split at
    # the wall, never to the tail expansion; that rule's misses and the
    # branch cut's misses in the series band go to extended precision
    wall = _counting(monkeypatch, "_branch_cut_wall")
    mp = _counting(monkeypatch, "_extended_precision_series")
    tail = _counting(monkeypatch, "_tail_expansion")
    for i, alpha in enumerate(SWEEP_ALPHAS):
        before = (_points(wall), len(mp))
        for beta in SWEEP_BETAS:
            mittag_leffler_array(alpha, _beta(alpha, beta), SWEEP_Z)
        counts = (_points(wall) - before[0], len(mp) - before[1])
        limit = SWEEP_FALLBACKS.get(i, (0, 0))
        assert counts[0] <= limit[0] and counts[1] <= limit[1], (alpha, counts, limit)
    assert not tail


def _demo_heat_verify_tables(monkeypatch):
    # the (alpha, beta, z) of every Mittag-Leffler table fracevol verify
    # builds for demo_heat.ini; no table depends on the states
    from pathlib import Path

    from fracevol import spectral
    from fracevol.config import build_forcing, build_grid, build_problem, load_config
    from fracevol.greens import Trajectory, verify_mild

    cfg = load_config(Path(__file__).resolve().parent.parent / "demos/configs/demo_heat.ini")
    problem, grid = build_problem(cfg), build_grid(cfg)
    tables = []
    evaluate = spectral.mittag_leffler_array

    def recorded(alpha, beta, z):
        tables.append((alpha, beta, np.ravel(z)))
        return evaluate(alpha, beta, z)

    with monkeypatch.context() as patch:
        patch.setattr(spectral, "mittag_leffler_array", recorded)
        zero = Trajectory(grid, np.zeros((grid.n_steps + 1, problem.n_modes)))
        verify_mild(problem, zero, raw_forcing=build_forcing(cfg, grid))
    return tables


def test_verify_tables_past_the_series_band_take_the_branch_cut(monkeypatch):
    tables = _demo_heat_verify_tables(monkeypatch)
    assert sorted(beta for _, beta, _ in tables) == [0.75, 1.0]
    tail = _counting(monkeypatch, "_tail_expansion")
    wall = _counting(monkeypatch, "_branch_cut_wall")
    served = []
    branch_cut = specfun._branch_cut

    def recorded(alpha, b, z):
        value, est = branch_cut(alpha, b, z)
        served.append((z, est))
        return value, est

    monkeypatch.setattr(specfun, "_branch_cut", recorded)
    checked = 0
    for alpha, beta, z in tables:
        served.clear()
        got = mittag_leffler_array(alpha, beta, z)
        far = z[np.abs(z) ** (1.0 / alpha) > specfun._SERIES_CANCEL_LIMIT]
        assert far.size > 1000
        (cut, est), = served
        assert np.isin(far, cut).all()
        assert (est <= constants.ML_ASYMP_ACCEPT).all()
        # 24 branch-cut points per table, spread evenly over log X
        X = np.abs(cut) ** (1.0 / alpha)
        order = np.argsort(X)
        assert X[order[0]] < 10.0 and X[order[-1]] > 250.0
        pick = order[np.searchsorted(X[order], np.geomspace(X[order[0]], X[order[-1]], 24))]
        for q in cut[pick]:
            i = int(np.flatnonzero(z == q)[0])
            ref = oracles.ml_oracle(alpha, beta, float(q))
            assert abs(got[i] - ref) <= 1e-14 * abs(ref), (alpha, beta, float(q))
            checked += 1
    assert checked >= 40
    # no call at all, not merely no point
    assert not tail and not wall


def test_steer_assembly_tables_never_reach_the_last_resort(monkeypatch):
    # the tables fracevol steer builds for demo_steer.ini: one assembly and
    # its endpoint rows, shared by every steering cell
    from pathlib import Path

    from fracevol import spectral
    from fracevol.config import build_grid, build_problem, load_config
    from fracevol.greens import ResponseAssembly

    cfg = load_config(Path(__file__).resolve().parent.parent / "demos/configs/demo_steer.ini")
    tables = _counting(monkeypatch, "mittag_leffler_array", spectral)
    wall = _counting(monkeypatch, "_branch_cut_wall")
    grid = build_grid(cfg)
    ResponseAssembly(build_problem(cfg), grid).rows(grid.n_steps)
    assert _points(tables) > 10_000
    assert not wall


def test_demo_commands_take_no_last_resort(monkeypatch, tmp_path):
    # fracevol verify on demo_heat.ini and fracevol steer on demo_steer.ini
    # call neither the tail expansion, nor the rule split at the wall, nor
    # extended precision
    from pathlib import Path

    from fracevol import cli

    configs = Path(__file__).resolve().parent.parent / "demos/configs"
    heat, steer = str(configs / "demo_heat.ini"), str(configs / "demo_steer.ini")
    out = str(tmp_path / "heat")
    assert cli.main(["simulate", "--config", heat, "--out", out]) == 0
    routes = ("_tail_expansion", "_branch_cut_wall", "_extended_precision_series")
    calls = [_counting(monkeypatch, name) for name in routes]
    assert cli.main(["verify", "--config", heat, out + ".trajectory.txt"]) == 0
    assert cli.main(["steer", "--config", steer, "--out", str(tmp_path / "steer")]) == 0
    assert calls == [[], [], []]


@pytest.mark.parametrize("alpha", [0.4, 0.75, 0.95, 0.99989])
@pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, "alpha", 1.5, "1+alpha"])
def test_progressive_branch_cut_serves_what_step_h_serves(alpha, beta):
    # the rule of step 2h answers where its own estimate passes, else
    # the rule of step h with the same estimate as when every row took it
    b, _ = specfun._reduce_beta(alpha, _beta(alpha, beta))
    z = -np.geomspace(0.05, 5000.0, 400)
    value, est = specfun._branch_cut(alpha, b, z)
    ref, ref_est = oracles.branch_cut_reference(alpha, b, z)
    before = ref_est <= constants.ML_ASYMP_ACCEPT
    assert before.any()
    assert (est[before] <= constants.ML_ASYMP_ACCEPT).all()
    gap = np.abs(value[before] - ref[before])
    assert (gap <= constants.ML_ASYMP_ACCEPT * np.abs(ref[before])).all()
    # rows the step-h rule missed added the odd nodes and keep its bits;
    # elsewhere the rule of step 2h answers on some rows at least
    assert np.array_equal(est[~before], ref_est[~before], equal_nan=True)
    assert np.array_equal(value[~before], ref[~before], equal_nan=True)
    assert (value[before] != ref[before]).any()


@pytest.mark.parametrize(
    "alpha,beta,z",
    [(0.423954, 0.25, -1.1390172531867668), (0.837908, 0.75, -3.5095546532638506),
     (0.891902, 0.35, -0.5608111439613025)],
)
def test_branch_cut_rows_whose_terms_cancel_are_answered_at_step_h(alpha, beta, z):
    # points of the sweep where S_2h and S_4h agree within 1e-13 but their
    # terms cancel to eps * sum |terms| > 1e-13 |S_2h|: that rounding is
    # shared by both rules, so it counts in the 2h estimate and step h answers
    b, _ = specfun._reduce_beta(alpha, beta)
    z = np.array([z])
    got = specfun._branch_cut(alpha, b, z)
    ref = oracles.branch_cut_reference(alpha, b, z)
    assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])


@pytest.mark.parametrize("alpha,beta", [(0.99989, 0.99989), (0.99989, 1.0), (0.95, 1.9)])
def test_branch_cut_near_b_equal_alpha_against_oracle(alpha, beta):
    # sin(pi (1 - b + alpha)) is exactly 0 at b = alpha; rounded to
    # sin(pi) = 1.2e-16 it put 7e-11 into E(-200) at alpha = 0.99989
    z = -np.geomspace(40.0, 200.0, 8)
    got = mittag_leffler_array(alpha, beta, z)
    ref = [oracles.ml_oracle(alpha, beta, float(q)) for q in z]
    assert got == pytest.approx(ref, rel=1e-14, abs=0.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(alpha=st.floats(0.05, 0.9999), share=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_branch_cut_over_leading_nodes_matches_the_full_sum(alpha, share):
    # each row's step-2h sum over its leading nodes, with the bound on the
    # terms it leaves out, against the same rule over every node
    b, _ = specfun._reduce_beta(alpha, share * (1.0 + alpha))
    z = -np.geomspace(0.05, 5000.0, 400)
    with np.errstate(all="ignore"):
        value, est = specfun._branch_cut(alpha, b, z)
        ref, ref_est = oracles.progressive_branch_cut_reference(alpha, b, z)
    coarse = ref_est <= constants.ML_ASYMP_ACCEPT
    assert np.array_equal(est <= constants.ML_ASYMP_ACCEPT, coarse)
    # rows answered at step h keep their bits and their estimates
    assert np.array_equal(value[~coarse], ref[~coarse], equal_nan=True)
    assert np.array_equal(est[~coarse], ref_est[~coarse], equal_nan=True)
    assert (np.abs(value[coarse] - ref[coarse]) <= 1e-15 * np.abs(ref[coarse])).all()
    assert (est[coarse] >= ref_est[coarse] - 1e-16).all()


@pytest.mark.parametrize("beta", [0.75, 1.0])
def test_stiff_mode_table_against_oracle(beta):
    # 32 Dirichlet modes on 512 steps: X = |z|**(1/alpha) reaches about
    # 10**4, where most branch-cut terms underflow
    alpha = 0.75
    model = SpectralModel.dirichlet_laplacian(32)
    times = np.linspace(0.0, 1.0, 513)
    table = ml_table(model.lambdas, alpha, beta, times)
    z = -np.outer(np.array([float(t) ** alpha for t in times]), model.lambdas)
    X = np.abs(z) ** (1.0 / alpha)
    assert X.max() > 1e4
    flat = np.argsort(X, axis=None)
    far = flat[X.ravel()[flat] > specfun._SERIES_CANCEL_LIMIT]
    Xs = X.ravel()[far]
    # 20 points per table spread evenly over log X, against the 40-digit
    # contour integral (ml_oracle's series takes seconds a point at X of
    # a few hundred, and agrees with it there)
    pick = far[np.minimum(np.searchsorted(Xs, np.geomspace(Xs[0], Xs[-1], 20)), far.size - 1)]
    for q, got in zip(z.ravel()[pick], table.ravel()[pick]):
        ref = float(oracles.ml_branch_cut(alpha, beta, float(q)))
        assert abs(got - ref) <= 1e-14 * abs(ref), (beta, float(q))
    perm = np.random.default_rng(3).permutation(times.size)
    assert np.array_equal(ml_table(model.lambdas, alpha, beta, times[perm]), table[perm])


@pytest.mark.parametrize("alpha,beta", [(0.9, 0.52), (0.6, 1.55), (0.75, 1.7), (0.45, 1.3)])
def test_branch_cut_rows_whose_terms_cancel_keep_the_full_sum(alpha, beta):
    # b outside [alpha, 1] gives terms of both signs; summed over fewer
    # nodes a row would round in another order, by about eps times its
    # magnitudes, so rows that cancel to under half of them take every node
    b, _ = specfun._reduce_beta(alpha, beta)
    z = -np.geomspace(0.05, 5000.0, 400)
    A, c, *_ = specfun._branch_cut_nodes(alpha, b)
    terms = np.exp(-(-z)[:, None] ** (1.0 / alpha) * A) * c
    cancel = np.abs(terms).sum(axis=1) > 2.5 * np.abs(terms.sum(axis=1))
    assert cancel.sum() >= 40
    got = specfun._branch_cut(alpha, b, z)
    ref = oracles.progressive_branch_cut_reference(alpha, b, z)
    assert (ref[1][cancel] <= constants.ML_ASYMP_ACCEPT).all()
    assert np.array_equal(got[0][cancel], ref[0][cancel])
    assert np.array_equal(got[1][cancel], ref[1][cancel])


@pytest.mark.parametrize("cut", [3.0, 8.0])
def test_branch_cut_bound_on_dropped_terms_at_a_short_cut(monkeypatch, cut):
    # at _DE_CUT = 60 the dropped terms never count; cut far shorter, the
    # bound on them decides which rows are summed again over every node
    monkeypatch.setattr(specfun, "_DE_CUT", cut)
    z = -np.geomspace(0.05, 5000.0, 400)
    for alpha, beta in ((0.75, 1.0), (0.75, 0.75), (0.3, 0.5), (0.95, 1.9)):
        b, _ = specfun._reduce_beta(alpha, beta)
        value, est = specfun._branch_cut(alpha, b, z)
        ref, ref_est = oracles.progressive_branch_cut_reference(alpha, b, z)
        coarse = ref_est <= constants.ML_ASYMP_ACCEPT
        assert np.array_equal(est <= constants.ML_ASYMP_ACCEPT, coarse)
        assert (est[coarse] >= ref_est[coarse] - 1e-16).all()
        gap = np.abs(value[coarse] - ref[coarse])
        assert (gap <= 0.1 * constants.ML_ASYMP_ACCEPT * np.abs(ref[coarse])).all()
