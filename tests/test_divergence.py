"""Core divergence math: moments, step bound, quadrature."""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from fedrdp import _float64, accountant, divergence
from fedrdp.accountant import (
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    ParticipationLedger,
    PrivacyBudget,
    RdpCurve,
    StepParams,
    _calibration_epsilon,
    _calibration_walk,
    calibrate_sigma,
    compose_client_rdp,
    rdp_to_dp,
)
from fedrdp.divergence import (
    BoundResult,
    MechanismParams,
    QuadratureError,
    likelihood_ratio_moment,
    renyi_divergence_quadrature,
    renyi_step_bound,
)


U = 2.0**-53


# --- moments --------------------------------------------------------------


def test_moment_order_two_closed_form():
    # E[L^2] = e^{4/sigma^2}, so E[(L-1)^2] = e^{4/sigma^2} - 1
    assert likelihood_ratio_moment(2.0, 2) == pytest.approx(math.e - 1, rel=1e-14)
    assert likelihood_ratio_moment(1.0, 2) == pytest.approx(math.exp(4) - 1, rel=1e-13)


def test_moment_vanishes_for_large_noise():
    assert 0 <= likelihood_ratio_moment(1e6, 2) < 1e-9
    vals = [likelihood_ratio_moment(s, 2) for s in (2.0, 8.0, 32.0, 128.0)]
    assert vals == sorted(vals, reverse=True)


@pytest.mark.parametrize("sigma,k", [(1.0, 3), (2.0, 5), (4.0, 2), (4.0, 6)])
def test_moment_matches_mc_oracle_quick(sigma, k):
    est, se = reference.moment_mc_importance(sigma, k, n_samples=10**6, seed=99)
    assert abs(likelihood_ratio_moment(sigma, k) - est) <= 3 * se


def test_moment_rejects_bad_args():
    with pytest.raises(ValueError):
        likelihood_ratio_moment(0.0, 2)
    with pytest.raises(ValueError):
        likelihood_ratio_moment(-1.0, 2)
    with pytest.raises(ValueError):
        likelihood_ratio_moment(2.0, 1)


def test_moment_overflow_signal():
    with pytest.raises(OverflowError):
        likelihood_ratio_moment(0.1, 50)
    # the exponent 2k(k-1)/sigma^2 = 816 is under the cap, but the moment
    # e^816 - 1 is past float range
    with pytest.raises(OverflowError, match="exceeds float range"):
        likelihood_ratio_moment(0.07, 2)


@pytest.mark.parametrize("sigma", [1e34, 1e40, 1e100])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_moment_past_a_sum_that_cancels_to_zero(sigma, k):
    # at the first working precision every term rounds to its binomial, so
    # the sum cancels to exactly 0: the precision is raised, not the 0
    # returned.  Past float range (sigma 1e100, k 3 and 4) the moment is 0.0
    want = reference.central_moment_binomial(sigma, k, dps=1000)
    assert likelihood_ratio_moment(sigma, k) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert (want == 0.0) == (sigma == 1e100 and k > 2)


@pytest.mark.parametrize("sigma,k,digits", [(100.0, 10, [65, 82]), (1000.0, 8, [65, 86])])
def test_moment_raises_its_precision_past_the_cancellation(monkeypatch, sigma, k, digits):
    # at large sigma the binomial sum cancels more digits than the first
    # working precision leaves, so the sum is taken again at a higher one
    workdps = type(mp.mp).workdps
    seen = []

    def recording(ctx, n):
        seen.append(n)
        return workdps(ctx, n)

    monkeypatch.setattr(type(mp.mp), "workdps", recording)
    value = likelihood_ratio_moment(sigma, k)
    monkeypatch.undo()
    assert seen == digits
    assert value == reference.central_moment_binomial(sigma, k)


# --- one-step bound ---------------------------------------------------------


def test_step_bound_zero_sampling_ratio():
    r = renyi_step_bound(4.0, MechanismParams(q=0.0, sigma=2.0))
    assert r.bound == 0.0
    assert r.leading_sum == 1.0
    assert r.remainder == 0.0


def test_step_bound_integer_two_closed_form():
    r = renyi_step_bound(2.0, MechanismParams(q=0.05, sigma=4.0))
    closed = reference.integer_alpha_divergence(2, 0.05, 4.0)
    assert closed == pytest.approx(7.098e-4, abs=1e-6)
    assert r.bound >= closed
    assert r.bound - closed <= r.remainder + 1e-12


@pytest.mark.parametrize("alpha", [1.25, 1.5, 2.5, 6.5, 10.5])
@pytest.mark.parametrize("q", [1e-3, 0.05, 0.5])
@pytest.mark.parametrize("sigma", [0.25, 0.8, 2.0, 8.0])
def test_adaptive_truncation_is_the_explicit_one_where_it_stops(alpha, q, sigma):
    # A fractional order takes the split series, which stops where its rule
    # says: at a pair of terms past alpha (m counts both sides), once the two
    # first omitted terms, which bound the tail, are below
    # max(1e-12, 1e-6 (M - 1)); the remainder is that plus the float64 error
    # bound.
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert r.path == "split"
    assert r.m % 2 == 0 and r.m // 2 > alpha
    if math.isinf(r.leading_sum):
        return
    rule = max(1e-12, 1e-6 * (r.leading_sum - 1))
    assert r.remainder <= rule * (1 + 1e-6) + 1e3 * U * r.leading_sum


def test_step_bound_rejects_full_sampling():
    with pytest.raises(ValueError):
        renyi_step_bound(2.0, MechanismParams(q=1.0, sigma=2.0))


@pytest.mark.parametrize("alpha", [1.0, 0.5, math.inf, math.nan])
def test_step_bound_rejects_bad_order(alpha):
    with pytest.raises(ValueError):
        renyi_step_bound(alpha, MechanismParams(q=0.1, sigma=2.0))


def test_step_bound_takes_only_mechanism_params():
    with pytest.raises(TypeError, match="params must be a MechanismParams"):
        renyi_step_bound(2.0, (0.1, 1.0))


def test_mechanism_params_validation():
    with pytest.raises(ValueError):
        MechanismParams(q=-0.1, sigma=2.0)
    with pytest.raises(ValueError):
        MechanismParams(q=1.5, sigma=2.0)
    with pytest.raises(ValueError):
        MechanismParams(q=0.1, sigma=0.0)


@given(
    alpha=st.floats(1.05, 12.0),
    q=st.floats(0.0005, 0.3),
    sigma=st.floats(1.0, 8.0),
)
def test_step_bound_internal_consistency(alpha, q, sigma):
    try:
        r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    except OverflowError:
        assume(False)
    assert r.bound >= 0.0
    assert r.remainder >= 0.0
    assert r.m >= 3
    total = r.leading_sum + r.remainder
    if math.isfinite(total) and total >= 1.0:
        assert r.bound == pytest.approx(math.log(total) / (alpha - 1), rel=1e-9)


INTEGER_ALPHAS = [a for a in DEFAULT_ALPHAS if a.is_integer() and a <= 256]


def _stated_log_error(n, sigma, exact):
    """Delta_max of ``_float64._integer_log_moment``: the stated bound on the
    error of the float64 log moment at integer order n, given the exact
    divergence (so log M = (n-1) exact and E / (1 + E) = 1 - 1/M)."""
    y = (n - 1) * exact
    p = _float64._LIBM_ULPS
    rho_max = (4 * n + 8 * n * (n - 1) / sigma / sigma + 2 * p + 4 + (2 * p + 1) * -(-n // 512)) * U
    return (rho_max * -math.expm1(-y) + (2 * p + 3) * U * y) * (1 + 2.0**-20)


def _stated_bound_gap(n, sigma, exact):
    """The most ``renyi_step_bound`` may exceed the exact divergence by at an
    integer order: twice the log error over n - 1, plus the roundings of the
    division and of the final sum, and of exact itself."""
    return 2 * _stated_log_error(n, sigma, exact) / (n - 1) + 7 * U * exact + 2.0**-1069


def _stated_moment_slack(n, sigma, exact):
    """The most the integer order's remainder may be, relative to leading_sum:
    twice the log error plus the roundings, plus u for the rounding of
    leading_sum, with a 1e-6 relative margin for this float evaluation."""
    y = (n - 1) * exact
    return (math.expm1(2 * _stated_log_error(n, sigma, exact) + 6 * U * y) + U) * (1 + 1e-6)


def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


@pytest.mark.parametrize("alpha", INTEGER_ALPHAS)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(u_sigma=st.floats(0.0, 1.0), u_q=st.floats(0.0, 1.0))
def test_step_bound_integer_order_is_exact_closed_form(alpha, u_sigma, u_q):
    # sigma log-uniform over [0.3, 64]
    sigma = _log_uniform(0.3, 64.0, u_sigma)
    q = _log_uniform(1e-6, 0.9, u_q)
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert 0 <= r.remainder <= _stated_moment_slack(int(alpha), sigma, r.bound) * r.leading_sum
    assert r.m == int(alpha) + 1
    exact = reference.integer_alpha_divergence(int(alpha), q, sigma)
    assert r.bound == pytest.approx(exact, rel=1e-12)


def _check_integer_order_exact(alpha, q, sigma):
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert 0 <= r.remainder <= _stated_moment_slack(int(alpha), sigma, r.bound) * r.leading_sum
    assert r.m == int(alpha) + 1
    assert r.bound == pytest.approx(reference.integer_alpha_divergence(int(alpha), q, sigma), rel=1e-12)


@pytest.mark.parametrize("alpha", INTEGER_ALPHAS)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(u_sigma=st.floats(0.0, 1.0), u_q=st.floats(0.0, 1.0))
def test_step_bound_integer_order_is_exact_at_large_sigma(alpha, u_sigma, u_q):
    # calibration doubles its upper bracket up to sigma = 1e6; from
    # sigma ~ sqrt(2 alpha (alpha - 1) / log 2) on, every factor
    # e^{2l(l-1)/sigma^2} of the sum is <= 2, and the excess is small
    _check_integer_order_exact(alpha, _log_uniform(1e-6, 0.9, u_q), _log_uniform(64.0, 1e6, u_sigma))


def _switch_cases():
    # e^{2l(l-1)/sigma^2} = 2 for term l at sigma = sqrt(2 l (l-1) / log 2)
    for alpha in INTEGER_ALPHAS:
        for l in sorted({2, int(alpha) // 2, int(alpha)} - {1}):
            yield alpha, l, math.sqrt(2 * l * (l - 1) / math.log(2))


@pytest.mark.parametrize("alpha, l, sigma", list(_switch_cases()))
@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
def test_step_bound_integer_order_exact_across_expm1_switch(alpha, l, sigma, side):
    # a sigma grid tied to each order: either side of where term l's factor
    # e^{2l(l-1)/sigma^2} is 2
    for q in (1e-4, 0.05, 0.6):
        _check_integer_order_exact(alpha, q, sigma * side)


def _check_against_direct_sum(n, q, sigma):
    """The float64 bound at integer order n is never below the 60-digit direct
    binomial sum (one binomial and one expm1 per term, nothing carried), and
    above it by no more than the stated error bound; the bound stays finite
    where leading_sum and remainder round to inf."""
    r = renyi_step_bound(float(n), MechanismParams(q=q, sigma=sigma))
    with mp.workdps(60):
        excess = reference.integer_moment_excess_direct(n, q, sigma)
        direct = mp.log1p(excess) / (n - 1)
        assert mp.mpf(r.bound) >= direct
        assert mp.mpf(r.bound) - direct <= _stated_bound_gap(n, sigma, float(direct))
        # the moment lies within leading_sum +- remainder
        if math.isfinite(r.leading_sum):
            assert abs(1 + excess - r.leading_sum) <= r.remainder
    assert math.isfinite(r.bound)
    return r


@pytest.mark.parametrize("alpha", [2, 3, 8, 32, 256, 1025])
@pytest.mark.parametrize("sigma", [0.5, 2.0, 8.0, 64.0, 1e4, 1e10, 1e200])
def test_integer_order_bound_is_bit_identical_to_the_direct_sum(alpha, sigma):
    # The bound encloses the direct sum within the stated slack.  From
    # sigma ~ 1.4e9 on, x_2 is below 2^-60 and expm1(x) is taken as x; at
    # q = 1e-155 the excess is subnormal at small orders, and at q = 1e-200
    # (or sigma = 1e200) it underflows to 0.
    for q in (1e-3, 0.05, 0.5, 1e-155, 1e-200):
        _check_against_direct_sum(alpha, q, sigma)


def _branch_cases():
    # x_2 = 2^-60, below which expm1(x) is taken as x
    for n in (2, 32):
        yield n, 2.0**31
    # x_n = 700, above which expm1(x) is taken as e^(x - k ln 2) 2^k
    for n in (8, 64, 1025):
        yield n, math.sqrt(2 * n * (n - 1) / _float64._EXP_SPLIT)


@pytest.mark.parametrize("alpha, sigma", list(_branch_cases()))
@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
def test_integer_order_bound_across_its_expm1_branches(alpha, sigma, side):
    for q in (1e-3, 0.05, 0.5):
        _check_against_direct_sum(alpha, q, sigma * side)


@pytest.mark.parametrize(
    "alpha, sigma, log2_moment",
    [(64, 3.3223, 990), (64, 3.2836, 1015), (256, 12.2973, 990), (256, 12.1754, 1015)],
)
def test_integer_order_bound_either_side_of_the_log_switch(alpha, sigma, log2_moment):
    # past a largest term of 2^1000 the log is taken as log(mantissa) + top ln 2
    r = _check_against_direct_sum(alpha, 0.5, sigma)
    assert math.log2(r.leading_sum) == pytest.approx(log2_moment, abs=0.5)


@pytest.mark.parametrize(
    "alpha, q, sigma, known",
    [(32, 0.9, 1.2, 44.34), (256, 0.5, 9.5, 4.977), (1025, 0.5, 27.0, 2.122)],
)
def test_integer_order_bound_past_float_range(alpha, q, sigma, known):
    # the moment is past float range: leading_sum is inf, the bound is not
    r = _check_against_direct_sum(alpha, q, sigma)
    assert math.isinf(r.leading_sum)
    assert r.bound == pytest.approx(known, rel=1e-3)


@pytest.mark.parametrize("alpha", [a for a in DEFAULT_ALPHAS if a.is_integer()])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(u_sigma=st.floats(0.0, 1.0), u_q=st.floats(0.0, 1.0), at_top=st.booleans())
def test_integer_order_bound_encloses_the_direct_sum(alpha, u_sigma, u_q, at_top):
    # every integer grid order, sigma log-uniform over [0.3, 1e6] (or 1e6
    # itself, where the excess is ~1e-12 and the relative error matters
    # most), q log-uniform over [1e-6, 0.9]
    sigma = 1e6 if at_top else _log_uniform(0.3, 1e6, u_sigma)
    _check_against_direct_sum(int(alpha), _log_uniform(1e-6, 0.9, u_q), sigma)


def test_bound_result_rejects_nan():
    with pytest.raises(ValueError):
        BoundResult(bound=math.nan, leading_sum=1.0, remainder=0.0, m=3, path="closed_form")
    with pytest.raises(ValueError):
        BoundResult(bound=0.1, leading_sum=1.0, remainder=math.nan, m=3, path="closed_form")
    with pytest.raises(ValueError):
        BoundResult(bound=0.1, leading_sum=1.0, remainder=-1e-300, m=3, path="closed_form")
    kept = BoundResult(bound=0.1, leading_sum=math.inf, remainder=math.inf, m=3, path="closed_form")
    assert kept.bound == 0.1


@pytest.mark.parametrize("sigma", [0.3, 0.5, 1.0, 64.0])
def test_every_default_order_is_finite_and_above_the_truth(sigma):
    # integer orders against the 60-digit closed form, fractional ones
    # against the oracle, down to calibration's smallest sigma; calibration
    # converts the same curve, also where it is won at order 1025 (sigma = 64)
    for q in (1e-3, 0.2):
        ledger = ParticipationLedger().record(0, 1, StepParams(q=q, sigma=sigma, clip=1.0, batch_size=1))
        curve = compose_client_rdp(ledger, 0)
        budget, alpha_star = rdp_to_dp(curve, DEFAULT_DELTA)
        epsilon, calibration_alpha, _ = _calibration_epsilon(
            q, sigma, 1, _calibration_walk(DEFAULT_ALPHAS, DEFAULT_DELTA))
        assert (epsilon, calibration_alpha) == (budget.epsilon, alpha_star)
        for alpha, value in curve.items():
            assert math.isfinite(value)
            if alpha.is_integer():
                with mp.workdps(60):
                    excess = reference.integer_moment_excess_direct(int(alpha), q, sigma)
                    assert mp.mpf(value) >= mp.log1p(excess) / (alpha - 1)
            else:
                assert value >= renyi_divergence_quadrature(alpha, q, sigma)


def test_closed_form_domain_is_checked_before_its_loop():
    # the error bound holds while rho_max <= 2^-21: at order 1025 down to
    # sigma ~0.04422, and at no sigma for order 2^40, whose loop would run
    # ~2^40 times
    _check_against_direct_sum(1025, 0.5, 0.0443)
    for alpha, sigma in [(1025.0, 0.0442), (2.0**40, 1.0)]:
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="domain"):
            renyi_step_bound(alpha, MechanismParams(q=0.01, sigma=sigma))
        assert time.perf_counter() - start < 0.5


def test_float64_paths_refuse_orders_past_their_largest():
    # the closed form keeps three order-long lists, and the split series
    # walks past the order; both stop at 2^16 before forming a term
    assert math.isfinite(renyi_step_bound(2.0**16, MechanismParams(q=0.01, sigma=1e4)).bound)
    for alpha in (2.0**16 + 1, 2.0**24, 2.0**16 + 0.5):
        start = time.perf_counter()
        with pytest.raises(OverflowError, match="domain"):
            renyi_step_bound(alpha, MechanismParams(q=0.01, sigma=1e4))
        assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("sigma", [1e-4, 1e-16])
def test_split_series_refuses_noise_too_small_to_certify(sigma):
    # at 1e-4 a kept term's error passes 2^-21; at 1e-16 the first term is
    # dropped with an error past 1, before any term is kept.  Composition
    # takes q = 1's 2 alpha / sigma^2 there
    with pytest.raises(OverflowError, match="split series outside its domain"):
        renyi_step_bound(1.5, MechanismParams(q=0.1, sigma=sigma))
    assert accountant._cached_step_bound(1.5, 0.1, sigma) > 3.0 / sigma / sigma


def test_each_bound_names_its_path():
    assert renyi_step_bound(2.0, MechanismParams(0.05, 4.0)).path == "closed_form"
    assert renyi_step_bound(2.5, MechanismParams(0.05, 4.0)).path == "split"
    assert renyi_step_bound(2.5, MechanismParams(0.0, 4.0)).path == "split"
    with pytest.raises(ValueError, match="path"):
        BoundResult(bound=0.1, leading_sum=1.0, remainder=0.0, m=3, path="adaptive")


# --- quadrature oracle ------------------------------------------------------


def test_oracle_identical_distributions():
    assert renyi_divergence_quadrature(3.0, 0.0, 1.0) == 0.0


def test_oracle_pure_gaussian_shift():
    # q=1 collapses to two unit-separated Gaussians: D = 2 alpha / sigma^2
    assert renyi_divergence_quadrature(3.0, 1.0, 2.0) == pytest.approx(1.5, rel=1e-12)
    assert renyi_divergence_quadrature(5.0, 1.0, 4.0) == pytest.approx(0.625, rel=1e-12)


@pytest.mark.parametrize("sigma", [1e30, 1e160])
def test_oracle_is_never_negative_and_has_an_absolute_floor(sigma):
    # the 40-digit moment is 1 + (tiny): log(moment) keeps no digits below
    # ~1e-40, so the oracle reads within 1e-40 of the tiny divergence, and at
    # 1e30 it rounded to -1.1e-41 before it was clamped at 0
    bound = renyi_step_bound(2.0, MechanismParams(0.1, sigma)).bound
    quad = renyi_divergence_quadrature(2.0, 0.1, sigma)
    assert 0.0 <= quad <= 1e-40
    assert bound < 1e-60 and bound <= quad + 1e-40


def test_oracle_integer_alpha_closed_form():
    for alpha, q, sigma in [(2, 0.05, 4.0), (4, 0.1, 2.0), (8, 0.02, 3.0)]:
        closed = reference.integer_alpha_divergence(alpha, q, sigma)
        quad = renyi_divergence_quadrature(float(alpha), q, sigma)
        assert quad == pytest.approx(closed, rel=1e-10, abs=1e-14)


def test_oracle_spot_value_alpha_two():
    v = renyi_divergence_quadrature(2.0, 0.05, 4.0)
    assert v == pytest.approx(math.log(1 + 0.0025 * (math.exp(0.25) - 1)), abs=1e-10)


def test_oracle_monotonicity_small_grid():
    alphas = (1.5, 2.0, 4.0)
    qs = (0.01, 0.05, 0.2)
    sigmas = (1.0, 2.0, 4.0)
    vals = {
        (a, q, s): renyi_divergence_quadrature(a, q, s)
        for a in alphas
        for q in qs
        for s in sigmas
    }
    for s in sigmas:
        for a in alphas:
            for q1, q2 in zip(qs, qs[1:]):
                assert vals[(a, q1, s)] <= vals[(a, q2, s)] + 1e-14
        for q in qs:
            for a1, a2 in zip(alphas, alphas[1:]):
                assert vals[(a1, q, s)] <= vals[(a2, q, s)] + 1e-14
    for a in alphas:
        for q in qs:
            for s1, s2 in zip(sigmas, sigmas[1:]):
                assert vals[(a, q, s1)] >= vals[(a, q, s2)] - 1e-14


def test_oracle_rejects_bad_args():
    with pytest.raises(ValueError):
        renyi_divergence_quadrature(1.0, 0.1, 2.0)
    with pytest.raises(ValueError):
        renyi_divergence_quadrature(2.0, -0.1, 2.0)
    with pytest.raises(ValueError):
        renyi_divergence_quadrature(2.0, 1.2, 2.0)
    with pytest.raises(ValueError):
        renyi_divergence_quadrature(2.0, 0.1, -2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: MechanismParams(q=0.1, sigma=10**400),
        lambda: renyi_step_bound(10**400, MechanismParams(q=0.1, sigma=1.0)),
        lambda: renyi_divergence_quadrature(10**400, 0.1, 1.0),
        lambda: renyi_divergence_quadrature(2.0, 0.1, 10**400),
        lambda: likelihood_ratio_moment(10**400, 2),
        lambda: MechanismParams(q=10**400, sigma=1.0),
        lambda: renyi_divergence_quadrature(2.0, 10**400, 1.0),
        lambda: StepParams(q=0.1, sigma=1.0, clip=10**400, batch_size=1),
        lambda: PrivacyBudget(10**400, 1e-5),
        lambda: PrivacyBudget(1.0, 10**400),
        lambda: rdp_to_dp(RdpCurve((2.0,), (0.5,)), 10**400),
        lambda: calibrate_sigma(PrivacyBudget(4.0, 1e-5), q=10**400, steps=10),
        lambda: compose_client_rdp(ParticipationLedger(), 0, (2.0, 10**400)),
        lambda: RdpCurve((2.0, 10**400), (0.0, 0.0)),
        lambda: RdpCurve((2.0,), (10**400,)),
    ],
    ids=["params-sigma", "bound-alpha", "quadrature-alpha", "quadrature-sigma", "moment-sigma",
         "params-q", "quadrature-q", "step-clip", "epsilon", "delta", "convert-delta",
         "calibrate-q", "compose-alpha", "curve-alpha", "curve-value"],
)
def test_an_integer_past_float_range_is_a_bad_domain(call):
    # not the OverflowError of converting it to float; shown by its size
    with pytest.raises(ValueError, match="got an integer of 401 digits$"):
        call()


@pytest.mark.parametrize(
    "value, shown",
    [(2**1024, "an integer of 309 digits"), (10**309 - 1, "an integer of 309 digits"),
     (10**309, "an integer of 310 digits"), (-(10**5000), "a negative integer of 5001 digits"),
     (10**308, repr(10**308)), (1.5, "1.5"), (math.inf, "inf")],
    ids=["2**1024", "10**309-1", "10**309", "-10**5000", "10**308", "1.5", "inf"],
)
def test_error_messages_show_an_integer_past_float_range_by_its_size(value, shown):
    assert divergence._shown(value) == shown


def test_quadrature_error_reports_achieved_tolerance():
    err = QuadratureError("did not converge", achieved_tolerance=1e-7)
    assert err.achieved_tolerance == 1e-7


def test_oracle_error_gate_uses_unscaled_integral(monkeypatch):
    # force the normalised integral's error estimate to 1e-10 of its value:
    # the gate (relative 1e-18 here) must fire, and report the tolerance on
    # the scale of the moment itself (~5.6e27), not of the normalised integral
    alpha, q, sigma = 4.0, 0.5, 0.6
    quad = mp.mp.quad  # the context divergence imports on first use

    def loose_quad(f, points, **kwargs):
        value, _ = quad(f, points, **kwargs)
        return value, value * mp.mpf("1e-10")

    monkeypatch.setattr(mp.mp, "quad", loose_quad)
    with pytest.raises(QuadratureError) as info:
        renyi_divergence_quadrature(alpha, q, sigma)
    moment = math.exp((alpha - 1) * reference.integer_alpha_divergence(int(alpha), q, sigma))
    assert moment > 1e27
    assert info.value.achieved_tolerance == pytest.approx(1e-10 * moment, rel=1e-9)


@pytest.mark.parametrize(
    "alpha, q, sigma",
    [
        # the peak of width s sits on a breakpoint far inside its interval:
        # Gauss-Legendre converges falsely here, and the error gate passes
        (128, 1.0, 0.3), (256, 0.5, 0.5), (64, 1e-3, 0.3),
        (1025, 1e-3, 0.5),
        # D ~ 1e-18 and 4e-15: an oracle at 30 digits is off by up to 5e-14
        (2, 1e-6, 1000.0), (8, 1e-6, 64.0),
    ],
)
def test_oracle_holds_where_a_cheaper_rule_goes_wrong(alpha, q, sigma):
    closed = reference.integer_alpha_divergence(alpha, q, sigma)
    assert renyi_divergence_quadrature(float(alpha), q, sigma) == pytest.approx(closed, rel=1e-14)


def test_oracle_does_not_grow_mpmath_node_caches():
    # every interval is integrated on [-1, 1], so mpmath caches one node set
    # per degree; nodes mapped to [a, b] would be cached anew at each sigma
    rule = mp.mp._tanh_sinh

    def sizes():
        return [len(c) for c in (rule.standard_cache, rule.transformed_cache, rule.interval_count)]

    for _ in range(2):  # a node set enters transformed_cache on its second use
        renyi_divergence_quadrature(4.0, 0.5, 0.6)
    before = sizes()
    for i in range(40):
        renyi_divergence_quadrature(4.0, 0.5, 0.6 + i / 64)
    assert sizes() == before


def test_oracle_pure_gaussian_shift_past_float_range():
    # the moment e^{(alpha-1) D} = e^{8064} is far past float range
    assert renyi_divergence_quadrature(64.0, 1.0, 1.0) == pytest.approx(128.0, rel=1e-12)


@pytest.mark.parametrize("alpha, q, sigma", [(4, 0.5, 0.6), (12, 0.6, 1.2), (48, 0.05, 3.0)])
def test_oracle_matches_closed_form_at_large_moments(alpha, q, sigma):
    quad = renyi_divergence_quadrature(float(alpha), q, sigma)
    assert quad == pytest.approx(reference.integer_alpha_divergence(alpha, q, sigma), rel=1e-13)
    assert quad <= renyi_step_bound(float(alpha), MechanismParams(q=q, sigma=sigma)).bound


@pytest.mark.parametrize("alpha, q, sigma", [(64, 0.5, 16.0), (256, 0.3, 64.0)])
def test_oracle_with_integrand_peak_inside_zero_alpha(alpha, q, sigma):
    # the log-integrand peaks near t = 42 and t = 81, away from {0, 1, alpha}
    quad = renyi_divergence_quadrature(float(alpha), q, sigma)
    assert quad == pytest.approx(reference.integer_alpha_divergence(alpha, q, sigma), rel=1e-13)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    alpha=st.floats(1.0, 32.0, exclude_min=True, exclude_max=True),
    u_q=st.floats(0.0, 1.0),
    u_sigma=st.floats(0.0, 1.0),
)
def test_bound_dominates_oracle_fractional_orders(alpha, u_q, u_sigma):
    assume(not alpha.is_integer())
    # down to calibration's smallest sigma, where the power series in q was
    # loosest
    q = _log_uniform(1e-3, 0.99, u_q)
    sigma = _log_uniform(0.3, 8.0, u_sigma)
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert r.bound >= renyi_divergence_quadrature(alpha, q, sigma)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(
    alpha=st.floats(1.0, 32.0, exclude_min=True),
    at_300=st.integers(0, 4),
    u_q=st.floats(0.0, 1.0),
    u_sigma=st.floats(0.0, 1.0),
)
def test_split_series_brackets_the_quadrature_moment(alpha, at_300, u_q, u_sigma):
    # the moment lies within leading_sum +- remainder (leading_sum is the
    # certified lower end), and the bound is never below the oracle; about
    # one case in five is at order 300.5
    alpha = 300.5 if at_300 == 0 else alpha
    assume(not alpha.is_integer())
    q = _log_uniform(1e-6, 0.9, u_q)
    sigma = _log_uniform(0.3, 64.0, u_sigma)
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert r.path == "split"
    moment, _ = divergence._mixture_power_integral_mpf(alpha, q, sigma)
    with mp.workdps(40):
        if math.isfinite(r.leading_sum):
            low = mp.mpf(r.leading_sum) - mp.mpf(r.remainder)
            high = mp.mpf(r.leading_sum) + mp.mpf(r.remainder)
            assert low <= moment <= high
        assert mp.mpf(r.bound) >= mp.log(moment) / (alpha - 1)


@pytest.mark.parametrize(
    "alpha, q, sigma, known",
    [(1.25, 0.01, 0.5, 0.1103604), (2.5, 0.5, 1.0, 3.8494872), (300.5, 0.01, 0.5, 2399.38)],
)
def test_split_series_named_points(alpha, q, sigma, known):
    # the power series in q gave 829 and 52.2 at the first two; at the third
    # its moments were past the cap, and composition took 2 alpha / sigma^2
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert r.bound == pytest.approx(known, rel=5e-7)
    assert r.bound >= renyi_divergence_quadrature(alpha, q, sigma)
    assert r.bound < 2 * alpha / sigma**2


def test_split_series_error_bound_holds_where_float_loses_the_excess():
    # the moment is ~1 + 4e-7: the float64 sum of terms near 1 loses digits of
    # the excess, and the stated error bound must cover them
    alpha, q, sigma = 1.5, 0.01, 20.0
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    moment, _ = divergence._mixture_power_integral_mpf(alpha, q, sigma)
    with mp.workdps(40):
        assert mp.mpf(r.leading_sum) - mp.mpf(r.remainder) <= moment
        assert moment <= mp.mpf(r.leading_sum) + mp.mpf(r.remainder)
        assert mp.mpf(r.bound) >= mp.log(moment) / (alpha - 1)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    alpha=st.floats(1.0, 12.0, exclude_min=True),
    u_q=st.floats(0.0, 1.0),
    u_sigma=st.floats(0.0, 1.0),
)
def test_split_series_float64_is_within_its_error_bound(alpha, u_q, u_sigma):
    # the same terms at 40 digits lie inside [leading_sum, leading_sum +
    # remainder]: the float64 evaluation's error is covered, and the error
    # bound adds at most 2^-20 of the moment
    assume(not alpha.is_integer())
    q = _log_uniform(1e-6, 0.9, u_q)
    sigma = _log_uniform(0.3, 64.0, u_sigma)
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assume(math.isfinite(r.leading_sum))
    lower, upper = reference.split_series_bracket(alpha, q, sigma, r.m // 2 - 1)
    with mp.workdps(40):
        assert mp.mpf(r.leading_sum) <= lower
        assert upper <= mp.mpf(r.leading_sum) + mp.mpf(r.remainder)
        assert r.remainder - (upper - lower) <= 2.0**-20 * upper


def test_erfc_is_within_its_assumed_error():
    # the split series' error bound assumes math.erfc within _ERFC_ULPS ulps;
    # ``_log_erfc`` takes the asymptotic series from _ERFC_ASYMPTOTIC on
    with mp.workdps(40):
        for i in range(-60, 261):
            a = i / 10 + 0.0123
            value = math.erfc(a)
            assert abs(mp.mpf(value) - mp.erfc(a)) <= _float64._ERFC_ULPS * math.ulp(value)
        for a in (26.0, 26.5, 40.0, 1e3, 1e8):
            exact = mp.log(mp.erfc(a))
            assert abs(_float64._log_erfc(a) - exact) <= (7 * abs(exact) + 10) * U


# --- binned lower bound -------------------------------------------------------

# the fractional orders of the default grid and of the calibration tests' grids,
# and two near 1
FRACTIONAL_ORDERS = sorted({a for a in DEFAULT_ALPHAS if not a.is_integer()}
                           | {1.01, 1.1, 3.5, 7.25, 300.5})


def _stated_binned_gap(alpha, sigma, exact):
    """The most ``_float64._binned_lower_bound`` may lie below the binned
    divergence, as its docstring states it, given that divergence."""
    x = alpha / (sigma * math.sqrt(0.5)) + 3 * math.sqrt(0.5)
    tau = (10 + 2 * x * (2 * x + math.sqrt(2))) * U * (1 + 2.0**-20)
    p = _float64._LIBM_ULPS
    eta = 2 * (2 * alpha - 1) * 3001 * tau + (12 * alpha + 4 * p + 4) * U
    return (eta / (alpha - 1) + (4 * p + 4) * U * exact) * (1 + 2.0**-20)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(alpha=st.sampled_from(FRACTIONAL_ORDERS),
       u_q=st.floats(0.0, 1.0), u_sigma=st.floats(0.0, 1.0))
def test_binned_lower_bound_is_below_the_step_bound(alpha, u_q, u_sigma):
    # below the bound composition takes at the order, 2 alpha / sigma^2 where
    # the split series has no bound of its own
    q = _log_uniform(1e-6, 0.95, u_q)
    sigma = _log_uniform(0.3, 1000.0, u_sigma)
    lower = _float64._binned_lower_bound(alpha, q, sigma)
    assert 0.0 <= lower <= accountant._cached_step_bound(alpha, q, sigma)


def test_binned_lower_bound_is_below_the_quadrature_oracle():
    for alpha, q, sigma in [(1.75, 0.2, 1.05), (2.5, 0.05, 0.5), (1.25, 0.9, 3.0)]:
        lower = _float64._binned_lower_bound(alpha, q, sigma)
        assert 0.0 < lower <= renyi_divergence_quadrature(alpha, q, sigma)


def test_binned_lower_bound_keeps_the_largest_term_when_the_sum_overflows(monkeypatch):
    def overflow(terms):
        raise OverflowError("fsum overflow")

    # at (2.5, 0.2, 0.5) the largest term alone exceeds 1
    exact, _ = reference.binned_divergence(2.5, 0.2, 0.5)
    summed = _float64._binned_lower_bound(2.5, 0.2, 0.5)
    monkeypatch.setattr(math, "fsum", overflow)
    lower = _float64._binned_lower_bound(2.5, 0.2, 0.5)
    assert 0.0 < lower < summed and lower <= exact


def test_binned_lower_bound_keeps_a_term_whose_power_overflows():
    # at (7.25, 0.0055, 0.426) the terms that carry D_b have (p/r)^(alpha-1)
    # past float range, and p times it in range: they are taken through exp
    exact, smallest_mass = reference.binned_divergence(7.25, 0.0055, 0.426)
    lower = _float64._binned_lower_bound(7.25, 0.0055, 0.426)
    assert smallest_mass >= mp.mpf(2) ** -1000
    with mp.workdps(30):
        assert 0.0 < lower <= exact
        stated = (_stated_binned_gap(7.25, 0.426, float(exact))
                  + (7.25 + 4200 * _float64._LIBM_ULPS + 2120) * U / 6.25 * (1 + 2.0**-20))
        assert exact - lower <= stated


def test_binned_lower_bound_drops_a_term_past_float_range(monkeypatch):
    # at (25.5, 0.9, 1.3193346953272203) four terms have p (p/r)^(alpha-1)
    # past float range even through exp of its log: each is dropped, which
    # only lowers the sum, and the bound stays below D_b and the step bound
    alpha, q, sigma = 25.5, 0.9, 1.3193346953272203
    overflowed = []
    exp = math.exp

    def recording_exp(x):
        try:
            return exp(x)
        except OverflowError:
            overflowed.append(x)
            raise

    monkeypatch.setattr(math, "exp", recording_exp)
    lower = _float64._binned_lower_bound(alpha, q, sigma)
    monkeypatch.undo()
    assert overflowed
    exact, _ = reference.binned_divergence(alpha, q, sigma)
    bound = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma)).bound
    assert 0.0 < lower <= exact <= bound  # 28.968, 29.120, 29.190


@settings(derandomize=True, max_examples=80, deadline=None)
@given(alpha=st.sampled_from([a for a in FRACTIONAL_ORDERS if a <= 3.5]),
       u_q=st.floats(0.0, 1.0), u_sigma=st.floats(0.0, 1.0))
def test_binned_lower_bound_is_within_its_error_bound(alpha, u_q, u_sigma):
    # the same binned sum at 30 digits lies above the float64 bound, by no
    # more than the stated error where no bin's mass is below 2^-1000
    q = _log_uniform(1e-6, 0.95, u_q)
    sigma = _log_uniform(0.3, 64.0, u_sigma)
    exact, smallest_mass = reference.binned_divergence(alpha, q, sigma)
    assume(smallest_mass >= mp.mpf(2) ** -1000)
    lower = _float64._binned_lower_bound(alpha, q, sigma)
    with mp.workdps(30):
        assert lower <= exact
        assert exact - lower <= _stated_binned_gap(alpha, sigma, float(exact))


def test_bound_dominates_oracle_spot_points():
    for alpha, q, sigma in [(8.0, 0.02, 3.0), (1.5, 0.2, 1.0), (16.0, 0.05, 2.0)]:
        r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
        o = renyi_divergence_quadrature(alpha, q, sigma)
        assert r.bound >= o
        lhs = mp.e ** ((alpha - 1) * mp.mpf(r.bound)) - mp.e ** ((alpha - 1) * mp.mpf(o))
        assert lhs <= r.remainder + 1e-9


# --- concurrency ------------------------------------------------------------


def test_concurrent_calls_match_serial():
    # all operations are pure; the extended-precision context is guarded by
    # a lock, so hammering from threads must not change any result
    jobs = [
        (1.0 + 0.37 * i, 0.001 + 0.009 * (i % 7), 1.0 + 0.61 * (i % 5))
        for i in range(1, 25)
    ]
    serial = [renyi_step_bound(a, MechanismParams(q, s)).bound for a, q, s in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(
            pool.map(lambda j: renyi_step_bound(j[0], MechanismParams(j[1], j[2])).bound, jobs)
        )
    assert threaded == serial
