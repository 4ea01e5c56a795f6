"""Core divergence math: moments, remainder caps, step bound, quadrature."""

import math
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import pytest
from hypothesis import assume, given, settings, strategies as st

import reference
from fedrdp.accountant import (
    DEFAULT_ALPHAS,
    ParticipationLedger,
    StepParams,
    compose_client_rdp,
)
from fedrdp.divergence import (
    MOMENT_EXPONENT_CAP,
    BoundResult,
    MechanismParams,
    QuadratureError,
    abs_moment_bound,
    likelihood_ratio_moment,
    renyi_divergence_quadrature,
    renyi_step_bound,
    taylor_remainder_bound,
)


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


def test_abs_moment_even_branch_is_moment():
    assert abs_moment_bound(2.0, 2) == likelihood_ratio_moment(2.0, 2)
    assert abs_moment_bound(1.0, 4) == likelihood_ratio_moment(1.0, 4)


def test_abs_moment_odd_branch_geometric_mean():
    expect = math.sqrt(
        likelihood_ratio_moment(2.0, 2) * likelihood_ratio_moment(2.0, 4)
    )
    assert abs_moment_bound(2.0, 3) == pytest.approx(expect, rel=1e-13)


def test_abs_moment_odd_dominates_absolute_mc_value():
    # Cauchy-Schwarz cap must sit above |E[(L-1)^3]|
    est, se = reference.moment_mc_importance(2.0, 3, n_samples=10**6, seed=7)
    assert abs_moment_bound(2.0, 3) >= abs(est) - 3 * se


# --- remainder cap ---------------------------------------------------------


def test_remainder_zero_sampling_ratio():
    assert taylor_remainder_bound(2.5, 2.0, 3, 0.0) == 0.0


def test_remainder_integer_alpha_annihilates():
    # the product over |alpha - j| hits j = alpha exactly
    assert taylor_remainder_bound(3.0, 2.0, 4, 0.1) == 0.0
    assert taylor_remainder_bound(5.0, 1.0, 6, 0.2) == 0.0


def test_remainder_dominates_true_remainder_positive_branch():
    true_r = reference.true_taylor_remainder(10.0, 4.0, 5, 0.01)
    cap = taylor_remainder_bound(10.0, 4.0, 5, 0.01)
    assert cap >= abs(true_r) > 0


def test_remainder_dominates_true_remainder_negative_branch():
    true_r = reference.true_taylor_remainder(2.5, 2.0, 4, 0.1)
    cap = taylor_remainder_bound(2.5, 2.0, 4, 0.1)
    assert cap >= abs(true_r) > 0


def test_remainder_rejects_full_sampling():
    with pytest.raises(ValueError):
        taylor_remainder_bound(2.5, 2.0, 3, 1.0)


@given(
    alpha=st.floats(1.01, 20.0),
    sigma=st.floats(0.8, 16.0),
    m=st.integers(3, 8),
    q=st.floats(0.0, 0.95),
)
def test_remainder_never_negative(alpha, sigma, m, q):
    try:
        r = taylor_remainder_bound(alpha, sigma, m, q)
    except OverflowError:
        assume(False)
    assert r >= 0.0


# --- one-step bound ---------------------------------------------------------


def test_step_bound_zero_sampling_ratio():
    r = renyi_step_bound(4.0, MechanismParams(q=0.0, sigma=2.0, m=5))
    assert r.bound == 0.0
    assert r.leading_sum == 1.0
    assert r.remainder == 0.0


def test_step_bound_integer_two_closed_form():
    r = renyi_step_bound(2.0, MechanismParams(q=0.05, sigma=4.0))
    closed = reference.integer_alpha_divergence(2, 0.05, 4.0)
    assert closed == pytest.approx(7.098e-4, abs=1e-6)
    assert r.bound >= closed
    assert r.bound - closed <= r.remainder + 1e-12


def test_step_bound_reports_requested_truncation():
    r = renyi_step_bound(6.0, MechanismParams(q=0.02, sigma=3.0, m=5))
    assert r.m == 5


def test_step_bound_rejects_full_sampling():
    with pytest.raises(ValueError):
        renyi_step_bound(2.0, MechanismParams(q=1.0, sigma=2.0))


@pytest.mark.parametrize("alpha", [1.0, 0.5, math.inf, math.nan])
def test_step_bound_rejects_bad_order(alpha):
    with pytest.raises(ValueError):
        renyi_step_bound(alpha, MechanismParams(q=0.1, sigma=2.0))


def test_mechanism_params_validation():
    with pytest.raises(ValueError):
        MechanismParams(q=-0.1, sigma=2.0)
    with pytest.raises(ValueError):
        MechanismParams(q=1.5, sigma=2.0)
    with pytest.raises(ValueError):
        MechanismParams(q=0.1, sigma=0.0)
    with pytest.raises(ValueError):
        MechanismParams(q=0.1, sigma=2.0, m=2)


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


def _log_uniform(lo, hi, u):
    return lo * (hi / lo) ** u


@pytest.mark.parametrize("alpha", INTEGER_ALPHAS)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(u_sigma=st.floats(0.0, 1.0), u_q=st.floats(0.0, 1.0))
def test_step_bound_integer_order_is_exact_closed_form(alpha, u_sigma, u_q):
    # sigma log-uniform over [0.3, 64], starting where the m=3 remainder's
    # highest moment (order 4, or alpha rounded up to even) is under the cap
    need = max(4, int(alpha) + int(alpha) % 2)
    sigma_min = max(0.3, 1.000001 * math.sqrt(2 * need * (need - 1) / MOMENT_EXPONENT_CAP))
    sigma = _log_uniform(sigma_min, 64.0, u_sigma)
    q = _log_uniform(1e-6, 0.9, u_q)
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert r.remainder == 0.0
    assert r.m == int(alpha) + 1
    exact = reference.integer_alpha_divergence(int(alpha), q, sigma)
    assert r.bound == pytest.approx(exact, rel=1e-12)
    # the exact moment never exceeds a truncated series plus its remainder cap
    for m in (3, 5):
        try:
            series = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma, m=m))
        except OverflowError:
            continue
        assert r.bound <= math.nextafter(series.bound, math.inf)


def _check_integer_order_exact(alpha, q, sigma):
    r = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma))
    assert r.remainder == 0.0
    assert r.m == int(alpha) + 1
    assert r.bound == pytest.approx(reference.integer_alpha_divergence(int(alpha), q, sigma), rel=1e-12)
    # the m=3 series costs seconds per call above order 64 at large sigma
    # (moments at ~50 + k log10(sigma) digits), so it bounds orders <= 64 here
    if alpha <= 64:
        series = renyi_step_bound(alpha, MechanismParams(q=q, sigma=sigma, m=3))
        assert r.bound <= math.nextafter(series.bound, math.inf)


@pytest.mark.parametrize("alpha", INTEGER_ALPHAS)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(u_sigma=st.floats(0.0, 1.0), u_q=st.floats(0.0, 1.0))
def test_step_bound_integer_order_is_exact_at_large_sigma(alpha, u_sigma, u_q):
    # calibration doubles its upper bracket up to sigma = 1e6; from
    # sigma ~ sqrt(2 alpha (alpha - 1) / log 2) on, every term of the sum
    # has e^{2l(l-1)/sigma^2} <= 2 and goes through expm1
    _check_integer_order_exact(alpha, _log_uniform(1e-6, 0.9, u_q), _log_uniform(64.0, 1e6, u_sigma))


def _switch_cases():
    # e^{2l(l-1)/sigma^2} = 2 for term l at sigma = sqrt(2 l (l-1) / log 2);
    # l = 2 needs sigma ~ 2.4, where orders above ~90 are past the cap
    for alpha in INTEGER_ALPHAS:
        for l in sorted({2, int(alpha) // 2, int(alpha)} - {1}):
            sigma = math.sqrt(2 * l * (l - 1) / math.log(2))
            need = max(4, int(alpha) + int(alpha) % 2)
            if 2 * need * (need - 1) / sigma**2 <= MOMENT_EXPONENT_CAP:
                yield alpha, l, sigma


@pytest.mark.parametrize("alpha, l, sigma", list(_switch_cases()))
@pytest.mark.parametrize("side", [1 - 1e-6, 1 + 1e-6])
def test_step_bound_integer_order_exact_across_expm1_switch(alpha, l, sigma, side):
    # slightly below that sigma term l is summed as e - 1, slightly above
    # through expm1; terms after l are on the e - 1 side either way
    for q in (1e-4, 0.05, 0.6):
        _check_integer_order_exact(alpha, q, sigma * side)


def test_step_bound_unavailable_orders_unchanged():
    # exponent cap: the m=3 remainder at alpha=128 needs E[(L-1)^128]
    with pytest.raises(OverflowError):
        renyi_step_bound(128.0, MechanismParams(q=0.01, sigma=2.7))
    # order cap, as in calibration
    with pytest.raises(OverflowError):
        renyi_step_bound(512.0, MechanismParams(q=0.01, sigma=64.0), max_moment_order=300)
    r = renyi_step_bound(256.0, MechanismParams(q=0.01, sigma=64.0), max_moment_order=300)
    assert math.isfinite(r.bound) and r.bound > 0
    ledger = ParticipationLedger().record(0, 1, StepParams(q=0.004, sigma=1.0, clip=1.0, batch_size=1))
    curve = compose_client_rdp(ledger, 0)
    assert [a for a, v in curve.items() if math.isinf(v)] == [48.0, 64.0, 128.0, 256.0, 512.0, 1025.0]


# --- quadrature oracle ------------------------------------------------------


def test_oracle_identical_distributions():
    assert renyi_divergence_quadrature(3.0, 0.0, 1.0) == 0.0


def test_oracle_pure_gaussian_shift():
    # q=1 collapses to two unit-separated Gaussians: D = 2 alpha / sigma^2
    assert renyi_divergence_quadrature(3.0, 1.0, 2.0) == pytest.approx(1.5, rel=1e-12)
    assert renyi_divergence_quadrature(5.0, 1.0, 4.0) == pytest.approx(0.625, rel=1e-12)


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


def test_quadrature_error_reports_achieved_tolerance():
    err = QuadratureError("did not converge", achieved_tolerance=1e-7)
    assert err.achieved_tolerance == 1e-7


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
