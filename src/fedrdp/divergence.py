"""One-step Renyi divergence bounds for fixed-size subsampled Gaussian noise.

Everything in this module is about the pair of one-dimensional distributions

    P = q * N(1, s^2) + (1 - q) * N(0, s^2)        Q = N(0, s^2)

with s = sigma / 2.  Callers always pass the noise multiplier sigma; the
variance convention s = sigma/2 is applied internally and never exposed.
``renyi_step_bound`` evaluates a closed-form upper bound on D_alpha(P || Q).
At integer orders it is the exact binomial closed form of Mironov, Talwar &
Zhang, "Renyi Differential Privacy of the Sampled Gaussian Mechanism"
(arXiv:1908.10530), with sigma -> sigma/2; at fractional orders it is a
truncated power series in q plus an explicit remainder bound.
``renyi_divergence_quadrature`` evaluates the same divergence by numerical
integration so the routes can be checked against each other.

All functions are pure.  Extended-precision arithmetic (mpmath) is used
internally because the series moments alternate in sign and cancel
catastrophically in double precision; a module lock serialises access to the
mpmath context, so concurrent callers are safe (just not parallel).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from math import ceil, comb, factorial

from mpmath import mp, mpf

__all__ = [
    "MechanismParams",
    "BoundResult",
    "QuadratureError",
    "BoundBreakdownError",
    "MOMENT_EXPONENT_CAP",
    "likelihood_ratio_moment",
    "abs_moment_bound",
    "taylor_remainder_bound",
    "renyi_step_bound",
    "renyi_divergence_quadrature",
]

# Largest exponent 2k(k-1)/sigma^2 accepted when building moments.  Above
# this the series bound is astronomically loose anyway, so callers treat the
# order as unavailable instead of grinding through gigantic numbers.
MOMENT_EXPONENT_CAP = 3000.0

_BASE_DPS = 50

# mpmath's precision state is process-global; serialise all use of it.
_MP_LOCK = threading.RLock()

_moment_cache: dict[tuple[float, int], tuple[mpf, float]] = {}


class QuadratureError(ArithmeticError):
    """Numerical integration did not reach the requested tolerance."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class BoundBreakdownError(ArithmeticError):
    """The series bound degenerated (log of a non-positive total)."""


def _check_positive_sigma(sigma: float) -> None:
    if not (isinstance(sigma, (int, float)) and math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be a positive finite real, got {sigma!r}")


def _check_alpha(alpha: float) -> None:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"alpha must be a finite real > 1, got {alpha!r}")


def _moment_exponent(sigma: float, k: int) -> float:
    return 2.0 * k * (k - 1) / (sigma * sigma)


def _moment_mpf(sigma: float, k: int, dps: int = _BASE_DPS) -> mpf:
    """E[(L-1)^k] as mpf, accurate to ~dps significant digits.

    The alternating binomial sum loses digits to cancellation; the working
    precision is escalated until the result keeps `dps` good digits.
    """
    if _moment_exponent(sigma, k) > MOMENT_EXPONENT_CAP:
        raise OverflowError(
            f"moment exponent 2k(k-1)/sigma^2 = {_moment_exponent(sigma, k):.3g} "
            f"exceeds cap {MOMENT_EXPONENT_CAP:.0f} (k={k}, sigma={sigma}); "
            "reduce the order or increase sigma"
        )
    key = (float(sigma), k)
    with _MP_LOCK:
        hit = _moment_cache.get(key)
        if hit is not None and hit[1] >= dps:
            return hit[0]
        work = dps + 15
        while True:
            with mp.workdps(work):
                inv = mpf(2) / (mpf(sigma) ** 2)
                total = mpf(0)
                absmass = mpf(0)
                c = 1  # binomial C(k, l), updated incrementally
                for l in range(k + 1):
                    term = mpf(c) * mp.exp(inv * (l * (l - 1)))
                    absmass += term
                    if (k - l) % 2:
                        term = -term
                    total += term
                    c = c * (k - l) // (l + 1)
                if total == 0:
                    good = float("inf")
                    break
                cancel = float(mp.log10(absmass / abs(total)))
                good = work - max(cancel, 0.0)
                if good >= dps:
                    break
            work = int(dps + max(cancel, 0.0) + 15)
        _moment_cache[key] = (total, good)
        return total


def _abs_moment_mpf(sigma: float, j: int, dps: int = _BASE_DPS) -> mpf:
    if j % 2 == 0:
        return _moment_mpf(sigma, j, dps)
    with _MP_LOCK, mp.workdps(dps):
        return mp.sqrt(_moment_mpf(sigma, j - 1, dps) * _moment_mpf(sigma, j + 1, dps))


def likelihood_ratio_moment(sigma: float, k: int) -> float:
    """k-th central moment E[(L - 1)^k] of the Gaussian likelihood ratio.

    L(theta) = N(1, s^2)(theta) / N(0, s^2)(theta) evaluated at
    theta ~ N(0, s^2), s = sigma/2.  Closed form: the alternating binomial
    sum of the raw moments E[L^l] = exp(2 l (l-1) / sigma^2).

    Args:
        sigma: noise multiplier, > 0.
        k: moment order, integer >= 2.

    Returns:
        The moment as a float.

    Raises:
        ValueError: on a bad domain.
        OverflowError: if the value (or an intermediate term) exceeds float
            range; reduce k or increase sigma.
    """
    _check_positive_sigma(sigma)
    if not (isinstance(k, int) and k >= 2):
        raise ValueError(f"k must be an integer >= 2, got {k!r}")
    value = float(_moment_mpf(sigma, k))
    if math.isinf(value):
        raise OverflowError(
            f"moment (sigma={sigma}, k={k}) exceeds float range; "
            "reduce the order or increase sigma"
        )
    return value


def abs_moment_bound(sigma: float, j: int) -> float:
    """Upper bound on E[|L - 1|^j].

    Even j: the moment itself (it is nonnegative).  Odd j: the
    Cauchy-Schwarz interpolation sqrt(M_{j-1} * M_{j+1}) of the two
    neighbouring even moments.

    Raises ValueError for j < 2, OverflowError past float range.
    """
    _check_positive_sigma(sigma)
    if not (isinstance(j, int) and j >= 2):
        raise ValueError(f"j must be an integer >= 2, got {j!r}")
    value = float(_abs_moment_mpf(sigma, j))
    if math.isinf(value):
        raise OverflowError(
            f"moment bound (sigma={sigma}, j={j}) exceeds float range"
        )
    return value


def _falling_factorial_abs_mpf(alpha: mpf, m: int) -> mpf:
    prod = mpf(1)
    for j in range(m):
        prod *= abs(alpha - j)
    return prod


def _remainder_mpf(alpha: float, sigma: float, m: int, q: float, dps: int = _BASE_DPS) -> mpf:
    """Closed-form bound on the magnitude of the degree-m series tail."""
    with _MP_LOCK, mp.workdps(dps):
        al = mpf(alpha)
        qq = mpf(q)
        prod = _falling_factorial_abs_mpf(al, m)
        if prod == 0:
            # alpha is an integer < m: the series terminates, tail is zero.
            return mpf(0)
        if alpha - m > 0:
            top = ceil(alpha)
            tail = mpf(0)
            qpow = mpf(1)
            for l in range(top - m + 1):
                coef = mpf(factorial(top - m)) / (
                    mpf(factorial(top - m - l)) * mpf(factorial(m + l))
                )
                tail += qpow * coef * _abs_moment_mpf(sigma, m + l, dps)
                qpow *= qq
            tail += _abs_moment_mpf(sigma, m, dps) / mpf(factorial(m))
            return qq ** m * prod * tail
        return (
            (qq ** m / mpf(factorial(m)))
            * (1 - qq) ** (al - m)
            * prod
            * _abs_moment_mpf(sigma, m, dps)
        )


def taylor_remainder_bound(alpha: float, sigma: float, m: int, q: float) -> float:
    """Bound on the tail left after truncating the series at order m.

    Two regimes: for alpha > m the tail is controlled through the moments up
    to order ceil(alpha) + 1; for alpha <= m a single moment of order m (or
    its odd-order interpolation) suffices, weighted by (1-q)^(alpha-m).

    Args:
        alpha: Renyi order, > 1.
        sigma: noise multiplier, > 0.
        m: truncation order, integer >= 3.
        q: sampling fraction in [0, 1); the q = 1 endpoint is rejected
            because the (1-q)^(alpha-m) weight degenerates there.

    Raises:
        ValueError, OverflowError (propagated from the moment computation or
        when the value exceeds float range).
    """
    _check_alpha(alpha)
    _check_positive_sigma(sigma)
    if not (isinstance(m, int) and m >= 3):
        raise ValueError(f"m must be an integer >= 3, got {m!r}")
    if not (isinstance(q, (int, float)) and 0 <= q < 1):
        raise ValueError(f"q must lie in [0, 1), got {q!r}")
    value = float(_remainder_mpf(alpha, sigma, m, q))
    if math.isinf(value):
        raise OverflowError("remainder bound exceeds float range")
    return value


def _leading_sum_mpf(alpha: float, q: float, sigma: float, m: int, dps: int = _BASE_DPS) -> mpf:
    """1 + sum_{k=2}^{m-1} (q^k / k!) (alpha)_k E[(L-1)^k], signed arithmetic."""
    with _MP_LOCK, mp.workdps(dps):
        al = mpf(alpha)
        qq = mpf(q)
        total = mpf(1)
        ff = al * (al - 1)  # falling factorial alpha(alpha-1)...(alpha-k+1)
        qpow = qq * qq
        for k in range(2, m):
            total += (qpow / mpf(factorial(k))) * ff * _moment_mpf(sigma, k, dps)
            ff *= al - k
            qpow *= qq
        return total


def _integer_moment_excess_mpf(n: int, q: float, sigma: float, dps: int = _BASE_DPS) -> mpf:
    """E_Q[(P/Q)^n] - 1 for integer n >= 2, exactly: the binomial closed form.

    Expanding ((1-q) + q L)^n binomially and using E[L^l] = e^{2l(l-1)/sigma^2}
    gives sum_{l=2}^{n} C(n,l) q^l (1-q)^{n-l} expm1(2l(l-1)/sigma^2), since
    the binomial weights sum to 1 and the l = 0, 1 exponents vanish.  Every
    term is nonnegative, so nothing cancels, and returning the excess over 1
    (for log1p) keeps tiny divergences exact.

    The weights and the exponentials are both carried forward by
    multiplication, O(n) work with no exp per term: e_l = e^{inv l(l-1)}
    steps as e_{l+1} = e_l r_l with r_l = e^{2 inv l}, r_{l+1} = r_l e^{2 inv}.
    Where e_l > 2, e_l - 1 loses at most one bit; below that, expm1 is
    called, so small exponents (every term at large sigma) stay exact.  The
    sum runs at dps + 10 digits and is rounded to dps.
    """
    with _MP_LOCK:
        with mp.workdps(dps + 10):
            qq = mpf(q)
            inv = mpf(2) / (mpf(sigma) ** 2)
            ratio = qq / (1 - qq)
            weight = (1 - qq) ** n * n * ratio  # C(n,1) q (1-q)^(n-1)
            growth = mp.exp(2 * inv)
            e, r = growth, growth * growth  # e_2, r_2
            excess = mpf(0)
            for l in range(2, n + 1):
                weight *= ratio * (n - l + 1) / l
                excess += weight * (e - 1 if e > 2 else mp.expm1(inv * (l * (l - 1))))
                e *= r
                r *= growth
        with mp.workdps(dps):
            return +excess


def _orders_needed(alpha: float, m: int) -> int:
    """Highest moment order touched by the remainder at truncation m."""
    if alpha - m > 0:
        top = ceil(alpha)
        return top + 1 if top % 2 else top  # odd top order interpolates to top+1
    return m + 1 if m % 2 else m


def _order_available(alpha: float, sigma: float, m: int, max_moment_order: int | None) -> bool:
    need = _orders_needed(alpha, m)
    if max_moment_order is not None and need > max_moment_order:
        return False
    return _moment_exponent(sigma, need) <= MOMENT_EXPONENT_CAP


@dataclass(frozen=True)
class MechanismParams:
    """One mechanism step: sampling fraction q, noise multiplier sigma.

    m is the series truncation order; leave it None to have
    ``renyi_step_bound`` pick one adaptively.
    """

    q: float
    sigma: float
    m: int | None = None

    def __post_init__(self):
        if not (isinstance(self.q, (int, float)) and 0 <= self.q <= 1):
            raise ValueError(f"q must lie in [0, 1], got {self.q!r}")
        _check_positive_sigma(self.sigma)
        if self.m is not None and not (isinstance(self.m, int) and self.m >= 3):
            raise ValueError(f"m must be None or an integer >= 3, got {self.m!r}")


@dataclass(frozen=True)
class BoundResult:
    """Output of renyi_step_bound.

    bound = log(leading_sum + remainder) / (alpha - 1).  leading_sum and
    remainder are reported as floats and may round to inf at extreme
    parameters even when the bound itself is a moderate number; the bound is
    always computed from the extended-precision values.
    """

    bound: float
    leading_sum: float
    remainder: float
    m: int

    def __post_init__(self):
        if self.remainder < 0:
            raise ValueError("remainder must be nonnegative")


def _taylor_state(alpha: float, q: float, sigma: float, m: int, dps: int = _BASE_DPS):
    """(leading sum, remainder bound) at truncation order m, as mpf."""
    S = _leading_sum_mpf(alpha, q, sigma, m, dps)
    R = _remainder_mpf(alpha, sigma, m, q, dps)
    return S, R


def _select_truncation(
    alpha: float,
    q: float,
    sigma: float,
    max_moment_order: int | None,
    dps: int = _BASE_DPS,
):
    """Walk m upward per the stopping rule; return (m, S, R).

    Stop as soon as the remainder drops below
    max(1e-12, 1e-6 * (leading_sum - 1)), or at m = ceil(alpha) + 4, or when
    the next order's moments are unavailable (exponent cap / order cap).
    The caller has checked that m = 3 is available.
    """
    cap = ceil(alpha) + 4
    m = 3
    while True:
        if not _order_available(alpha, sigma, m, max_moment_order):
            break
        S, R = _taylor_state(alpha, q, sigma, m, dps)
        state = (m, S, R)
        with _MP_LOCK, mp.workdps(dps):
            threshold = max(mpf("1e-12"), mpf("1e-6") * (S - 1))
            done = R < threshold
        if done or m >= cap:
            break
        m += 1
    return state


def renyi_step_bound(
    alpha: float,
    params: MechanismParams,
    *,
    max_moment_order: int | None = None,
) -> BoundResult:
    """Closed-form upper bound on D_alpha(P || Q) for one mechanism step.

    P = q N(1, s^2) + (1-q) N(0, s^2), Q = N(0, s^2), s = sigma/2.  The bound
    is log(leading_sum + remainder) / (alpha - 1).

    With params.m None and integer alpha, leading_sum is the exact moment
    E_Q[(P/Q)^alpha] from the binomial closed form of Mironov, Talwar & Zhang
    (arXiv:1908.10530) with sigma -> sigma/2, remainder is 0 and m is
    alpha + 1 (the series ends there).  Otherwise leading_sum truncates the
    power series of the order-alpha moment of P/Q at params.m and remainder
    bounds the discarded tail; with params.m None the truncation is chosen
    adaptively (see ``_select_truncation``).

    max_moment_order optionally refuses moment orders above the given value,
    on top of the module-wide exponent cap; orders that would exceed either
    raise OverflowError when no valid truncation exists at all.  Both paths
    share that availability rule, so the same orders come out unavailable.

    Raises:
        ValueError: bad domain, including q = 1 (the series is an expansion
            around q = 0 and its remainder bound fails at the endpoint; use
            ``renyi_divergence_quadrature`` there).
        BoundBreakdownError: leading_sum + remainder <= 0 (raise m or work
            at a higher precision).
        OverflowError: no admissible truncation order.
    """
    _check_alpha(alpha)
    if not isinstance(params, MechanismParams):
        raise TypeError("params must be a MechanismParams")
    if params.q == 1:
        raise ValueError(
            "renyi_step_bound requires q < 1; q = 1 is a pure Gaussian shift, "
            "use renyi_divergence_quadrature"
        )
    if params.m is not None:
        m = params.m
        if not _order_available(alpha, params.sigma, m, max_moment_order):
            raise OverflowError(
                f"moments needed at m={m} exceed the exponent/order cap"
            )
        S, R = _taylor_state(alpha, params.q, params.sigma, m)
    else:
        if not _order_available(alpha, params.sigma, 3, max_moment_order):
            raise OverflowError(
                f"series bound unavailable at alpha={alpha}, sigma={params.sigma}: "
                "already the m=3 remainder needs moments past the cap"
            )
        if float(alpha).is_integer():
            excess = _integer_moment_excess_mpf(int(alpha), params.q, params.sigma)
            with _MP_LOCK, mp.workdps(_BASE_DPS):
                bound = float(mp.log1p(excess) / (mpf(alpha) - 1))
                moment = float(1 + excess)
            return BoundResult(bound=bound, leading_sum=moment, remainder=0.0, m=int(alpha) + 1)
        m, S, R = _select_truncation(alpha, params.q, params.sigma, max_moment_order)
    with _MP_LOCK, mp.workdps(_BASE_DPS):
        total = S + R
        if total <= 0:
            raise BoundBreakdownError(
                f"leading_sum + remainder = {float(total):.6g} <= 0 at m={m} "
                f"(alpha={alpha}, q={params.q}, sigma={params.sigma}); "
                "raise m or the working precision"
            )
        bound = float(mp.log(total) / (mpf(alpha) - 1))
    return BoundResult(bound=bound, leading_sum=float(S), remainder=float(R), m=m)


def _mixture_power_integral_mpf(
    alpha: float,
    q: float,
    sigma: float,
    dps: int = 40,
    maxdegree: int = 10,
):
    """Integral of (P/Q)^alpha dQ over a truncated domain, with error estimate.

    The integrand's right tail is a Gaussian centred at theta = alpha (the
    power tilts the mixture), so the domain runs 40 half-sigma standard
    deviations past the outermost of the centres {0, 1, alpha}; the mass
    beyond is below 1e-15 of the integral on both sides.
    """
    with _MP_LOCK, mp.workdps(dps):
        al = mpf(alpha)
        qq = mpf(q)
        s = mpf(sigma) / 2
        two_s2 = 2 * s * s
        lo = -20 * mpf(sigma)
        hi = max(mpf(1), al) + 20 * mpf(sigma)

        def integrand(t):
            ratio = (1 - qq) + qq * mp.exp((2 * t - 1) / two_s2)
            return ratio ** al * mp.npdf(t, 0, s)

        points = sorted({lo, mpf(0), mpf(1), min(max(al, mpf(1)), hi), hi})
        value, err = mp.quad(integrand, points, error=True, maxdegree=maxdegree)
        return value, err


def renyi_divergence_quadrature(alpha: float, q: float, sigma: float) -> float:
    """D_alpha(q N(1, s^2) + (1-q) N(0, s^2) || N(0, s^2)) by quadrature.

    Adaptive tanh-sinh integration of the order-alpha moment of P/Q at
    extended precision; the reference route against which the closed-form
    bound is validated.  q = 0 returns exactly 0.0 (identical distributions);
    q = 1 is allowed and reproduces the pure Gaussian shift value
    2 * alpha / sigma^2.

    Raises:
        ValueError: alpha <= 1, sigma <= 0, or q outside [0, 1].
        QuadratureError: the integral did not converge to an absolute
            tolerance of 1e-12 (relative 1e-18 for very large values); the
            achieved tolerance is attached.
    """
    _check_alpha(alpha)
    _check_positive_sigma(sigma)
    if not (isinstance(q, (int, float)) and 0 <= q <= 1):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    if q == 0:
        return 0.0
    value, err = _mixture_power_integral_mpf(alpha, q, sigma)
    with _MP_LOCK, mp.workdps(40):
        gate = max(mpf("1e-12"), abs(value) * mpf("1e-18"))
        if not err <= gate:
            raise QuadratureError(
                f"quadrature reached absolute tolerance {float(err):.3g} "
                f"(required {float(gate):.3g}) at alpha={alpha}, q={q}, sigma={sigma}",
                achieved_tolerance=float(err),
            )
        return float(mp.log(value) / (mpf(alpha) - 1))
