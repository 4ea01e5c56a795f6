"""One-step Renyi divergence bounds for fixed-size subsampled Gaussian noise.

Everything here is about the pair of one-dimensional distributions

    P = q * N(1, s^2) + (1 - q) * N(0, s^2)        Q = N(0, s^2)

with s = sigma / 2; callers pass the noise multiplier sigma.
``renyi_step_bound`` bounds D_alpha(P || Q) from the moment E_Q[(P/Q)^alpha]
by a route of Mironov, Talwar & Zhang, "Renyi Differential Privacy of the
Sampled Gaussian Mechanism" (arXiv:1908.10530), with sigma -> sigma/2: the
binomial closed form at integer orders, the split binomial series at
fractional ones (both in float64 in ``fedrdp._float64``, rounded up by a
stated error bound), or, given a truncation order m, the power series in q
with a remainder bound.
``renyi_divergence_quadrature`` evaluates the divergence by numerical
integration, so the routes can be checked against it.

All functions are pure.  The power series' moments alternate in sign and
cancel catastrophically in double precision, so the series and the
quadrature use mpmath; a module lock serialises access to its context, so
concurrent callers are safe (just not parallel).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, factorial

from mpmath import mp, mpf

from ._float64 import _U, _integer_log_moment, _moment_exponent, _split_log_moment

__all__ = [
    "MechanismParams",
    "BoundResult",
    "QuadratureError",
    "BoundBreakdownError",
    "MOMENT_EXPONENT_CAP",
    "likelihood_ratio_moment",
    "renyi_step_bound",
    "renyi_divergence_quadrature",
]

# Largest exponent 2k(k-1)/sigma^2 accepted when building the series'
# moments.  Above this the series bound is astronomically loose anyway, so
# the order has no series bound instead of grinding through gigantic numbers.
MOMENT_EXPONENT_CAP = 3000.0

_BASE_DPS = 50
_QUAD_DPS = 40
# Intervals of the scan of [0, alpha] that picks the quadrature oracle's scale.
_SCALE_SCAN_INTERVALS = 32

# Most moments (sigma, k) kept for reuse across bound evaluations; least
# recently used ones are dropped past it.
MOMENT_CACHE_SIZE = 1024

# mpmath's precision state is process-global; serialise all use of it.
_MP_LOCK = threading.RLock()

class QuadratureError(ArithmeticError):
    """Numerical integration did not reach the requested tolerance."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


class BoundBreakdownError(ArithmeticError):
    """The series bound degenerated (log of a non-positive total)."""


def _is_real(x) -> bool:
    """True for an int or a float; a bool is an int, but True is not 1.0."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_positive_sigma(sigma: float) -> None:
    if not (_is_real(sigma) and math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be a positive finite real, got {sigma!r}")


def _check_alpha(alpha: float) -> None:
    if not (_is_real(alpha) and math.isfinite(alpha) and alpha > 1):
        raise ValueError(f"alpha must be a finite real > 1, got {alpha!r}")


@lru_cache(maxsize=MOMENT_CACHE_SIZE)
def _moment_mpf(sigma: float, k: int) -> mpf:
    """E[(L-1)^k] as mpf, accurate to ~_BASE_DPS significant digits.

    The alternating binomial sum loses digits to cancellation; the working
    precision is escalated until the result keeps _BASE_DPS good digits.
    Memoised on (sigma, k), up to MOMENT_CACHE_SIZE entries.
    """
    if _moment_exponent(sigma, k) > MOMENT_EXPONENT_CAP:
        raise OverflowError(
            f"moment exponent 2k(k-1)/sigma^2 = {_moment_exponent(sigma, k):.3g} "
            f"exceeds cap {MOMENT_EXPONENT_CAP:.0f} (k={k}, sigma={sigma}); "
            "reduce the order or increase sigma"
        )
    work = _BASE_DPS + 15
    with _MP_LOCK:
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
                    return total
                cancel = max(float(mp.log10(absmass / abs(total))), 0.0)
            if work - cancel >= _BASE_DPS:
                return total
            work = int(_BASE_DPS + cancel + 15)


def _abs_moment_mpf(sigma: float, j: int) -> mpf:
    """Upper bound on E[|L-1|^j]: the moment itself at even j, and the
    Cauchy-Schwarz interpolation sqrt(M_{j-1} M_{j+1}) at odd j."""
    if j % 2 == 0:
        return _moment_mpf(sigma, j)
    with _MP_LOCK, mp.workdps(_BASE_DPS):
        return mp.sqrt(_moment_mpf(sigma, j - 1) * _moment_mpf(sigma, j + 1))


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


def _order_available(alpha: float, sigma: float, m: int) -> bool:
    """Whether every moment the remainder at truncation m touches is under the cap."""
    top = ceil(alpha) if alpha - m > 0 else m  # highest order touched
    need = top + 1 if top % 2 else top  # an odd order interpolates to the next
    return _moment_exponent(sigma, need) <= MOMENT_EXPONENT_CAP


def _series_mpf(alpha: float, q: float, sigma: float, m: int):
    """The power series of E_Q[(P/Q)^alpha] in q, truncated at order m: (S, R) as mpf.

    S = 1 + sum_{k=2}^{m-1} (q^k / k!) (alpha)_k E[(L-1)^k] is the leading
    sum, and R bounds the magnitude of the discarded tail.  Each step carries
    q^k and the signed falling factorial (alpha)_k forward, and |(alpha)_m| is
    the prod_{j<m} |alpha - j| that R needs (rounding is symmetric in sign,
    so the two agree bit for bit).  R has two regimes: for alpha > m the tail
    is controlled through the moments up to order ceil(alpha) + 1; for
    alpha <= m a single moment of order m (or its odd-order interpolation)
    suffices, weighted by (1-q)^(alpha-m).  The caller has checked that m is
    available.
    """
    top = ceil(alpha)
    with _MP_LOCK, mp.workdps(_BASE_DPS):
        al, qq = mpf(alpha), mpf(q)
        S, qpow, ff = mpf(1), qq * qq, al * (al - 1)  # q^k and (alpha)_k at k = 2
        for k in range(2, m):
            S += (qpow / mpf(factorial(k))) * ff * _moment_mpf(sigma, k)
            qpow *= qq
            ff *= al - k
        prod = abs(ff)
        if prod == 0:
            R = mpf(0)  # alpha is an integer < m: the series terminates
        elif alpha > m:
            tail = mpf(0)
            ql = mpf(1)
            for l in range(top - m + 1):
                coef = mpf(factorial(top - m)) / (
                    mpf(factorial(top - m - l)) * mpf(factorial(m + l))
                )
                tail += ql * coef * _abs_moment_mpf(sigma, m + l)
                ql *= qq
            tail += _abs_moment_mpf(sigma, m) / mpf(factorial(m))
            R = qq ** m * prod * tail
        else:
            R = (
                (qq ** m / mpf(factorial(m)))
                * (1 - qq) ** (al - m)
                * prod
                * _abs_moment_mpf(sigma, m)
            )
    return S, R


@dataclass(frozen=True)
class MechanismParams:
    """One mechanism step: sampling fraction q, noise multiplier sigma.

    m is the series truncation order; leave it None for the float64 paths of
    ``renyi_step_bound``.
    """

    q: float
    sigma: float
    m: int | None = None

    def __post_init__(self):
        if not (_is_real(self.q) and 0 <= self.q <= 1):
            raise ValueError(f"q must lie in [0, 1], got {self.q!r}")
        _check_positive_sigma(self.sigma)
        if self.m is not None and not (isinstance(self.m, int) and self.m >= 3):
            raise ValueError(f"m must be None or an integer >= 3, got {self.m!r}")


_BOUND_PATHS = ("closed_form", "split", "series")


@dataclass(frozen=True)
class BoundResult:
    """Output of renyi_step_bound.

    The order-alpha moment lies within leading_sum +- remainder.  On the
    series path bound is log(leading_sum + remainder) / (alpha - 1) rounded
    up; on the float64 paths it is a little under that (see
    ``renyi_step_bound``).  leading_sum and remainder may round to inf at
    extreme parameters even when the bound itself is a moderate number; the
    bound never goes through them.  NaN is rejected.

    path names the evaluation: "closed_form" (integer orders; m = alpha + 1,
    where the series ends), "split" (fractional orders; m is the number of
    terms summed, and leading_sum + remainder is the certified upper end) or
    "series" (an explicit truncation order m).
    """

    bound: float
    leading_sum: float
    remainder: float
    m: int
    path: str = "series"

    def __post_init__(self):
        if math.isnan(self.bound) or math.isnan(self.remainder):
            raise ValueError("bound and remainder must not be NaN")
        if self.remainder < 0:
            raise ValueError("remainder must be nonnegative")
        if self.path not in _BOUND_PATHS:
            raise ValueError(f"path must be one of {_BOUND_PATHS}, got {self.path!r}")


def renyi_step_bound(alpha: float, params: MechanismParams) -> BoundResult:
    """Upper bound on D_alpha(P || Q) for one mechanism step.

    P = q N(1, s^2) + (1-q) N(0, s^2), Q = N(0, s^2), s = sigma/2.

    With params.m None the log moment comes in float64 as y within err: from
    the closed form at integer alpha (``_integer_log_moment``), from the
    split series' certified upper end at fractional alpha
    (``_split_log_moment``).  bound is (y + err) / (alpha - 1) plus the
    division's rounding, one ulp up: never below the exact divergence D.  At
    integer orders it exceeds D by at most 2 Delta_max / (alpha - 1) + 6u D
    (u = 2^-53; ~1e-13 relative or less), and remainder, the exp-domain
    slack, is at most leading_sum (expm1(2 Delta_max + 6u y) + u).  At
    fractional orders leading_sum is the bracket's lower end and remainder
    its width plus that slack; the stopping rule keeps the width below
    max(1e-12, 1e-6 (M - 1)) for the moment M, unless the walk runs out of
    terms.

    With params.m set, leading_sum truncates the power series of the moment
    in q at order m (``_series_mpf``), remainder bounds the discarded tail,
    and bound is log(leading_sum + remainder) / (alpha - 1), one ulp up.

    Raises:
        ValueError: bad domain, including q = 1 (the series is an expansion
            around q = 0 and its remainder bound fails at the endpoint; use
            ``renyi_divergence_quadrature`` there).
        BoundBreakdownError: leading_sum + remainder <= 0 on the series path.
        OverflowError: a series truncation whose moments are past
            MOMENT_EXPONENT_CAP, or an order outside a float64 path's domain.
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
        return _series_bound(alpha, params)
    integer = float(alpha).is_integer()
    path = "closed_form" if integer else "split"
    if params.q == 0:  # P = Q
        return BoundResult(bound=0.0, leading_sum=1.0, remainder=0.0,
                           m=int(alpha) + 1 if integer else 1, path=path)
    if integer:
        y, err, moment = _integer_log_moment(int(alpha), params.q, params.sigma)
        m = int(alpha) + 1
    else:
        y, err, lower, spread, m = _split_log_moment(alpha, params.q, params.sigma)
    d = y / (alpha - 1)
    # d is within u d of y / (alpha-1), and log M within err of y; 2^-1070
    # covers the absolute error of a subnormal d
    slack = (err / (alpha - 1) + _U * d) * (1 + 2.0**-20) + 2.0**-1070
    bound = math.nextafter(d + slack, math.inf)
    # exp-domain slack: e^((alpha-1) bound) <= e^(y + err) e^gap, and e^(y + err)
    # bounds the moment (integer) or the upper end (split)
    gap = ((alpha - 1) * (bound - d) + _U * y + err) * (1 + 4 * _U)
    if integer:
        # the added u covers the rounding of leading_sum = 1 + E itself
        remainder = moment * (math.expm1(gap) + _U) * (1 + 8 * _U)
        return BoundResult(bound=bound, leading_sum=moment, remainder=remainder, m=m, path=path)
    # 8u covers the roundings of lower and spread
    remainder = (spread + (lower + spread) * (math.expm1(gap) + 8 * _U)) * (1 + 8 * _U)
    return BoundResult(bound=bound, leading_sum=lower, remainder=remainder, m=m, path=path)


def _series_bound(alpha: float, params: MechanismParams) -> BoundResult:
    """``renyi_step_bound`` on the series path, truncated at params.m."""
    if not _order_available(alpha, params.sigma, params.m):
        raise OverflowError(f"series bound unavailable at alpha={alpha}, sigma={params.sigma}: "
                            f"the m={params.m} remainder needs moments past the cap")
    S, R = _series_mpf(alpha, params.q, params.sigma, params.m)
    with _MP_LOCK, mp.workdps(_BASE_DPS):
        total = S + R
        if total <= 0:
            raise BoundBreakdownError(
                f"leading_sum + remainder = {float(total):.6g} <= 0 at m={params.m} "
                f"(alpha={alpha}, q={params.q}, sigma={params.sigma}); "
                "raise m or the working precision"
            )
        bound = float(mp.log(total) / (mpf(alpha) - 1))
    if params.q:  # float() rounded the 50-digit value to nearest; q = 0 gives exactly 0
        bound = math.nextafter(bound, math.inf)
    return BoundResult(bound=bound, leading_sum=float(S), remainder=float(R), m=params.m)


def _mixture_power_integral_mpf(alpha: float, q: float, sigma: float):
    """Integral of (P/Q)^alpha dQ over a truncated domain, with error estimate.

    The integrand's right tail is a Gaussian centred at theta = alpha (the
    power tilts the mixture), so the domain runs 40 half-sigma standard
    deviations past the outermost of the centres {0, 1, alpha}; the mass
    beyond is below 1e-15 of the integral on both sides.

    The integrand is scaled to O(1) before integrating.  mpmath stops
    refining a subinterval once its error estimate is below an *absolute*
    epsilon (~3e-42 at _QUAD_DPS); where the moment is large (~1e27 at
    alpha=4, q=0.5, sigma=0.6) that test never passes, and every subinterval
    would run to maxdegree.  So the log-integrand
        f(t) = alpha log((1-q) + q e^{(2t-1)/(2s^2)}) - t^2 / (2s^2)
    is shifted by its largest value K on a coarse scan of [0, alpha], exp(f - K)
    is integrated, and the value and the error estimate are both multiplied
    back by e^K / (s sqrt(2 pi)).  Both are returned on the unscaled
    integral's scale.  f' = (alpha w - t)/s^2 with w in (0, 1), so f peaks in
    [0, alpha], possibly inside it (near t = 42 at alpha=64, q=0.5,
    sigma=16); since f'' >= -1/s^2, the scan's K is within
    (alpha/64)^2 / (2 s^2) of the peak.  A K below the peak leaves the
    normalised integral large, which costs time, not accuracy.
    """
    with _MP_LOCK, mp.workdps(_QUAD_DPS):
        al = mpf(alpha)
        qq = mpf(q)
        s = mpf(sigma) / 2
        two_s2 = 2 * s * s
        lo = -20 * mpf(sigma)
        hi = max(mpf(1), al) + 20 * mpf(sigma)

        def log_integrand(t):
            return al * mp.log((1 - qq) + qq * mp.exp((2 * t - 1) / two_s2)) - t * t / two_s2

        n = _SCALE_SCAN_INTERVALS
        scale = max(log_integrand(al * i / n) for i in range(n + 1))
        points = sorted({lo, mpf(0), mpf(1), min(max(al, mpf(1)), hi), hi})
        value, err = mp.quad(
            lambda t: mp.exp(log_integrand(t) - scale), points, error=True, maxdegree=10
        )
        factor = mp.exp(scale) / (s * mp.sqrt(2 * mp.pi))
        return value * factor, err * factor


def renyi_divergence_quadrature(alpha: float, q: float, sigma: float) -> float:
    """D_alpha(q N(1, s^2) + (1-q) N(0, s^2) || N(0, s^2)) by quadrature.

    Adaptive tanh-sinh integration of the order-alpha moment of P/Q at
    extended precision; the reference route against which the closed-form
    bound is validated, and independent of it (no closed form is used).
    q = 0 returns exactly 0.0 (identical distributions); q = 1 is allowed and
    reproduces the pure Gaussian shift value 2 * alpha / sigma^2.

    The moment ranges over hundreds of orders of magnitude, while mpmath's
    stopping rule is an absolute error; the integrand is therefore scaled to
    O(1) before integrating and scaled back after (see
    ``_mixture_power_integral_mpf``), so refinement stops once the relative
    error is ~1e-40 instead of always running to the maximum degree.  The
    tolerance gate below sees the unscaled moment and error estimate.

    Raises:
        ValueError: alpha <= 1, sigma <= 0, or q outside [0, 1].
        QuadratureError: the moment's error estimate exceeds an absolute
            tolerance of 1e-12 (relative 1e-18 for moments above 1e6); the
            achieved tolerance is attached.
    """
    _check_alpha(alpha)
    _check_positive_sigma(sigma)
    if not (_is_real(q) and 0 <= q <= 1):
        raise ValueError(f"q must lie in [0, 1], got {q!r}")
    if q == 0:
        return 0.0
    value, err = _mixture_power_integral_mpf(alpha, q, sigma)
    with _MP_LOCK, mp.workdps(_QUAD_DPS):
        gate = max(mpf("1e-12"), abs(value) * mpf("1e-18"))
        if not err <= gate:
            raise QuadratureError(
                f"quadrature reached absolute tolerance {float(err):.3g} "
                f"(required {float(gate):.3g}) at alpha={alpha}, q={q}, sigma={sigma}",
                achieved_tolerance=float(err),
            )
        return float(mp.log(value) / (mpf(alpha) - 1))
