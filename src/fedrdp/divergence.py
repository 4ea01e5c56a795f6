"""One-step Renyi divergence bounds for fixed-size subsampled Gaussian noise.

Everything in this module is about the pair of one-dimensional distributions

    P = q * N(1, s^2) + (1 - q) * N(0, s^2)        Q = N(0, s^2)

with s = sigma / 2.  Callers always pass the noise multiplier sigma; the
variance convention s = sigma/2 is applied internally and never exposed.
``renyi_step_bound`` evaluates a closed-form upper bound on D_alpha(P || Q).
At integer orders it is the binomial closed form of Mironov, Talwar & Zhang,
"Renyi Differential Privacy of the Sampled Gaussian Mechanism"
(arXiv:1908.10530), with sigma -> sigma/2, in float64 and rounded up by a
stated error bound; at fractional orders it is a truncated power series in q
plus an explicit remainder bound, built by one walk up the truncation order
that adds a term per step.  ``renyi_divergence_quadrature`` evaluates the
same divergence by numerical integration so the routes can be checked
against each other.

All functions are pure.  The integer closed form has only nonnegative terms,
so float64 evaluates it without cancellation.  The series moments alternate
in sign and cancel catastrophically in double precision, so the series and
the quadrature use extended-precision arithmetic (mpmath); a module lock
serialises access to the mpmath context, so concurrent callers are safe
(just not parallel).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, factorial

from mpmath import mp, mpf

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

# Unit roundoff of float64, and the error assumed of each libm call (exp,
# expm1, log, log1p, pow) in ulps; see ``_integer_log_moment``.
_U = 2.0**-53
_LIBM_ULPS = 2
# Above this x, expm1(x) is taken as e^(x - k ln 2) 2^k so it cannot overflow.
_EXP_SPLIT = 700.0
_LN2 = math.log(2.0)


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


def _moment_exponent(sigma: float, k: int) -> float:
    return 2.0 * k * (k - 1) / sigma / sigma  # inf, not ZeroDivisionError, if sigma^2 underflows


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


def _integer_log_moment(n: int, q: float, sigma: float) -> tuple[float, float, float]:
    """log E_Q[(P/Q)^n] in float64, for integer n >= 2 and 0 < q < 1: (y, err, moment).

    The moment is 1 + E, E = sum_{l=2}^{n} t_l, t_l = w_l expm1(x_l) with
    w_l = C(n,l) q^l (1-q)^(n-l) and x_l = 2l(l-1)/sigma^2 (the binomial
    expansion of ((1-q) + qL)^n with E[L^l] = e^{x_l}); no term is negative,
    so nothing cancels.  y is log1p(E) as computed, moment is 1 + E (inf past
    float range), and |y - log(1 + E)| <= err.

    Every quantity is a mantissa and a power of two (``math.frexp``): w_0 =
    (1-q)^n is pow() of (1-q)'s mantissa in chunks of 512, w_l is carried as
    w_{l-1} q/(1-q) (n-l+1)/l, expm1(x_l) is taken as x_l below 2^-60 and as
    e^{x_l - k ln 2} 2^k above 700 (larger by a relative e^-700), and the
    terms, shifted by the largest exponent, go through ``math.fsum``.

    Error bound.  u = 2^-53, and each libm exp, expm1, log, log1p and pow
    call is assumed within P = _LIBM_ULPS = 2 ulps (relative 2Pu), twice the
    1 ulp that the glibc manual's table "Known Maximum Errors in Math
    Functions" lists for them.  To first order t_l is within
    eps_l = (n + 3l + 4x_l + 2P + 4 + (2P+1) ceil(n/512)) u:
      - the weight within (n + 3l + (2P+1) ceil(n/512)) u: (n-l) u from
        rounding 1 - q, which enters as (1-q)^(n-l); l u from rounding
        q/(1-q); three roundings per carry step; (2P+1) u per pow chunk;
      - the factor within (2P + 2 + 4x_l) u: x_l is rounded twice (relative
        2u), which moves expm1 by at most (1 + x_l) 2u, and above 700 the
        split's k ln 2 adds at most 1.73 x_l u;
      - one rounding of the product, and one of the fsum.
    So E is within rho = sum_l t_l eps_l / E <= rho_max =
    (4n + 4x_n + 2P + 4 + (2P+1) ceil(n/512)) u, and the log adds
    (2P + 3) u y (log1p's error; or, past E = 2^1000, log of the mantissa
    plus k ln 2, and the dropped log1p(1/E) < 2^-1000).  Hence
        err = (rho E / (1 + E) + (2P + 3) u y) (1 + 2^-20) <= Delta_max,
    Delta_max being the same with rho_max.  The factor 1 + 2^-20 covers the
    second-order terms, err's own rounding and the terms lost to underflow
    in the shift (at most n 2^-1074 relative).  This is proven where
    rho_max <= 2^-21 (second-order terms at most 2^-21 rho), which holds n
    and x_n below ~2^30 and every order up to 1025 at sigma >= 0.3; outside
    it OverflowError is raised before any term is formed.
    """
    chunks = -(-n // 512)
    fixed = n + 2 * _LIBM_ULPS + 4 + (2 * _LIBM_ULPS + 1) * chunks  # rho's l-free part, / u
    if not (fixed + 3 * n + 4 * _moment_exponent(sigma, n)) * _U <= 2.0**-21:
        raise OverflowError(f"closed form outside its error bound's domain: n={n}, sigma={sigma}")
    c = 1.0 - q
    qm, qe = math.frexp(q)
    cm, ce = math.frexp(c)
    ratio = qm / c  # q / (1-q) = ratio 2^qe
    sm, se = math.frexp(sigma)
    s2 = sm * sm  # sigma^2 = s2 4^se
    wm, we = 1.0, ce * n  # w_0 = cm^n 2^(ce n)
    for done in range(0, n, 512):
        wm, e = math.frexp(wm * cm ** min(512, n - done))
        we += e
    mants, exps, eps = [], [], []  # eps: the l-dependent part of eps_l / u
    for l in range(1, n + 1):
        wm, e = math.frexp(wm * ratio * (n - l + 1) / l)
        we += e + qe
        if l == 1:
            continue
        xm = 2 * l * (l - 1) / s2  # x_l = xm 4^-se
        x = math.ldexp(xm, -2 * se)
        if x < 2.0**-60:
            fm, fe = math.frexp(xm)
            fe -= 2 * se
        elif x <= _EXP_SPLIT:
            fm, fe = math.frexp(math.expm1(x))
        else:
            k = int(x / _LN2)
            fm, fe = math.frexp(math.exp(x - k * _LN2))
            fe += k
        tm, te = math.frexp(wm * fm)
        mants.append(tm)
        exps.append(we + fe + te)
        eps.append(3 * l + 4 * x)
    top = max(exps)
    terms = [math.ldexp(t, e - top) for t, e in zip(mants, exps)]
    total = math.fsum(terms)  # >= 1/2: the largest term's mantissa
    weighted = math.fsum(t * w for t, w in zip(terms, eps)) / total
    rho = (fixed + weighted) * _U
    if top <= 1000:
        excess = math.ldexp(total, top)
        y = math.log1p(excess)
        err = rho * excess / (1.0 + excess)
        moment = 1.0 + excess
    else:
        y = math.log(total) + top * _LN2
        err = rho
        try:
            moment = math.ldexp(total, top)
        except OverflowError:
            moment = math.inf
    err = (err + (2 * _LIBM_ULPS + 3) * _U * y) * (1 + 2.0**-20)
    return y, err, moment


def _order_available(alpha: float, sigma: float, m: int) -> bool:
    """Whether every moment the remainder at truncation m touches is under the cap."""
    top = ceil(alpha) if alpha - m > 0 else m  # highest order touched
    need = top + 1 if top % 2 else top  # an odd order interpolates to the next
    return _moment_exponent(sigma, need) <= MOMENT_EXPONENT_CAP


def _series_mpf(alpha: float, q: float, sigma: float, m_stop: int | None):
    """The power series of E_Q[(P/Q)^alpha] in q, truncated: (m, S, R) as mpf.

    S = 1 + sum_{k=2}^{m-1} (q^k / k!) (alpha)_k E[(L-1)^k] is the leading
    sum at truncation order m, and R bounds the magnitude of the discarded
    tail.  m walks up from 3; each step adds one term to S and carries q^k
    and the signed falling factorial (alpha)_k forward, and |(alpha)_m| is
    the prod_{j<m} |alpha - j| that R needs (rounding is symmetric in sign,
    so the two agree bit for bit).  R has two regimes: for alpha > m the
    tail is controlled through the moments up to order ceil(alpha) + 1; for
    alpha <= m a single moment of order m (or its odd-order interpolation)
    suffices, weighted by (1-q)^(alpha-m).

    With m_stop the walk ends there, and R is formed only there.  Otherwise
    it stops as soon as R < max(1e-12, 1e-6 * (S - 1)), or at
    m = ceil(alpha) + 4, or before an m whose moments are past the exponent
    cap.  The caller has checked that the first m (3, or m_stop) is
    available.
    """
    top = ceil(alpha)
    with _MP_LOCK, mp.workdps(_BASE_DPS):
        al, qq = mpf(alpha), mpf(q)
        S, qpow, ff = mpf(1), qq * qq, al * (al - 1)  # q^m and (alpha)_m at m = 2
        floor, rel = mpf("1e-12"), mpf("1e-6")
        for m in range(3, (m_stop or top + 4) + 1):
            if m_stop is None and not _order_available(alpha, sigma, m):
                break
            S += (qpow / mpf(factorial(m - 1))) * ff * _moment_mpf(sigma, m - 1)
            qpow *= qq
            ff *= al - (m - 1)
            if m_stop is not None and m < m_stop:
                continue
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
            found = (m, S, R)
            if R < max(floor, rel * (S - 1)):
                break
    return found


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
        if not (_is_real(self.q) and 0 <= self.q <= 1):
            raise ValueError(f"q must lie in [0, 1], got {self.q!r}")
        _check_positive_sigma(self.sigma)
        if self.m is not None and not (isinstance(self.m, int) and self.m >= 3):
            raise ValueError(f"m must be None or an integer >= 3, got {self.m!r}")


@dataclass(frozen=True)
class BoundResult:
    """Output of renyi_step_bound.

    The order-alpha moment lies within leading_sum +- remainder.  On the
    series path bound is log(leading_sum + remainder) / (alpha - 1) rounded
    up; at integer orders the bound is a little under that (see
    ``renyi_step_bound``).  leading_sum and remainder may round to inf at
    extreme parameters even when the bound itself is a moderate number; the
    bound never goes through them.  NaN is rejected.
    """

    bound: float
    leading_sum: float
    remainder: float
    m: int

    def __post_init__(self):
        if math.isnan(self.bound) or math.isnan(self.remainder):
            raise ValueError("bound and remainder must not be NaN")
        if self.remainder < 0:
            raise ValueError("remainder must be nonnegative")


def renyi_step_bound(alpha: float, params: MechanismParams) -> BoundResult:
    """Closed-form upper bound on D_alpha(P || Q) for one mechanism step.

    P = q N(1, s^2) + (1-q) N(0, s^2), Q = N(0, s^2), s = sigma/2.

    With params.m None and integer alpha, the moment comes from the binomial
    closed form of Mironov, Talwar & Zhang (arXiv:1908.10530) with
    sigma -> sigma/2, as its log y within err (``_integer_log_moment``).
    bound is (y + err) / (alpha - 1) plus the division's rounding, then one
    ulp up (``math.nextafter``): never below the exact divergence D, and above
    it by at most 2 Delta_max / (alpha - 1) + 6u D (u = 2^-53; ~1e-13
    relative or less).  leading_sum is the float64 moment, remainder the
    exp-domain slack, at most leading_sum (expm1(2 Delta_max + 6u y) + u),
    and m is alpha + 1 (the series ends there).  Otherwise leading_sum truncates the
    power series of the order-alpha moment of P/Q in q at order m,
    remainder bounds the discarded tail, and the bound is
    log(leading_sum + remainder) / (alpha - 1), rounded one ulp up.  One walk
    up m serves both cases (see ``_series_mpf``): it stops at params.m when
    that is set, and otherwise once the remainder is negligible.

    The series' moments whose exponent 2k(k-1)/sigma^2 exceeds
    MOMENT_EXPONENT_CAP are unavailable; when its first truncation (m = 3,
    or params.m) needs one, OverflowError is raised.  The closed form raises
    it only outside its error bound's domain (``_integer_log_moment``).

    Raises:
        ValueError: bad domain, including q = 1 (the series is an expansion
            around q = 0 and its remainder bound fails at the endpoint; use
            ``renyi_divergence_quadrature`` there).
        BoundBreakdownError: leading_sum + remainder <= 0 (raise m or work
            at a higher precision).
        OverflowError: no admissible truncation order, or an integer order
            outside the closed form's domain.
    """
    _check_alpha(alpha)
    if not isinstance(params, MechanismParams):
        raise TypeError("params must be a MechanismParams")
    if params.q == 1:
        raise ValueError(
            "renyi_step_bound requires q < 1; q = 1 is a pure Gaussian shift, "
            "use renyi_divergence_quadrature"
        )
    if params.m is None and float(alpha).is_integer():
        n = int(alpha)
        if params.q == 0:  # P = Q
            return BoundResult(bound=0.0, leading_sum=1.0, remainder=0.0, m=n + 1)
        y, err, moment = _integer_log_moment(n, params.q, params.sigma)
        d = y / (n - 1)
        # d is within u d of y / (n-1), and log M within err of y; 2^-1070
        # covers the absolute error of a subnormal d
        slack = (err / (n - 1) + _U * d) * (1 + 2.0**-20) + 2.0**-1070
        bound = math.nextafter(d + slack, math.inf)
        # exp-domain slack: M >= e^(y - err), e^((n-1) bound) = e^(y - err) e^gap;
        # the added u covers the rounding of leading_sum = 1 + E itself
        gap = ((n - 1) * (bound - d) + _U * y + err) * (1 + 4 * _U)
        remainder = moment * (math.expm1(gap) + _U) * (1 + 8 * _U)
        return BoundResult(bound=bound, leading_sum=moment, remainder=remainder, m=n + 1)
    first = params.m or 3
    if not _order_available(alpha, params.sigma, first):
        raise OverflowError(f"series bound unavailable at alpha={alpha}, sigma={params.sigma}: "
                            f"already the m={first} remainder needs moments past the cap")
    m, S, R = _series_mpf(alpha, params.q, params.sigma, params.m)
    with _MP_LOCK, mp.workdps(_BASE_DPS):
        total = S + R
        if total <= 0:
            raise BoundBreakdownError(
                f"leading_sum + remainder = {float(total):.6g} <= 0 at m={m} "
                f"(alpha={alpha}, q={params.q}, sigma={params.sigma}); "
                "raise m or the working precision"
            )
        bound = float(mp.log(total) / (mpf(alpha) - 1))
    if params.q:  # float() rounded the 50-digit value to nearest; q = 0 gives exactly 0
        bound = math.nextafter(bound, math.inf)
    return BoundResult(bound=bound, leading_sum=float(S), remainder=float(R), m=m)


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
