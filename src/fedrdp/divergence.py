"""One-step Renyi divergence bounds for fixed-size subsampled Gaussian noise.

Everything here is about the pair of one-dimensional distributions

    P = q * N(1, s^2) + (1 - q) * N(0, s^2)        Q = N(0, s^2)

with s = sigma / 2; callers pass the noise multiplier sigma.
``renyi_step_bound`` bounds D_alpha(P || Q) from the moment E_Q[(P/Q)^alpha]
by a route of Mironov, Talwar & Zhang, "Renyi Differential Privacy of the
Sampled Gaussian Mechanism" (arXiv:1908.10530), with sigma -> sigma/2: the
binomial closed form at integer orders and the split binomial series at
fractional ones, both in float64 in ``fedrdp._float64`` and rounded up by a
stated error bound.
``renyi_divergence_quadrature`` evaluates the divergence by numerical
integration, so the bound can be checked against it, and
``likelihood_ratio_moment`` gives the central moments of the likelihood ratio.

All functions are pure.  The moments alternate in sign and cancel
catastrophically in double precision, and the oracle integrates at 40 digits,
so those two use mpmath.  They import it on first use: the bound, and the
accountant with it, never loads mpmath.  A module lock serialises access to
mpmath's context, so concurrent callers are safe (just not parallel).
"""

from __future__ import annotations

import math
import numbers
import threading

from ._float64 import _U, _integer_log_moment, _moment_exponent, _split_log_moment

__all__ = [
    "MechanismParams",
    "BoundResult",
    "QuadratureError",
    "MOMENT_EXPONENT_CAP",
    "likelihood_ratio_moment",
    "renyi_step_bound",
    "renyi_divergence_quadrature",
]

# Largest exponent 2k(k-1)/sigma^2 accepted by ``likelihood_ratio_moment``.
# Above it the moment's largest term e^(2k(k-1)/sigma^2) is far past float
# range, so the moment is refused instead of ground through at that size.
MOMENT_EXPONENT_CAP = 3000.0

_BASE_DPS = 50
_QUAD_DPS = 40
# Intervals of the scan of [0, alpha] that picks the quadrature oracle's scale.
_SCALE_SCAN_INTERVALS = 32

# mpmath's precision state is process-global; serialise all use of it.
_MP_LOCK = threading.RLock()

class QuadratureError(ArithmeticError):
    """Numerical integration did not reach the requested tolerance."""

    def __init__(self, message: str, achieved_tolerance: float):
        super().__init__(message)
        self.achieved_tolerance = achieved_tolerance


def _shown(value) -> str:
    """repr of value for an error message; an int past float range by its size.

    Such an int's repr runs to hundreds of digits, and past 4300 digits
    Python refuses to print it at all.
    """
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            n = abs(value)
            digits = int(n.bit_length() * math.log10(2)) + 1
            if n < 10 ** (digits - 1):
                digits -= 1
            return f"{'a negative' if value < 0 else 'an'} integer of {digits} digits"
    return repr(value)


def _number(value, kind: type, message: str, ok=None) -> int | float:
    """value as a built-in number, or ValueError(f"{message}, got {_shown(value)}").

    The one rule for a number that enters the package.  With kind int, value
    must be a non-bool ``numbers.Integral``; with kind float, a non-bool
    ``numbers.Real`` that converts to float (an integer past float range
    does not).  An integral value comes back as int, any other as float, so
    NumPy scalars are stored as built-ins and repr reads back.  ok(number),
    when given, must hold too.
    """
    if type(value) is kind:
        number = value  # a built-in of the field's kind, as nearly every caller passes
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        number = None
    else:
        try:
            if isinstance(value, numbers.Integral):
                number = int(value)
                if kind is float:
                    float(number)
            else:
                number = float(value) if kind is float else None
        except OverflowError:
            number = None
    if number is None or not (ok is None or ok(number)):
        raise ValueError(f"{message}, got {_shown(value)}")
    return number


class _Frozen:
    """Base of an immutable value class.

    __init__ checks the fields and stores each once in the instance dict;
    __match_args__ names them.  Equality, hash, repr, pickling and the
    assignment errors are a frozen dataclass's, without importing dataclasses.
    """

    def __init_subclass__(cls):
        cls.__init__.__annotations__["return"] = None  # a dataclass's, not the string "None"

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# (message, range) of the numbers more than one function takes
_ALPHA = ("alpha must be a finite real > 1", lambda alpha: 1 < alpha < math.inf)
_Q = ("q must lie in [0, 1]", lambda q: 0 <= q <= 1)
_SIGMA = ("sigma must be a positive finite real", lambda sigma: 0 < sigma < math.inf)


def likelihood_ratio_moment(sigma: float, k: int) -> float:
    """k-th central moment E[(L - 1)^k] of the Gaussian likelihood ratio.

    L(theta) = N(1, s^2)(theta) / N(0, s^2)(theta) evaluated at
    theta ~ N(0, s^2), s = sigma/2.  Closed form: the alternating binomial
    sum of the raw moments E[L^l] = exp(2 l (l-1) / sigma^2).

    The sum loses digits to cancellation; the working precision is
    escalated until the sum keeps _BASE_DPS good digits, or until it is
    known to round to float 0.0.  A sum that cancels to exactly 0 has lost
    all its digits.

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
    sigma = _number(sigma, float, *_SIGMA)
    k = _number(k, int, "k must be an integer >= 2", lambda k: k >= 2)
    if _moment_exponent(sigma, k) > MOMENT_EXPONENT_CAP:
        raise OverflowError(
            f"moment exponent 2k(k-1)/sigma^2 = {_moment_exponent(sigma, k):.3g} "
            f"exceeds cap {MOMENT_EXPONENT_CAP:.0f} (k={k}, sigma={sigma}); "
            "reduce the order or increase sigma"
        )
    from mpmath import mp, mpf

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
                cancel = max(float(mp.log10(absmass / abs(total))), 0.0) if total else work
                if work - cancel >= _BASE_DPS:
                    break
                # k + 1 terms, each rounded a few times: the moment is within
                # 4 (k + 1) absmass 10^-work of total, and below 2^-1075 it
                # rounds to float 0.0
                if abs(total) + 4 * (k + 1) * absmass / mpf(10) ** work < mpf(2) ** -1075:
                    return 0.0
            work = int(_BASE_DPS + cancel + 15)
    value = float(total)
    if math.isinf(value):
        raise OverflowError(
            f"moment (sigma={sigma}, k={k}) exceeds float range; "
            "reduce the order or increase sigma"
        )
    return value


class MechanismParams(_Frozen):
    """One mechanism step: sampling fraction q, noise multiplier sigma."""

    __match_args__ = ("q", "sigma")

    def __init__(self, q: float, sigma: float) -> None:
        vars(self).update(q=_number(q, float, *_Q), sigma=_number(sigma, float, *_SIGMA))


_BOUND_PATHS = ("closed_form", "split")


class BoundResult(_Frozen):
    """Output of renyi_step_bound.

    The order-alpha moment lies within leading_sum +- remainder, and bound
    is a little under log(leading_sum + remainder) / (alpha - 1) (see
    ``renyi_step_bound``).  leading_sum and remainder may round to inf at
    extreme parameters even when the bound itself is a moderate number; the
    bound never goes through them.  NaN is rejected.

    path names the evaluation: "closed_form" (integer orders; m = alpha + 1,
    the closed form's number of terms) or "split" (fractional orders; m is
    the number of terms summed over both sides, and leading_sum + remainder
    is the certified upper end).
    """

    __match_args__ = ("bound", "leading_sum", "remainder", "m", "path")

    def __init__(self, bound: float, leading_sum: float, remainder: float, m: int,
                 path: str) -> None:
        if math.isnan(bound) or math.isnan(remainder):
            raise ValueError("bound and remainder must not be NaN")
        if remainder < 0:
            raise ValueError("remainder must be nonnegative")
        if path not in _BOUND_PATHS:
            raise ValueError(f"path must be one of {_BOUND_PATHS}, got {path!r}")
        vars(self).update(bound=bound, leading_sum=leading_sum, remainder=remainder, m=m,
                          path=path)


def renyi_step_bound(alpha: float, params: MechanismParams) -> BoundResult:
    """Upper bound on D_alpha(P || Q) for one mechanism step.

    P = q N(1, s^2) + (1-q) N(0, s^2), Q = N(0, s^2), s = sigma/2.

    The log moment comes in float64 as y within err: from the closed form
    at integer alpha (``_integer_log_moment``), from the split series'
    certified upper end at fractional alpha (``_split_log_moment``).  bound
    is (y + err) / (alpha - 1) plus the division's rounding, one ulp up:
    never below the exact divergence D.  At integer orders it exceeds D by
    at most 2 Delta_max / (alpha - 1) + 6u D (u = 2^-53; ~1e-13 relative or
    less), and remainder, the exp-domain slack, is at most
    leading_sum (expm1(2 Delta_max + 6u y) + u).  At fractional orders
    leading_sum is the bracket's lower end and remainder its width plus that
    slack; the stopping rule keeps the width below max(1e-12, 1e-6 (M - 1))
    for the moment M, unless the walk runs out of terms.

    Raises:
        ValueError: bad domain, including q = 1 (a pure Gaussian shift, whose
            divergence is 2 alpha / sigma^2; ``renyi_divergence_quadrature``
            accepts it).
        OverflowError: an order outside a float64 path's domain.
    """
    alpha = _number(alpha, float, *_ALPHA)
    if not isinstance(params, MechanismParams):
        raise TypeError("params must be a MechanismParams")
    if params.q == 1:
        raise ValueError(
            "renyi_step_bound requires q < 1; q = 1 is a pure Gaussian shift, "
            "use renyi_divergence_quadrature"
        )
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


def _mixture_power_integral_mpf(alpha: float, q: float, sigma: float):
    """Integral of (P/Q)^alpha dQ over a truncated domain, with error estimate.

    With c = 1/(2s^2), the integrand is e^f / (s sqrt(2 pi)) for
        f(t) = alpha log((1-q) + q e^{(2t-1)c}) - t^2 c,
    and f' = (alpha w - t)/s^2 with w in (0, 1).  So f peaks in [0, alpha],
    possibly inside it (near t = 42 at alpha=64, q=0.5, sigma=16), falls past
    alpha at least as fast as a Gaussian of standard deviation s centred at
    alpha, and below 0 at least as fast as one centred at 0.  f'' >= -1/s^2
    (the log term is convex), so e^f is at least such a Gaussian around its
    peak.  The domain runs 40 s past both ends, from -40s to
    max(1, alpha) + 40s, and each tail beyond is below Phi(-40) < 1e-349 of
    the integral.

    The integrand is scaled to O(1) before integrating.  mpmath stops
    refining a subinterval once its error estimate is below an *absolute*
    epsilon (~3e-42 at _QUAD_DPS); where the moment is large (~1e27 at
    alpha=4, q=0.5, sigma=0.6) that test never passes, and every subinterval
    would run to maxdegree.  So f is shifted by its largest value K on a
    coarse scan of [0, alpha], exp(f - K) is integrated, and the value and the
    error estimate are both multiplied back by e^K / (s sqrt(2 pi)).  Both
    are returned on the unscaled integral's scale.  The scan's K is within
    (alpha/64)^2 / (2 s^2) of the peak and not above it, so the integral of
    exp(f - K) is at least s sqrt(2 pi) / 2.  A K below the peak leaves it
    large, which costs time, not accuracy.

    Each breakpoint interval [a, b] is integrated on [-1, 1]: the integrand
    maps x to t = mid + half x and adds log(half) to the exponent, so
    mpmath's stopping rule sees the sums it would see on [a, b], and its
    node caches hold one set for [-1, 1] instead of one per interval.  The
    integrand works on raw mpf tuples.  Since (1-q) + q e^{(2t-1)c} <=
    max(1, e^{(2t-1)c}), its exponent is at most
        alpha max(0, (2t-1)c) - t^2 c + log(half) - K.
    Where that bound, taken in float64 with a margin far above its rounding,
    lies below log(s) - 300, the node's value is exactly 0 (a quarter to a
    half of the nodes, which tanh-sinh crowds at the ends).  A rule's weights
    on [-1, 1] sum to about 2, so the four intervals drop less than
    8 s e^-300, below 1e-129 of the integral.
    """
    from mpmath import mp, mpf
    from mpmath.libmp import mpf_add, mpf_exp, mpf_log, mpf_mul, mpf_sub, round_nearest, to_float

    with _MP_LOCK, mp.workdps(_QUAD_DPS):
        al = mpf(alpha)
        qq = mpf(q)
        s = mpf(sigma) / 2
        lo = -20 * mpf(sigma)
        hi = max(mpf(1), al) + 20 * mpf(sigma)
        points = sorted({lo, mpf(0), mpf(1), min(max(al, mpf(1)), hi), hi})

        # mp.quad evaluates the integrand 20 bits above the caller's precision
        wp = mp.prec + 20
        rnd = round_nearest
        with mp.workprec(wp):
            c = 1 / (2 * s * s)
            al_, c_, two_c = al._mpf_, c._mpf_, (2 * c)._mpf_
            one_minus_q = (1 - qq)._mpf_
            q_exp_c = (qq * mp.exp(-c))._mpf_

        def log_integrand(t):
            """f(t) as a raw mpf, for a raw mpf t."""
            growth = mpf_exp(mpf_mul(t, two_c, wp, rnd), wp, rnd)
            mix = mpf_add(one_minus_q, mpf_mul(q_exp_c, growth, wp, rnd), wp, rnd)
            return mpf_sub(mpf_mul(al_, mpf_log(mix, wp, rnd), wp, rnd),
                           mpf_mul(mpf_mul(t, t, wp, rnd), c_, wp, rnd), wp, rnd)

        zero, make_mpf = mp.zero, mp.make_mpf
        n = _SCALE_SCAN_INTERVALS
        scale = max(make_mpf(log_integrand((al * i / n)._mpf_)) for i in range(n + 1))

        c_f = float(c)
        alpha_c = alpha * c_f
        log_s = math.log(sigma / 2)
        # the skip test's margin needs c_f to carry float64's relative precision
        skips = 1e-300 < c_f < 1e300
        value = err = zero
        for a, b in zip(points, points[1:]):
            with mp.workprec(wp):
                mid, half = (b + a) / 2, (b - a) / 2
                shift = mp.log(half) - scale
            shift_f = float(shift)
            # log(s) - 300 - shift, less a margin for the roundings on both sides
            cut = (log_s - 300 - shift_f - 1e-12 * (abs(shift_f) + abs(log_s) + 300)
                   if skips else -math.inf)

            def integrand(x, mid=mid._mpf_, half=half._mpf_, shift=shift._mpf_, cut=cut):
                t = mpf_add(mid, mpf_mul(half, x._mpf_, wp, rnd), wp, rnd)
                tf = to_float(t)
                square = tf * tf * c_f
                lead = (2 * tf - 1) * c_f
                bound = (alpha * lead if lead > 0 else 0.0) - square
                if bound + 1e-12 * (alpha_c * (2 * abs(tf) + 1) + square) < cut:
                    return zero
                return make_mpf(mpf_exp(mpf_add(log_integrand(t), shift, wp, rnd), wp, rnd))

            v, e = mp.quad(integrand, [-1, 1], error=True, maxdegree=10)
            value += v
            err += e
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
    log(moment) keeps no digits below ~1e-40, an absolute floor on the result
    (2.3e-41 at (2, 0.1, 1e160), bound 4.84e-322); one below 0 is returned as 0.0.

    Raises:
        ValueError: alpha <= 1, sigma <= 0, or q outside [0, 1].
        QuadratureError: the moment's error estimate exceeds an absolute
            tolerance of 1e-12 (relative 1e-18 for moments above 1e6); the
            achieved tolerance is attached.
    """
    alpha = _number(alpha, float, *_ALPHA)
    sigma = _number(sigma, float, *_SIGMA)
    q = _number(q, float, *_Q)
    if q == 0:
        return 0.0
    from mpmath import mp, mpf

    value, err = _mixture_power_integral_mpf(alpha, q, sigma)
    with _MP_LOCK, mp.workdps(_QUAD_DPS):
        gate = max(mpf("1e-12"), abs(value) * mpf("1e-18"))
        if not err <= gate:
            raise QuadratureError(
                f"quadrature reached absolute tolerance {float(err):.3g} "
                f"(required {float(gate):.3g}) at alpha={alpha}, q={q}, sigma={sigma}",
                achieved_tolerance=float(err),
            )
        return max(0.0, float(mp.log(value) / (mpf(alpha) - 1)))
