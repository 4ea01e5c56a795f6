"""The float64 paths of ``divergence.renyi_step_bound``, and a lower bound.

Each path returns the log of the order-alpha moment E_Q[(P/Q)^alpha] of
P = q N(1, s^2) + (1-q) N(0, s^2) against Q = N(0, s^2), s = sigma / 2, with
an error bound stated in its docstring: ``_integer_log_moment`` at integer
orders, ``_split_log_moment`` at fractional ones.  ``_binned_lower_bound``
returns a lower bound on D_alpha(P || Q), for calibration to skip an order
with.  None uses mpmath.
"""

from __future__ import annotations

import math

# Unit roundoff of float64, and the error assumed of each libm call (exp,
# expm1, log, log1p, pow) in ulps; see ``_integer_log_moment``.
_U = 2.0**-53
_LIBM_ULPS = 2
# Above this x, expm1(x) is taken as e^(x - k ln 2) 2^k so it cannot overflow.
_EXP_SPLIT = 700.0
_LN2 = math.log(2.0)
# Largest order the float64 paths take: their work and memory grow with the
# order, so past it OverflowError is raised before any term is formed.
_MAX_ORDER = 2**16
# The error assumed of math.erfc in ulps, and the argument from which
# ``_log_erfc`` takes the asymptotic series instead (erfc(26) ~ 5.7e-296 is
# still a normal float).
_ERFC_ULPS = 8
_ERFC_ASYMPTOTIC = 26.0
# Most terms past ceil(alpha) that the split series takes on each side.
_SPLIT_TERMS_PAST_ORDER = 4096
# ``_binned_lower_bound`` cuts at alpha + o 0.4 s for each of these 16 o.
_BIN_OFFSETS = tuple(k - 7.5 for k in range(16))
_SQRT_HALF = math.sqrt(0.5)
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _moment_exponent(sigma: float, k: int) -> float:
    return 2.0 * k * (k - 1) / sigma / sigma  # inf, not ZeroDivisionError, if sigma^2 underflows


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
    and x_n below ~2^30 and every order up to 1025 at sigma >= 0.3.  Orders
    past _MAX_ORDER = 2^16 are refused as well, which keeps the three n-long
    lists under ~6 MB.  Outside either limit OverflowError is raised before
    any term is formed.
    """
    chunks = -(-n // 512)
    fixed = n + 2 * _LIBM_ULPS + 4 + (2 * _LIBM_ULPS + 1) * chunks  # rho's l-free part, / u
    if n > _MAX_ORDER or not (fixed + 3 * n + 4 * _moment_exponent(sigma, n)) * _U <= 2.0**-21:
        raise OverflowError(f"closed form outside its domain: n={n}, sigma={sigma}")
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


def _log_erfc(a: float) -> float:
    """log erfc(a).  Below _ERFC_ASYMPTOTIC it is log(math.erfc(a)); from there
    on, where erfc nears underflow, it is -a^2 - log(a sqrt(pi)) plus the log
    of the asymptotic series sum_{k<8} (-1)^k (2k-1)!! / (2a^2)^k, whose
    remainder is below the first omitted term (DLMF 7.12(i)), here 2e-19."""
    if a < _ERFC_ASYMPTOTIC:
        return math.log(math.erfc(a))
    t = 0.5 / (a * a)
    s = 1.0
    for c in (13, 11, 9, 7, 5, 3, 1):
        s = 1.0 - c * t * s
    return math.log(s) - a * a - math.log(a) - _LOG_SQRT_PI


def _split_log_moment(alpha: float, q: float, sigma: float) -> tuple[float, float, float, float, int]:
    """log of an upper bound on E_Q[(P/Q)^alpha] in float64, for fractional
    alpha > 1 and 0 < q < 1: (y, err, lower, spread, m).  The moment lies in
    [lower, lower + spread] (inf past float range), |y - log(lower + spread)|
    <= err, and m terms were summed.

    The split series of arXiv:1908.10530, section 3.3: the integral is split
    at z0 = s^2 log(1/q - 1) + 1/2, where q N(1, s^2) = (1-q) N(0, s^2), and
    each side is expanded binomially.  Term i of each side (j = alpha - i):
        left:  C(alpha,i) q^i (1-q)^j e^((i^2-i)/(2s^2)) erfc((i-z0)/(sqrt2 s))/2
        right: C(alpha,i) q^j (1-q)^i e^((j^2-j)/(2s^2)) erfc((z0-j)/(sqrt2 s))/2.
    For n + 1 > alpha, Taylor's theorem gives (1+x)^alpha - sum_{i<=n}
    C(alpha,i) x^i = C(alpha,n+1) x^(n+1) (1+xi)^(alpha-n-1), xi in (0, x),
    whose last factor is in (0, 1] for every x >= 0: each side's tail lies
    between 0 and its first omitted term, at any split point (z0 is used as
    rounded).  The walk stops once n + 1 > alpha and the two first omitted
    terms together are below max(1e-12, 1e-6 (S - 1)), S the moment so far,
    or _SPLIT_TERMS_PAST_ORDER steps past alpha; the lower end adds the
    negative ones, the upper end the positive ones.

    Term i is carried as its log y_i = lam + a log q + b log1p(-q) +
    k(k-1)/(2s^2) + log erfc(arg) - log 2, with (k, a, b) = (i, i, j) on the
    left and (j, j, i) on the right, and lam = log|C(alpha,i)| from a mantissa
    and a power of two carried forward.  The terms, shifted by the largest
    log, top, go through ``math.fsum``; those over 700 below top are dropped.

    Error bound.  u = 2^-53; libm calls within P = _LIBM_ULPS ulps, erfc
    within _ERFC_ULPS = 8.  To first order y_i is within
        theta_i = (3i + 12 (|lam| + |a log q| + |b log1p(-q)| + X + |log erfc| + 1)
                   + D (|k| / (sqrt2 s) + 4 |arg|) + 32) u,
    X = (k^2 + |k|) / (2s^2), D = 2 max(arg, 0) + sqrt2: lam within 3iu
    (three roundings per carry) + (2P+3)(|lam| + 1)u; each weight log within
    (2P+2)u of itself; the exponent within 6uX; arg within u|k|/(sqrt2 s) +
    4u|arg|, which moves log erfc by D times that (|d log erfc/da| <
    a + sqrt(a^2 + 2), Abramowitz & Stegun 7.1.13); log erfc within 16u +
    2Pu|log erfc|, or 7u|log erfc| + 10u on the asymptotic branch; and 5u of
    the summed magnitudes for the additions.  The shift and the exp add
    u|y_i - top| + 2Pu, so term i is within eps_i = (theta_i + u|y_i - top| +
    2Pu)(1 + 2^-20).  Both ends widen by err = (sum |t_i| eps_i +
    u max(|lower|, |upper|) + d e^-699)(1 + 2^-20), over the kept and the
    first omitted terms, d being the number dropped.  Proven where each kept
    eps_i <= 2^-21 and each dropped theta_i <= 1; otherwise, or past
    _MAX_ORDER, OverflowError.  y = log(upper) + top is within
    (2P + 1)(|log upper| + |top|) u (1 + 2^-20).
    """
    if alpha > _MAX_ORDER:
        raise OverflowError(f"split series outside its domain: alpha={alpha}")
    lq, l1q = math.log(q), math.log1p(-q)
    two_s2 = sigma * sigma / 2.0  # 2 s^2
    if not two_s2 > 0:
        raise OverflowError(f"split series outside its domain: sigma={sigma}")
    z0 = (l1q - lq) * (two_s2 / 2.0) + 0.5
    r2s = sigma * _SQRT_HALF  # sqrt(2) s
    cm, ce = 1.0, 0  # C(alpha, i) = cm 2^ce
    terms = []  # (y_i, sign, theta_i)
    ref, acc = -math.inf, 0.0  # the moment so far is about acc e^ref
    limit = int(alpha) + _SPLIT_TERMS_PAST_ORDER
    i = 0
    while True:
        if i:
            cm, e = math.frexp(cm * (alpha - (i - 1)) / i)
            ce += e
        lam = math.log(abs(cm)) + ce * _LN2
        step = []
        j = alpha - i
        for k, a, b, arg in ((i, i, j, (i - z0) / r2s), (j, j, i, (z0 - j) / r2s)):
            aw, bw, x, le = a * lq, b * l1q, k * (k - 1) / two_s2, _log_erfc(arg)
            theta = (3 * i + 12 * (abs(lam) + abs(aw) + abs(bw) + (k * k + abs(k)) / two_s2
                                   + abs(le) + 1)
                     + (2.0 * max(arg, 0.0) + _SQRT2) * (abs(k) / r2s + 4.0 * abs(arg)) + 32) * _U
            step.append((lam + aw + bw + x + le - _LN2, theta))
        sign = -1.0 if cm < 0 else 1.0
        if i > alpha:
            (yl, _), (yr, _) = step
            tail = math.exp(min(yl - ref, 0.0)) + math.exp(min(yr - ref, 0.0))
            floor = math.exp(-ref)
            if tail < max(1e-12 * floor, 1e-6 * (acc - floor)) or i >= limit:
                break
        for y, theta in step:
            terms.append((y, sign, theta))
            if y > ref:
                acc, ref = acc * math.exp(ref - y) + sign, y
            else:
                acc += sign * math.exp(y - ref)
        i += 1
    top = max(ref, step[0][0], step[1][0])
    scaled, absum, dropped = [], 0.0, 0
    for y, s, theta in terms + [(y, sign, theta) for y, theta in step]:
        shift = y - top
        if shift < -700.0:
            if not theta <= 1.0:
                raise OverflowError(f"split series outside its domain: alpha={alpha}, sigma={sigma}")
            dropped += 1
            scaled.append(0.0)
            continue
        eps = (theta + _U * -shift + 2 * _LIBM_ULPS * _U) * (1 + 2.0**-20)
        if not eps <= 2.0**-21:
            raise OverflowError(f"split series outside its domain: alpha={alpha}, sigma={sigma}")
        scaled.append(s * math.exp(shift))
        absum += abs(scaled[-1]) * eps
    # the two first omitted terms share the sign of C(alpha, n + 1)
    partial, with_next = math.fsum(scaled[:-2]), math.fsum(scaled)
    lo, hi = (with_next, partial) if sign < 0 else (partial, with_next)
    err = (absum + _U * max(abs(lo), abs(hi)) + dropped * math.exp(-699.0)) * (1 + 2.0**-20)
    lo = math.nextafter(lo - err, -math.inf)
    hi = math.nextafter(hi + err, math.inf)
    log_hi = math.log(hi)
    try:
        scale = math.exp(top)
    except OverflowError:
        scale = math.inf
    lower = lo * scale if lo > 0 else 0.0
    y = log_hi + top
    err = (2 * _LIBM_ULPS + 1) * _U * (abs(log_hi) + abs(top)) * (1 + 2.0**-20)
    return y, err, lower, (hi - max(lo, 0.0)) * scale, len(terms)


def _binned_lower_bound(alpha: float, q: float, sigma: float) -> float:
    """A lower bound on D_alpha(P || Q) in float64, for alpha > 1 and 0 < q < 1.

    D_b, the divergence of the two distributions over 17 bins of the real
    line, is <= D_alpha by the data-processing inequality (van Erven &
    Harremoes, arXiv:1206.2459, Thm 9): the 16 edges e_k = alpha + o_k w,
    o_k = k - 7.5 and w = 0.2 sigma (0.4 s) as float64 computes them, span
    [alpha - 3s, alpha + 3s], and two bins run out to -inf and +inf.  With
    the standardized edges x_k = (e_k - mu) / (sigma sqrt(1/2)) of N(mu, s^2),
    E_k = erfc(x_k), E_-1 = 2 and E_16 = 0, bin k's mass is (E_(k-1) - E_k) / 2,
    and D_b = log sum_k p_k^alpha r_k^(1-alpha) / (alpha - 1), with r_k the mass
    of Q and p_k = (1-q) r_k + q m_k, m_k that of N(1, s^2).

    Each term is taken at a lower end of p_k and an upper end of r_k, since it
    rises in p and falls in r.  Where the power (p_k/r_k)^(alpha-1) overflows,
    the term is taken as exp(l), l = log p_k + (alpha-1) log(p_k/r_k).  A term
    whose lower end of p_k is <= 0, whose value is below 2^-1021 or that
    overflows is dropped, and if the sum overflows only its largest term is
    kept: every term is >= 0, so dropping one only lowers the sum.  The sum
    is lowered by its rounding, and the log of it rounded toward 0; a sum not
    above 1 gives 0.

    Error bound.  u = 2^-53; libm calls within P = _LIBM_ULPS ulps, erfc
    within _ERFC_ULPS = 8.  |x_k| <= X = alpha / (sigma sqrt(1/2)) + 3 sqrt(1/2),
    and x_k is within 4u |x_k|, which moves log erfc by at most
    4u |x_k| (2 max(x_k, 0) + sqrt2) (Abramowitz & Stegun 7.1.13).  So each
    mass is within tau (E_(k-1) + E_k) + 2^-1060, with
    tau = (10 + 2X (2X + sqrt2)) u (1 + 2^-20), which covers erfc, the
    argument, the difference and the rounding of the upper end, and 2^-1060
    the absolute errors below the normal range.  p_k's lower end is lowered
    by the masses' errors, by 5u p_k for its own roundings and by 2^-1059.
    A kept term (all of its parts normal) is within ((alpha - 1) + 2P + 1) u
    of its value at the two ends, and the sum is lowered by
    (alpha + 2P + 3) u for that, fsum and the product; the log and the
    division by 2(P + 1) u.  A term taken as exp(l) is lowered first by
    (2P |log p_k| + (2P + 1) |c| + |l| + (alpha - 1) + 2P + 2) u, c the
    computed (alpha-1) log(p_k/r_k): that covers l's error, which is at most
    2P u |log p_k| + (alpha - 1)(u + 2P u |log(p_k/r_k)|) + u |c| + u |l|
    (each log, the quotient, the product and the sum), exp's 2P u and the
    rounding of the factor and the product that lower it.  Proven where
    tau <= 2^-23 (alpha / sigma below ~11000), alpha <= _MAX_ORDER and
    sigma <= 2^500; elsewhere 0.0 is returned.

    The result lower <= D_b.  Where no term is dropped and every mass is
    >= 2^-1000, D_b - lower <= (eta / (alpha - 1) + (4P + 4) u D_b)(1 + 2^-20)
    with eta = 2 (2 alpha - 1) rho + (12 alpha + 4P + 4) u, rho = 3001 tau: each
    mass is within rho of itself, as no bin's difference cancels more than
    1500-fold (no edge lies more than 3s below either mean).  A term taken as
    exp(l) adds (alpha + 4200P + 2120) u to eta: there |log p_k| <= 694,
    |l| <= 710 and |c| <= 1404.
    """
    r2s = sigma * _SQRT_HALF  # sqrt(2) s
    x_max = alpha / r2s + 3 * _SQRT_HALF
    tau = (10 + 2 * x_max * (2 * x_max + _SQRT2)) * _U * (1 + 2.0**-20)
    if not (0 < q < 1 and alpha <= _MAX_ORDER and tau <= 2.0**-23 and sigma <= 2.0**500):
        return 0.0
    erfc = math.erfc
    width = 0.2 * sigma
    edges = [alpha + o * width for o in _BIN_OFFSETS]
    tails_q = [2.0, *[erfc(e / r2s) for e in edges], 0.0]  # the E_k of Q
    tails_m = [2.0, *[erfc((e - 1.0) / r2s) for e in edges], 0.0]  # and of N(1, s^2)
    c = 1.0 - q
    grow = 5 * _U * (1 + 2.0**-20)
    power = alpha - 1.0
    terms = []
    for a, b, g, h in zip(tails_q, tails_q[1:], tails_m, tails_m[1:]):
        r = 0.5 * (a - b)
        r_err = tau * (a + b) + 2.0**-1060
        p = c * r + q * (0.5 * (g - h))
        p -= c * r_err + q * tau * (g + h) + grow * p + 2.0**-1059
        if p > 0:
            try:
                t = p * (p / (r + r_err)) ** power
            except OverflowError:
                # p times the power may be finite: exp of its log, lowered by its rounding
                log_p = math.log(p)
                log_power = power * math.log(p / (r + r_err))
                log_t = log_p + log_power
                slack = (2 * _LIBM_ULPS * abs(log_p) + (2 * _LIBM_ULPS + 1) * abs(log_power)
                         + abs(log_t) + power + 2 * _LIBM_ULPS + 2) * _U * (1 + 2.0**-20)
                try:
                    t = math.exp(log_t) * (1.0 - slack)
                except OverflowError:
                    continue
            if 2.0**-1021 <= t < math.inf:
                terms.append(t)
    try:
        total = math.fsum(terms)
    except OverflowError:
        total = max(terms)
    total *= 1.0 - (alpha + 2 * _LIBM_ULPS + 3) * _U
    if not total > 1.0:
        return 0.0
    d = math.log(total) / power
    return math.nextafter(d - d * (2 * _LIBM_ULPS + 2) * _U, 0.0)
