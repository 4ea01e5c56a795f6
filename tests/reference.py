"""Independent oracles used by the test suite.

Nothing here imports from the package's numerical internals (only the
ledger's public types, for the reference parser, and the simulator's round
record, for the per-client training loop, which builds its own data);
every routine re-derives its target quantity by a different route (Monte
Carlo, binomial closed forms, nested quadrature, plain gradient descent) so
that agreement is evidence rather than tautology.

Notation used throughout: the mechanism compares the mixture
q*N(1, s^2) + (1-q)*N(0, s^2) against N(0, s^2) with s = sigma/2, and
L(theta) denotes the likelihood ratio N(1,s^2)/N(0,s^2) evaluated at
theta drawn from N(0, s^2).
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

from fedrdp.accountant import ParticipationLedger, StepParams
from fedrdp.simulate import RoundRecord

# chi-square critical value at p = 0.001 for 5 degrees of freedom
# (uniformity test over the 6 subsets of size 2 from 4 clients).
CHI2_DF5_P001 = 20.515


# --- moment oracle ------------------------------------------------------
#
# E[(L-1)^k] under N(0, s^2).  Plain Monte Carlo is hopeless here: the
# integrand's mass sits k standard-ish deviations into the tail (L^l times
# the base Gaussian is a Gaussian centered at l), so the single-sample
# relative standard deviation grows like exp(2 k^2 / sigma^2).  Importance
# sampling from the defensive mixture (1/(k+1)) * sum_j N(j, s^2),
# j = 0..k, covers every tilted component; the weight N_0 / proposal is
# bounded, and |(L-1)^k| * weight is bounded by (k+1) 2^k exp(2k(k-1)/s.. )
# times the dominant moment, so the estimator has finite, usable variance.


@functools.lru_cache(maxsize=None)
def moment_mc_importance(
    sigma: float, k: int, n_samples: int = 10**7, seed: int = 20240817
) -> tuple[float, float]:
    """Monte-Carlo estimate of E[(L-1)^k]; returns (estimate, stderr)."""
    if sigma <= 0 or k < 1:
        raise ValueError("sigma must be > 0 and k >= 1")
    s = sigma / 2.0
    centers = np.arange(k + 1, dtype=np.float64)
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    done = 0
    chunk = 10**6
    while done < n_samples:
        n = min(chunk, n_samples - done)
        comp = rng.integers(0, k + 1, size=n)
        theta = centers[comp] + s * rng.standard_normal(n)
        # component log-densities up to a shared constant
        z = -((theta[:, None] - centers[None, :]) ** 2) / (2 * s * s)
        zmax = z.max(axis=1)
        log_mix = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1)) - math.log(k + 1)
        log_w = z[:, 0] - log_mix
        log_L = (2 * theta - 1.0) / (2 * s * s)
        # log|L-1| with the correct sign
        pos = log_L > 0
        log_abs = np.empty_like(log_L)
        log_abs[pos] = log_L[pos] + np.log1p(-np.exp(-log_L[pos]))
        log_abs[~pos] = np.log1p(-np.exp(log_L[~pos]))
        sign = np.where(pos, 1.0, (-1.0) ** k)
        x = sign * np.exp(k * log_abs + log_w)
        total += float(x.sum())
        total_sq += float((x * x).sum())
        done += n
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    stderr = math.sqrt(var / (n_samples - 1))
    return mean, stderr


# --- integer-order closed form ------------------------------------------
#
# For integer alpha, expanding (q L + (1-q))^alpha binomially and using
# E[L^l] = exp(2 l (l-1) / sigma^2) gives the divergence exactly without
# any series truncation or quadrature.


def integer_alpha_divergence(alpha: int, q: float, sigma: float, dps: int = 60) -> float:
    if alpha != int(alpha) or alpha < 2:
        raise ValueError("closed form needs integer alpha >= 2")
    alpha = int(alpha)
    with mp.workdps(dps):
        qm = mp.mpf(q)
        total = mp.mpf(0)
        for l in range(alpha + 1):
            total += (
                mp.binomial(alpha, l)
                * qm**l
                * (1 - qm) ** (alpha - l)
                * mp.e ** (mp.mpf(2 * l * (l - 1)) / mp.mpf(sigma) ** 2)
            )
        return float(mp.log(total) / (alpha - 1))


def integer_moment_excess_direct(n: int, q: float, sigma: float) -> mp.mpf:
    """E_Q[(P/Q)^n] - 1 as the direct binomial sum, at 60 digits rounded to 50.

    sum_{l=2}^{n} C(n,l) q^l (1-q)^(n-l) expm1(2l(l-1)/sigma^2), every term
    with its own binomial and its own expm1: no quantity carried between
    terms.
    """
    with mp.workdps(60):
        qm, s2 = mp.mpf(q), mp.mpf(sigma) ** 2
        total = mp.fsum(
            mp.binomial(n, l) * qm**l * (1 - qm) ** (n - l) * mp.expm1(2 * l * (l - 1) / s2)
            for l in range(2, n + 1)
        )
    with mp.workdps(50):
        return +total


# --- split binomial series ----------------------------------------------------
#
# The terms of the split series at 40 digits, each from its own generalised
# binomial, powers, exp and erfc: nothing carried between terms.  The split
# point is the float64 value the package computes, since the terms depend on
# it (their sum over all terms does not).


def split_series_bracket(alpha: float, q: float, sigma: float, n: int, dps: int = 40):
    """(lower, upper): the terms 0..n of both sides of the split series, plus
    the negative (lower) or positive (upper) terms n + 1, at dps digits."""
    z0 = (math.log1p(-q) - math.log(q)) * (sigma * sigma / 2.0 / 2.0) + 0.5
    with mp.workdps(dps):
        al, qm, z = mp.mpf(alpha), mp.mpf(q), mp.mpf(z0)
        s = mp.mpf(sigma) / 2
        r2s = mp.sqrt(2) * s

        def side(i):
            j = al - i
            left = (qm**i * (1 - qm) ** (al - i) * mp.exp((i * i - i) / (2 * s * s))
                    * mp.erfc((i - z) / r2s) / 2)
            right = (qm**j * (1 - qm) ** i * mp.exp((j * j - j) / (2 * s * s))
                     * mp.erfc((z - j) / r2s) / 2)
            return mp.binomial(al, i) * (left + right)

        partial = mp.fsum(side(i) for i in range(n + 1))
        nxt = side(n + 1)
        return partial + min(nxt, 0), partial + max(nxt, 0)


# --- truncated series leading sum -----------------------------------------
#
# Expanding E_Q[((1-q) + q L)^alpha] = E_Q[(1 + q (L-1))^alpha] in q gives
# sum_k C(alpha, k) q^k E[(L-1)^k]; the k = 1 term vanishes.  Each central
# moment here is its own alternating binomial sum of the raw moments
# E[L^l] = exp(2 l (l-1) / sigma^2), and C(alpha, k) is mpmath's generalised
# binomial: nothing is carried from one k to the next.


def series_leading_sum(alpha: float, q: float, sigma: float, m: int, dps: int = 80) -> float:
    """1 + sum_{k=2}^{m-1} C(alpha, k) q^k E[(L-1)^k] at dps digits."""
    with mp.workdps(dps):
        qm, s2 = mp.mpf(q), mp.mpf(sigma) ** 2
        total = mp.mpf(1)
        for k in range(2, m):
            moment = mp.fsum(
                (-1) ** (k - l) * mp.binomial(k, l) * mp.exp(2 * l * (l - 1) / s2)
                for l in range(k + 1)
            )
            total += mp.binomial(alpha, k) * qm**k * moment
        return float(total)


# --- per-line ledger parser -----------------------------------------------
#
# The straightforward parse: split every line into its six fields, build and
# validate a StepParams per line, and record it through the ledger's public
# `record`.  The package's parser interns parameter texts; this one must
# accept and reject exactly the same texts with equal steps.


def parse_ledger_per_line(text: str) -> ParticipationLedger:
    ledger = ParticipationLedger()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 6:
            raise ValueError(f"ledger line {lineno}: expected 6 tab-separated fields")
        params = StepParams(
            q=float(fields[2]),
            sigma=float(fields[3]),
            clip=float(fields[4]),
            batch_size=int(fields[5]),
        )
        ledger.record(int(fields[0]), int(fields[1]), params)
    return ledger


def client_steps_by_splitlines(text: str, client_id: int):
    """The steps of client_id in text, as str.splitlines and int() find them.

    Every line whose first field int() reads as client_id is the client's,
    whatever its spelling ("07", " 7", "+7", "7 ", "7_0" for 70), and lines
    end at every boundary str.splitlines knows.  Lines whose first field is
    no integer, or another client's, are skipped.  Raises ValueError if one
    of the client's lines is malformed or out of order.
    """
    ledger = ParticipationLedger()
    for line in text.splitlines():
        fields = line.split("\t")
        try:
            owner = int(fields[0])
        except ValueError:
            continue
        if owner != client_id:
            continue
        if len(fields) != 6:
            raise ValueError("expected 6 tab-separated fields")
        params = StepParams(
            q=float(fields[2]),
            sigma=float(fields[3]),
            clip=float(fields[4]),
            batch_size=int(fields[5]),
        )
        ledger.record(client_id, int(fields[1]), params)
    return ledger.steps(client_id)


# --- true Taylor remainder via nested quadrature --------------------------
#
# With H(x) = E[((1-x) + x L)^alpha], the integral form of the degree-(m-1)
# Taylor remainder at q is
#
#   R = q^m / (m-1)! * int_0^1 (1-u)^(m-1) H^(m)(u q) du,
#   H^(m)(x) = alpha (alpha-1) ... (alpha-m+1) * E[((1-x)+xL)^(alpha-m) (L-1)^m].
#
# The package's closed-form remainder cap must dominate |R|.


def _base_quadrature_points(s: mp.mpf, upper_center) -> list:
    lo = -20 * s
    hi = upper_center + 20 * s
    return sorted({lo, mp.mpf(0), mp.mpf(1), min(max(upper_center, 1), hi), hi})


def true_taylor_remainder(alpha: float, sigma: float, m: int, q: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        s = mp.mpf(sigma) / 2
        fall = mp.mpf(1)
        for j in range(m):
            fall *= a - j
        points = _base_quadrature_points(s, max(a, m))

        # Every outer node evaluates the inner integral on the same nodes t,
        # so L(t), (L(t) - 1)^m and the base density are computed once per t.
        per_node = {}

        def node(t):
            got = per_node.get(t)
            if got is None:
                L = mp.e ** ((2 * t - 1) / (2 * s * s))
                got = per_node[t] = (L, (L - 1) ** m, mp.npdf(t, 0, s))
            return got

        def deriv(x):
            def integrand(t):
                L, tail, density = node(t)
                return ((1 - x) + x * L) ** (a - m) * tail * density

            return fall * mp.quad(integrand, points)

        outer = mp.quad(lambda u: (1 - u) ** (m - 1) * deriv(u * mp.mpf(q)), [0, 1])
        return float(mp.mpf(q) ** m / mp.factorial(m - 1) * outer)


# --- plain logistic-regression training ----------------------------------


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def logistic_gd_reference(
    X: np.ndarray,
    y: np.ndarray,
    classes: int,
    rounds: int,
    step_size: float,
    clip: float,
) -> np.ndarray:
    """Full-batch gradient descent with per-sample clipping; flat weights."""
    n, d = X.shape
    W = np.zeros((classes, d))
    for _ in range(rounds):
        probs = softmax_rows(X @ W.T)
        probs[np.arange(n), y] -= 1.0
        per_sample = -step_size * (probs[:, :, None] * X[:, None, :]).reshape(n, -1)
        norms = np.linalg.norm(per_sample, axis=1)
        scale = np.minimum(1.0, clip / np.maximum(norms, 1e-300))
        W = W + (per_sample * scale[:, None]).mean(axis=0).reshape(classes, d)
    return W.reshape(-1)


def accuracy_of(weights_flat: np.ndarray, classes: int, X: np.ndarray, y: np.ndarray) -> float:
    W = weights_flat.reshape(classes, -1)
    return float(np.mean(np.argmax(X @ W.T, axis=1) == y))


# --- per-client federated training -----------------------------------------
#
# The training loop as it ran before client steps were stacked: one client
# at a time, each with its own 2-D arrays, its own norm and its own noise,
# on a (classes, d) weight array, on the data client_data builds.  Same
# SeedSequence streams as the package, (seed, tag, round[, client]), and
# the same draws from them: a uniform subset of the ascending available ids,
# then per client a sorted fixed-size batch and its noise.

_STREAM_CENTERS = 1
_STREAM_CLIENT_DATA = 2
_STREAM_AVAILABILITY = 3
_STREAM_SELECTION = 4
_STREAM_CLIENT_STEP = 5


def _stream(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


def client_data(config) -> list[tuple[np.ndarray, np.ndarray]]:
    """(features, labels) of each client of config, from SeedSequence streams.

    The class centers are the first `classes` columns of the Q of a QR of a
    (d, classes) standard normal draw, scaled to norm 4; each client's
    points are its labels' centers plus a standard normal draw, with labels
    0, 1, ..., classes - 1, 0, 1, ... over its points.
    """
    raw = _stream(config.seed, _STREAM_CENTERS).normal(size=(config.d, config.classes))
    basis, _ = np.linalg.qr(raw)
    centers = 4.0 * basis.T[: config.classes]
    labels = np.arange(config.points_per_client) % config.classes
    return [
        (centers[labels] + _stream(config.seed, _STREAM_CLIENT_DATA, cid).normal(
            size=(config.points_per_client, config.d)), labels)
        for cid in range(config.clients)
    ]


def _client_step(X: np.ndarray, labels: np.ndarray, config, sigma: float, W: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """One client's noisy clipped-mean update and its pre-noise norm."""
    idx = np.sort(rng.choice(len(labels), size=config.batch_size, replace=False))
    X, y = X[idx], labels[idx]
    scores = X @ W.T
    scores -= scores.max(axis=1, keepdims=True)
    exps = np.exp(scores)
    probs = exps / exps.sum(axis=1, keepdims=True)
    probs[np.arange(len(y)), y] -= 1.0
    G = (-config.step_size) * (probs[:, :, None] * X[:, None, :]).reshape(len(y), -1)
    clipped = G * (config.clip / np.maximum(np.linalg.norm(G, axis=1), config.clip))[:, None]
    mean = clipped.mean(axis=0)
    prenoise_norm = float(np.linalg.norm(mean))
    if sigma > 0:
        noise_std = config.clip * sigma / config.batch_size
        mean = mean + rng.normal(0.0, noise_std, size=mean.shape)
    return mean, prenoise_norm


def per_client_training(config):
    """(model, round records, ledger) of config, one client step at a time."""
    sigma = config.resolve_sigma()
    clients = client_data(config)
    ledger = ParticipationLedger()
    W = np.zeros((config.classes, config.d))
    step = StepParams(q=config.sampling_ratio, sigma=sigma, clip=config.clip,
                      batch_size=config.batch_size)
    records = []
    for t in range(1, config.rounds + 1):
        if config.dropout_prob > 0:
            draws = _stream(config.seed, _STREAM_AVAILABILITY, t).random(config.clients)
            available = [cid for cid in range(config.clients) if draws[cid] >= config.dropout_prob]
        else:
            available = list(range(config.clients))
        m_eff = min(config.m_t, len(available))
        picked = _stream(config.seed, _STREAM_SELECTION, t).choice(len(available), size=m_eff, replace=False)
        chosen = sorted(available[i] for i in picked)
        updates, norms = [], []
        for cid in chosen:
            rng = _stream(config.seed, _STREAM_CLIENT_STEP, t, cid)
            upd, norm = _client_step(*clients[cid], config, sigma, W, rng)
            updates.append(upd)
            norms.append(norm)
            ledger.record(cid, t, step)
        if updates:
            stacked = np.stack([np.asarray(u, dtype=np.float64) for u in updates])
            W = W + stacked.mean(axis=0).reshape(W.shape)
        records.append(RoundRecord(t=t, selected=tuple(chosen), update_norms=tuple(norms)))
    return W, records, ledger
