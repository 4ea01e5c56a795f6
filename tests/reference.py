"""Independent oracles used by the test suite.

Nothing here imports from the package's numerical internals (only the
ledger's public types, for the reference parser, the simulator's round
record, for the per-client training loop, which builds its own data, and
calibration's per-sigma epsilon, for the reference search, which checks
where the search looks, not what it finds there); every routine
re-derives its target quantity by a different route (Monte Carlo, binomial
closed forms, the split series at 40 digits, plain gradient descent, a
search that doubles from the smallest sigma) so that agreement is evidence
rather than tautology.

Notation used throughout: the mechanism compares the mixture
q*N(1, s^2) + (1-q)*N(0, s^2) against N(0, s^2) with s = sigma/2, and
L(theta) denotes the likelihood ratio N(1,s^2)/N(0,s^2) evaluated at
theta drawn from N(0, s^2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from fedrdp import accountant
from fedrdp.accountant import (
    CALIBRATION_REL_TOL,
    CALIBRATION_SIGMA_LOW,
    CALIBRATION_SIGMA_MAX,
    DEFAULT_ALPHAS,
    CalibrationError,
    ParticipationLedger,
)
from fedrdp.simulate import RoundRecord

# chi-square critical value at p = 0.001 for 5 degrees of freedom
# (uniformity test over the 6 subsets of size 2 from 4 clients).
CHI2_DF5_P001 = 20.515


# --- frozen-dataclass twins of the package's value classes -------------------
#
# The package declares StepParams, PrivacyBudget, RdpCurve, MechanismParams and
# BoundResult without dataclasses; these twins are the frozen dataclasses they
# must behave as.  They hold fields only: a twin is built from a package
# instance's checked values.


@dataclass(frozen=True)
class StepParams:
    q: float
    sigma: float
    clip: float
    batch_size: int


@dataclass(frozen=True)
class PrivacyBudget:
    epsilon: float
    delta: float


@dataclass(frozen=True)
class RdpCurve:
    alphas: tuple[float, ...]
    values: tuple[float, ...]


@dataclass(frozen=True)
class MechanismParams:
    q: float
    sigma: float


@dataclass(frozen=True)
class BoundResult:
    bound: float
    leading_sum: float
    remainder: float
    m: int
    path: str


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
    a = 1.0 / (2 * s * s)
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
        # w = N_0 / proposal = (k+1) / sum_j exp(a j (2 theta - j)); the
        # exponent is largest at the j nearest theta, so shift by its value
        # there and sum one column at a time, in place
        two_theta = 2 * theta
        top = np.clip(np.round(theta), 0, k)
        shift = a * top * (two_theta - top)
        acc = np.zeros(n)
        col = np.empty(n)
        for j in range(k + 1):
            np.subtract(two_theta, j, out=col)
            col *= a * j
            col -= shift
            acc += np.exp(col, out=col)
        log_w = math.log(k + 1) - shift - np.log(acc, out=acc)
        # log|L-1|, from log L = a (2 theta - 1): log L + log1p(-1/L) where
        # L > 1, log1p(-L) where not
        log_L = np.subtract(two_theta, 1.0, out=two_theta)
        log_L *= a
        log_abs = np.log1p(-np.exp(-np.abs(log_L)))
        log_abs += np.maximum(log_L, 0.0)
        x = np.exp(np.add(k * log_abs, log_w, out=log_abs), out=log_abs)
        if k % 2:
            x[log_L <= 0] *= -1.0
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


def central_moment_binomial(sigma: float, k: int, dps: int = 200) -> float:
    """E[(L-1)^k] as the alternating binomial sum of E[L^l] at dps digits.

    sum_{l=0}^{k} (-1)^(k-l) C(k,l) exp(2l(l-1)/sigma^2): at large sigma the
    terms cancel to ~k log10(sigma) digits, which 200 digits leave far behind.
    """
    with mp.workdps(dps):
        s2 = mp.mpf(sigma) ** 2
        return float(mp.fsum((-1) ** (k - l) * mp.binomial(k, l) * mp.exp(2 * l * (l - 1) / s2)
                             for l in range(k + 1)))


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


# --- binned divergence --------------------------------------------------------
#
# The divergence of the mechanism's pair over 17 bins of the real line at
# 30 digits, each bin's masses from their own erfc: the edges are the float64
# values the package computes, since the bins depend on them.


def binned_divergence(alpha: float, q: float, sigma: float, dps: int = 30):
    """(D_b, smallest mass): the order-alpha divergence of P and Q over the
    bins cut at alpha + (k - 7.5) 0.2 sigma, k = 0..15, and the smallest mass
    of Q or N(1, s^2) in a bin, at dps digits."""
    edges = [alpha + (k - 7.5) * (0.2 * sigma) for k in range(16)]
    with mp.workdps(dps):
        al, qm = mp.mpf(alpha), mp.mpf(q)
        r2s = mp.mpf(sigma) / mp.sqrt(2)

        def masses(mu):
            above = [mp.erfc((mp.mpf(e) - mu) / r2s) / 2 for e in edges]  # each cut's upper tail
            # the first bin's mass from its own tail, as 1 - above[0] loses digits
            first = mp.erfc(-(mp.mpf(edges[0]) - mu) / r2s) / 2
            return [first] + [a - b for a, b in zip(above, above[1:])] + [above[-1]]

        rs, ms = masses(0), masses(1)
        total = mp.fsum(((1 - qm) * r + qm * m) ** al * r ** (1 - al) for r, m in zip(rs, ms))
        return mp.log(total) / (al - 1), min(rs + ms)


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
        params = accountant.StepParams(
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
        params = accountant.StepParams(
            q=float(fields[2]),
            sigma=float(fields[3]),
            clip=float(fields[4]),
            batch_size=int(fields[5]),
        )
        ledger.record(client_id, int(fields[1]), params)
    return ledger.steps(client_id)


def is_canonical_line_start(data: bytes, pos: int) -> bool:
    """Whether the line starting at data[pos] may stand in a ledger.

    It may if it is blank (only spaces and tabs up to the next "\n" or the
    end of data) or starts with a canonical client id and a tab: "0", or an
    optional "-" and a nonzero digit followed by digits, then "\t".
    """
    end = data.find(b"\n", pos)
    line = data[pos:] if end < 0 else data[pos:end]
    if not line.strip(b" \t"):
        return True
    first, tab, _ = line.partition(b"\t")
    digits = first[1:] if first.startswith(b"-") else first
    canonical = first == b"0" or (digits.isdigit() and not digits.startswith(b"0"))
    return bool(tab) and canonical


# --- calibration's search --------------------------------------------------
#
# calibrate_sigma's search as it was before its first probe came from a
# closed-form guess: double sigma from CALIBRATION_SIGMA_LOW until the target
# is met, then narrow the bracket by the Illinois method in log sigma.  Each
# probe's epsilon is the package's own, so the two searches can be compared
# bit for bit.


def calibrate_sigma_doubling(target: accountant.PrivacyBudget, q: float, steps: int) -> float:
    """calibrate_sigma's result on DEFAULT_ALPHAS, or its CalibrationError,
    by doubling from 0.3.

    q and steps must be values calibrate_sigma accepts, and target.epsilon
    must lie above the grid's conversion floor (calibrate_sigma rejects the
    target before any search otherwise).
    """
    walk = accountant._calibration_walk(DEFAULT_ALPHAS, target.delta)

    def eps(sigma: float) -> float:
        return accountant._calibration_epsilon(q, sigma, steps, walk)[0]

    lo = CALIBRATION_SIGMA_LOW
    eps_lo = eps(lo)
    if eps_lo <= target.epsilon:
        return lo
    hi, eps_hi = lo, eps_lo
    while eps_hi > target.epsilon:
        lo, eps_lo = hi, eps_hi
        hi *= 2.0
        if hi > CALIBRATION_SIGMA_MAX:
            raise CalibrationError(
                f"target epsilon={target.epsilon} unreachable: at sigma={lo} "
                f"the composed epsilon is still {eps_lo:.6g}",
                epsilon_at_bracket=eps_lo,
            )
        eps_hi = eps(hi)
    width = -math.log1p(-CALIBRATION_REL_TOL)
    log_target = math.log(target.epsilon)
    xa, ga = math.log(lo), math.log(eps_lo) - log_target
    xb, gb, b_meets = math.log(hi), math.log(eps_hi) - log_target, True
    while hi - lo > CALIBRATION_REL_TOL * hi:
        x = xb - gb * (xb - xa) / (gb - ga) + math.copysign(0.4 * width, xa - xb)
        x = min(max(x, min(xa, xb) + 0.25 * width), max(xa, xb) - 0.25 * width)
        sigma = math.exp(x)
        e = eps(sigma)
        meets = e <= target.epsilon
        if meets:
            hi = sigma
        else:
            lo = sigma
        if meets == b_meets:
            ga /= 2.0
        else:
            xa, ga = xb, gb
        xb, gb, b_meets = x, math.log(e) - log_target, meets
    return hi


# --- plain logistic-regression training ----------------------------------


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def materialised_step(X: np.ndarray, y: np.ndarray, W: np.ndarray, step_size: float,
                      clip: float) -> tuple[np.ndarray, np.ndarray]:
    """(clipped mean update, per-sample directions) of one batch, built row by row.

    Row i of the (n, classes*d) directions is -step_size * outer(p_i, x_i),
    p_i sample i's softmax minus one-hot, materialised; each row is scaled
    to norm at most clip by its np.linalg.norm, and the update is their mean.
    """
    probs = softmax_rows(X @ W.T)
    probs[np.arange(len(y)), y] -= 1.0
    G = (-step_size) * (probs[:, :, None] * X[:, None, :]).reshape(len(y), -1)
    clipped = G * (clip / np.maximum(np.linalg.norm(G, axis=1), clip))[:, None]
    return clipped.mean(axis=0), G


def logistic_gd_reference(
    X: np.ndarray,
    y: np.ndarray,
    classes: int,
    rounds: int,
    step_size: float,
    clip: float,
) -> np.ndarray:
    """Full-batch gradient descent with per-sample clipping; flat weights."""
    W = np.zeros((classes, X.shape[1]))
    for _ in range(rounds):
        W = W + materialised_step(X, y, W, step_size, clip)[0].reshape(W.shape)
    return W.reshape(-1)


def accuracy_of(weights_flat: np.ndarray, classes: int, X: np.ndarray, y: np.ndarray) -> float:
    W = weights_flat.reshape(classes, -1)
    return float(np.mean(np.argmax(X @ W.T, axis=1) == y))


# --- per-client federated training -----------------------------------------
#
# The training loop as it ran before client steps were stacked: one client
# at a time, each with its own 2-D arrays, its own norm and its own noise,
# on a (classes, d) weight array, on the data client_data builds.  Same
# SeedSequence streams as the package, (seed, tag[, round or client]), and
# the same draws from them: a uniform subset of the ascending available ids,
# then, from the round's client-step stream, each selected client's batch
# draws in turn, and after all of them each client's noise in turn.  The
# batch is Floyd's sample with a Python set.

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


def floyd_sample(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Floyd's uniform k-subset of range(n), sorted: for j = n-k .. n-1, add
    a draw from [0, j], or j if the draw is in the set already."""
    draws = rng.integers(0, np.arange(n - k, n) + 1, size=k)
    picked: set[int] = set()
    for j, draw in zip(range(n - k, n), draws.tolist()):
        picked.add(j if draw in picked else draw)
    return np.array(sorted(picked))


def _client_step(X: np.ndarray, labels: np.ndarray, config, idx: np.ndarray,
                 noise: np.ndarray | None, W: np.ndarray) -> tuple[np.ndarray, float]:
    """One client's noisy clipped-mean update on the points idx, and its pre-noise norm.

    Sample j's direction -step * outer(p_j, x_j) is never built: its norm is
    step * |p_j| * |x_j|, and the clipped mean is one (classes, b) @ (b, d)
    product of the clip-scaled p with the batch.  materialised_step builds
    the directions instead, to check this within rounding.
    """
    X, y = X[idx], labels[idx]
    scores = X @ W.T
    scores -= scores.max(axis=1, keepdims=True)
    exps = np.exp(scores)
    probs = exps / exps.sum(axis=1, keepdims=True)
    probs[np.arange(len(y)), y] -= 1.0
    p_norms = np.sqrt(np.einsum("...i,...i", probs, probs))
    x_norms = np.sqrt(np.einsum("...i,...i", X, X))
    probs *= (config.clip / np.maximum(config.step_size * p_norms * x_norms, config.clip))[:, None]
    mean = ((-config.step_size / config.batch_size) * (probs.T @ X)).reshape(-1)
    prenoise_norm = float(np.linalg.norm(mean))
    if noise is not None:
        mean = mean + noise
    return mean, prenoise_norm


def per_client_training(config):
    """(model, round records, ledger) of config, one client step at a time."""
    sigma = config.resolve_sigma()
    clients = client_data(config)
    ledger = ParticipationLedger()
    W = np.zeros((config.classes, config.d))
    step = accountant.StepParams(q=config.sampling_ratio, sigma=sigma, clip=config.clip,
                                 batch_size=config.batch_size)
    size = config.classes * config.d
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
        rng = _stream(config.seed, _STREAM_CLIENT_STEP, t)
        batches = [floyd_sample(config.points_per_client, config.batch_size, rng) for _ in chosen]
        noises = [rng.normal(0.0, config.clip * sigma / config.batch_size, size=size)
                  if sigma > 0 else None for _ in chosen]
        updates, norms = [], []
        for cid, idx, noise in zip(chosen, batches, noises):
            upd, norm = _client_step(*clients[cid], config, idx, noise, W)
            updates.append(upd)
            norms.append(norm)
            ledger.record(cid, t, step)
        if updates:
            stacked = np.stack([np.asarray(u, dtype=np.float64) for u in updates])
            W = W + stacked.mean(axis=0).reshape(W.shape)
        records.append(RoundRecord(t=t, selected=tuple(chosen), update_norms=tuple(norms)))
    return W, records, ledger
