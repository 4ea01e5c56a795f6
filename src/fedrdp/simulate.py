"""Seedable federated-learning simulator with per-step privacy ledgering.

The training loop follows the standard pattern: each round, a uniform subset
of the available clients is selected; every selected client draws a
fixed-size minibatch from its local dataset, averages clipped per-sample
update directions, adds isotropic Gaussian noise with per-coordinate
standard deviation clip * sigma / batch_size, and the server adds the mean
of the returned updates to the model.  Every client participation lands in a
ParticipationLedger with the exact (q, sigma, clip, batch_size) used, so the
accountant can replay privacy per client afterwards.

Model family: multinomial logistic regression on synthetic Gaussian blobs;
the model is a plain (classes, d) float64 weight array.
Class centers are mutually orthogonal with norm BLOB_RADIUS, so the classes
are linearly separable by a wide margin and convergence is checkable against
a deterministic full-batch baseline.  The scalar step size is folded into
the per-sample update direction before clipping.  The data is two read-only
arrays: (clients, points, d) features and the (points,) labels all share.

RNG discipline: one root seed; every random draw comes from a stream of
its own, the one np.random.default_rng(np.random.SeedSequence(entropy))
gives for an entropy tuple

    (seed, stream_tag)                    data centers
    (seed, stream_tag, client_id)         client data
    (seed, stream_tag, round)             availability, selection, trace
    (seed, stream_tag, round, client_id)  client batch + noise

with the tags below.  No SeedSequence is built: _seed_words hashes many
entropies (all clients, all rounds, or every client step of a block of
rounds) in one numpy pass with SeedSequence's own mixing, and _pcg64 seeds
all their PCG64 states, and draws raw words from them, in one more pass of
128-bit arithmetic on uint64 pairs.  Each data build, run_training or
batch_size_trace call makes one Generator, which it seeds for stream after
stream by assigning its PCG64 state, drawing from each stream before
seeding the next (the tests pin this to NumPy's seeding, state and draws).
No draw depends on the model, so run_training draws a block of rounds
first, up to 1024 client steps and about 1 MB of draws, and then does the
block's model math round by round.  A client step draws its batch and then
its noise from its own stream.  The batch is the sorted sample of
Generator.choice(points, batch_size, replace=False).  A round of at least
10 clients, no fewer than batch_size, on at most 10000 points calls no
choice: _pcg64 gives each client step the raw PCG64 words choice would
consume, the step draws its noise from the state after them, and one numpy
pass per block turns every step's words into its batch as choice does
(Floyd's algorithm over NumPy's Lemire draws, one per 32-bit half of a
word).  A step whose words might make a draw be rejected and drawn again
re-seeds its stream and calls choice.  Other rounds call choice per client:
the pass loops once per batch element, and with few clients or large
batches it is the slower.  A round gathers all its batches from the data
arrays with one index and computes all its client steps in one numpy pass
over the stacked batches, doing for each client the same float operations
as on that client's arrays alone (the tests check this against a
one-client-at-a-time loop that calls choice).  So trajectories are
bit-reproducible regardless of the order or grouping in which client
updates are computed.
Poisson batch sampling exists only for the batch-size trace contrast; the
training loop itself always draws fixed-size batches (the accountant
covers nothing else).
"""

from __future__ import annotations

import decimal
import itertools
import json
import math
import operator
import os
from collections import Counter
from dataclasses import dataclass, fields, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .accountant import (
    DEFAULT_ALPHAS,
    ParticipationLedger,
    PrivacyBudget,
    RdpCurve,
    StepParams,
    _orders,
    calibrate_sigma,
    compose_client_rdp,
    rdp_to_dp,
    write_atomic,
)
from .divergence import _number

__all__ = [
    "BLOB_RADIUS",
    "SimConfig",
    "ClientState",
    "RoundRecord",
    "run_training",
    "batch_size_trace",
    "generate_client_data",
    "evaluate_accuracy",
    "client_epsilon_report",
    "write_artifacts",
]

BLOB_RADIUS = 4.0

# SeedSequence stream tags (second entropy word).
_STREAM_CENTERS = 1
_STREAM_CLIENT_DATA = 2
_STREAM_AVAILABILITY = 3
_STREAM_SELECTION = 4
_STREAM_CLIENT_STEP = 5
_STREAM_TRACE = 6

# SimConfig's number fields, checked in this order: name, kind and what an
# error calls it, the range given the config so far, and the range's error
_INTEGER = (int, "an integer")
_REAL = (float, "a real number within float range")
_CONFIG_FIELDS = (
    ("rounds", _INTEGER, lambda n, c: n >= 1, "rounds must be >= 1"),
    ("clients", _INTEGER, lambda n, c: n >= 1, "clients must be >= 1"),
    ("m_t", _INTEGER, lambda n, c: 0 <= n <= c.clients, "m_t must lie in [0, clients]"),
    ("d", _INTEGER, lambda n, c: n >= 1, "d must be >= 1"),
    ("classes", _INTEGER, lambda n, c: 2 <= n <= c.d, "classes must lie in [2, d]"),
    ("points_per_client", _INTEGER, lambda n, c: n >= 1, "points_per_client must be >= 1"),
    ("batch_size", _INTEGER, lambda n, c: 1 <= n <= c.points_per_client,
     "batch_size must lie in [1, points_per_client]"),
    ("clip", _REAL, lambda x, c: 0 < x < math.inf, "clip must be > 0 and finite"),
    ("sigma", _REAL, lambda x, c: 0 <= x < math.inf, "sigma must be a finite real >= 0"),
    ("target_epsilon", _REAL, lambda x, c: x > 0, "target_epsilon must be > 0"),
    ("delta", _REAL, lambda x, c: 0 < x < 1, "delta must lie in (0, 1)"),
    ("seed", _INTEGER, lambda n, c: n >= 0, "seed must be >= 0"),
    ("dropout_prob", _REAL, lambda x, c: 0 <= x < 1, "dropout_prob must lie in [0, 1)"),
    ("step_size", _REAL, lambda x, c: 0 < x < math.inf, "step_size must be > 0 and finite"),
)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and PCG64's
# 128-bit multiplier (numpy/random/src/pcg64/pcg64.h).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_LOW32 = np.uint64(_MASK32)


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """(n, 1) uint32 column init * mult**k mod 2**32, k = 0..n-1."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(n)],
                    dtype=np.uint32)[:, None]


# hashmix call k XORs with consts[k] and multiplies by consts[k + 1]; the pool
# takes 16 calls plus 4 per entropy word beyond its 4
_HASH_A = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * 4)
_HASH_B = _hash_consts(_INIT_B, _MULT_B, 9)
_OTHER_WORDS = [np.array([i for i in range(4) if i != src]) for src in range(4)]
_STATE_WORDS = np.array([0, 1, 2, 3, 0, 1, 2, 3])


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_L - y * _MIX_R
    return result ^ (result >> 16)


def _seed_words(prefix: Sequence[int], *columns: Sequence[int]) -> np.ndarray:
    """SeedSequence([*prefix, *column_entries]).generate_state(4, np.uint64).

    One row per position j of the equally long columns: the entropy is the
    prefix followed by each column's entry j.  One numpy pass over all rows,
    each a column of uint32 words: the entropy (each int as its
    little-endian 32-bit words, the whole padded with zero words to the pool
    size 4), hashed into the pool, the pool mixed, and 8 words drawn from
    it.  Every column entry must fit one word.  Returns (rows, 4) uint64.
    """
    head = [n >> s & _MASK32 for n in prefix for s in range(0, max(n.bit_length(), 1), 32)]
    tail = np.array(columns, dtype=np.uint32)
    entropy = np.zeros((max(len(head) + len(tail), 4), tail.shape[1]), dtype=np.uint32)
    entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
    entropy[len(head) : len(head) + len(tail)] = tail
    n_consts = 17 + 4 * (len(entropy) - 4)
    consts = _HASH_A if n_consts <= len(_HASH_A) else _hash_consts(_INIT_A, _MULT_A, n_consts)
    pool = _hashmix(entropy[:4], consts[:5])
    k = 4
    for src, dst in enumerate(_OTHER_WORDS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[k : k + 4]))
        k += 3
    for word in entropy[4:]:
        pool = _mix(pool, _hashmix(word, consts[k : k + 5]))
        k += 4
    out = _hashmix(pool[_STATE_WORDS], _HASH_B).astype(np.uint64)
    return (out[0::2] | out[1::2] << np.uint64(32)).T


# 128-bit numbers as (hi, lo) pairs of uint64 arrays; numpy's uint64
# arithmetic wraps modulo 2**64


def _split128(values: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


def _join128(hi: np.ndarray, lo: np.ndarray) -> list[int]:
    return [h << 64 | l for h, l in zip(hi.tolist(), lo.tolist())]


def _add128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _mul128(a_hi, a_lo, b_hi, b_lo) -> tuple[np.ndarray, np.ndarray]:
    """a * b mod 2**128: the full product of the low words, plus the cross terms."""
    a0, a1, b0, b1 = a_lo & _LOW32, a_lo >> 32, b_lo & _LOW32, b_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> 32) + (p01 & _LOW32) + (p10 & _LOW32)) >> 32
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry + a_lo * b_hi + a_hi * b_lo
    return hi, a_lo * b_lo


def _pcg64(seeds: np.ndarray, n_words: int) -> tuple[list[int], list[int], np.ndarray]:
    """PCG64 seeded with each row of seeds, as numpy seeds it, then n_words drawn.

    A row is the generate_state(4, np.uint64) of the stream's SeedSequence
    (_seed_words).  Returns each stream's state after its n_words raw words
    and its increment, both as 128-bit ints, and the (rows, n_words) uint64
    words: what random_raw(n_words) returns and where it leaves the state.
    """
    s_hi, s_lo, i_hi, i_lo = seeds.T[:, :, None]
    # pcg64_set_seed: inc = 2 * initseq + 1; state 0 takes an LCG step, adds
    # the seed and takes another.  Each word is the output (XSL-RR) of the
    # state one more step on, so from x = seed + inc, the state j + 1 steps on
    # is x * MULT**(j + 1) + inc * (MULT**j + ... + 1)
    inc = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    powers = [pow(_PCG64_MULT, j, 1 << 128) for j in range(n_words + 2)]
    sums = [s % (1 << 128) for s in itertools.accumulate(powers[:-1])]
    hi, lo = _add128(*_mul128(*_add128(s_hi, s_lo, *inc), *_split128(powers[1:])),
                     *_mul128(*inc, *_split128(sums)))
    # XSL-RR rotates right by the top 6 bits; numpy's shift by 64 gives 0
    value, rotation = hi[:, 1:] ^ lo[:, 1:], hi[:, 1:] >> 58
    words = value >> rotation | value << (np.uint64(64) - rotation)
    return _join128(hi[:, -1], lo[:, -1]), _join128(inc[0][:, 0], inc[1][:, 0]), words


def _seeded(
    gen: np.random.Generator, states: Sequence[int], incs: Sequence[int]
) -> Iterator[np.random.Generator]:
    """gen with its PCG64 state set in turn to each (state, inc) pair.

    Each yield re-seeds the same Generator, so draw from it before taking
    the next.  One dict is reused for every assignment.
    """
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    bit_generator = gen.bit_generator
    for pcg["state"], pcg["inc"] in zip(states, incs):
        bit_generator.state = state
        yield gen


def _streams(
    gen: np.random.Generator, prefix: Sequence[int], ids: Sequence[int]
) -> Iterator[np.random.Generator]:
    """gen seeded in turn, per id, as default_rng(SeedSequence([*prefix, id])).

    Each yield re-seeds the same Generator, so draw from it before taking
    the next.  Ids are hashed 1024 at a time, which bounds the memory.
    """
    for start in range(0, len(ids), 1024):
        states, incs, _ = _pcg64(_seed_words(prefix, ids[start : start + 1024]), 0)
        yield from _seeded(gen, states, incs)


def _generator() -> np.random.Generator:
    """A Generator for _streams and _step_draws to seed; its own seed is never drawn from."""
    return np.random.Generator(np.random.PCG64(0))


@dataclass(frozen=True)
class SimConfig:
    """Run configuration; loaded from a JSON file with the same key names.

    Exactly one of sigma / target_epsilon must be set.  With target_epsilon,
    the noise multiplier is calibrated for `rounds` steps at sampling ratio
    batch_size / points_per_client, which upper-bounds every client's actual
    participation count, so each client's realized epsilon is at most the
    target.  Number fields follow the package's rule for numbers (see the
    README) and are stored as built-in int and float.
    """

    rounds: int
    clients: int
    d: int
    classes: int
    points_per_client: int
    batch_size: int
    clip: float
    m_t: int | None = None
    sigma: float | None = None
    target_epsilon: float | None = None
    delta: float = 1e-5
    seed: int = 0
    dropout_prob: float = 0.0
    step_size: float = 0.1

    def __post_init__(self):
        if self.m_t is None:
            object.__setattr__(self, "m_t", self.clients)
        for name, (kind, what), ok, message in _CONFIG_FIELDS:
            value = getattr(self, name)
            if value is None and name in ("sigma", "target_epsilon"):
                continue
            number = _number(value, kind, f"{name} must be {what}")
            if not ok(number, self):
                raise ValueError(message)
            object.__setattr__(self, name, number)
        if (self.sigma is None) == (self.target_epsilon is None):
            raise ValueError("exactly one of sigma / target_epsilon must be set")
        if self.sigma is not None and not math.isfinite(float(self.clip) * self.sigma / self.batch_size):
            raise ValueError("noise std clip * sigma / batch_size must be finite")

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "SimConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @property
    def sampling_ratio(self) -> float:
        return self.batch_size / self.points_per_client

    def resolve_sigma(self) -> float:
        """The noise multiplier to run with (calibrating if necessary)."""
        if self.sigma is not None:
            return self.sigma
        return calibrate_sigma(
            PrivacyBudget(self.target_epsilon, self.delta),
            q=self.sampling_ratio,
            steps=self.rounds,
        )


@dataclass(frozen=True, eq=False)
class ClientState:
    """One client's data, as views; a client's id is its index in the list."""

    features: np.ndarray  # (n_points, d)
    labels: np.ndarray  # (n_points,) ints in [0, classes)


@dataclass(frozen=True)
class RoundRecord:
    """Per-round log entry: who was selected and what they sent back.

    update_norms align with `selected` (ascending client id); they are
    pre-noise norms of the clipped-average update.
    """

    t: int
    selected: tuple[int, ...]
    update_norms: tuple[float, ...]


def generate_client_data(config: SimConfig, sigma: float | None = None) -> list[ClientState]:
    """Synthetic blob datasets, one per client, sharing the class centers.

    Centers are orthonormal directions scaled to BLOB_RADIUS (seeded QR),
    points are center + standard normal noise, labels round-robin over
    classes so every client sees every class.  sigma is ignored: the data
    does not depend on it.  Client i's view holds row i of the kept
    read-only features array and the shared labels array, so run_training
    on a config with this data trains on it without building it again.
    """
    features, labels = _client_data(config)
    return [ClientState(points, labels) for points in features]


# the last dataset built, keyed by the config fields it depends on
_KEPT_DATA: dict = {}


def _client_data(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (clients, points, d) features and (points,) labels, kept."""
    key = (config.seed, config.clients, config.points_per_client, config.d, config.classes)
    if key not in _KEPT_DATA:
        _KEPT_DATA.clear()  # free the last dataset before building the next
        gen = _generator()
        centers_rng = next(_streams(gen, (config.seed,), [_STREAM_CENTERS]))
        raw = centers_rng.normal(size=(config.d, config.classes))
        basis, _ = np.linalg.qr(raw)
        centers = BLOB_RADIUS * basis.T[: config.classes]  # (classes, d)
        labels = np.arange(config.points_per_client) % config.classes
        features = np.empty((config.clients, config.points_per_client, config.d))
        clients = range(config.clients)
        for cid, rng in zip(clients, _streams(gen, (config.seed, _STREAM_CLIENT_DATA), clients)):
            features[cid] = rng.normal(size=(config.points_per_client, config.d))
        features += centers[labels]
        features.flags.writeable = labels.flags.writeable = False
        _KEPT_DATA[key] = features, labels
    return _KEPT_DATA[key]


def _select_clients(available: list[int], m_t: int, rng: np.random.Generator) -> list[int]:
    """Uniformly random size-m_t subset of the ascending available ids, ascending."""
    return sorted(available[i] for i in rng.choice(len(available), size=m_t, replace=False))


def _sample_fixed_batch(dataset_size: int, batch_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniformly random subset of exactly batch_size indices, sorted."""
    return np.sort(rng.choice(dataset_size, size=batch_size, replace=False))


def _sample_poisson_batch(dataset_size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Each index included independently with probability `rate`; sorted."""
    return np.nonzero(rng.random(dataset_size) < rate)[0]


def _per_sample_directions(W: np.ndarray, X: np.ndarray, y: np.ndarray, step_size: float) -> np.ndarray:
    """Per-sample update directions -step * grad of the logistic loss, flat.

    W is the (classes, d) model, X is (..., n, d) and y (..., n); returns an
    (..., n, classes*d) array whose row i is the direction sample i votes
    for before clipping.  Leading axes stack independent batches, each
    computed as if alone.
    """
    scores = X @ W.T  # (..., n, classes)
    scores -= scores.max(axis=-1, keepdims=True)
    exps = np.exp(scores)
    probs = exps / exps.sum(axis=-1, keepdims=True)
    probs[(*np.indices(y.shape, sparse=True), y)] -= 1.0  # now softmax - onehot
    # grad of loss wrt W for sample i is outer(probs_i, x_i)
    grads = probs[..., :, None] * X[..., None, :]
    return (-step_size) * grads.reshape(*y.shape, -1)


def _clip_rows(G: np.ndarray, clip: float) -> np.ndarray:
    """Each row of G scaled to norm at most clip, preserving its direction."""
    return G * (clip / np.maximum(np.linalg.norm(G, axis=-1), clip))[..., None]


def _choice_bounds(n: int, k: int) -> np.ndarray:
    """Bounds j of the draws from [0, j] that rng.choice(n, k, replace=False) makes.

    In order: Floyd's algorithm draws with bounds n-k .. n-1 (a bound of 0
    takes no draw), then the shuffle of its k picks with bounds k-1 .. 1.
    Each draw is NumPy's Lemire draw from one 32-bit word.  choice runs
    Floyd's algorithm wherever n <= 10000.
    """
    return np.concatenate([np.arange(max(n - k, 1), n), np.arange(k - 1, 0, -1)]).astype(np.uint64)


def _fixed_batches(
    n: int, k: int, bounds: np.ndarray, words: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Batches drawn from raw words, unsorted, and which rows are choice's.

    Row i of words holds the first ceil(len(bounds) / 2) words of a freshly
    seeded PCG64 stream; their 32-bit halves, low half first, are the words
    of choice(n, k, replace=False)'s draws, one per bound j.  Lemire's
    multiply-shift maps a half h to h * (j + 1) >> 32, and choice draws again
    only where the low 32 bits of that product are below j + 1: such a row
    is marked False and its batch is not choice's.  Floyd's rule then picks,
    bound by bound, the draw, or j if the draw was picked before.  The
    shuffle's draws only reorder the picks, so a row sorted is choice's
    sample sorted.
    """
    m = len(words)
    halves = np.stack([words & _MASK32, words >> 32], axis=-1).reshape(m, -1)[:, : len(bounds)]
    scaled = halves * (bounds + 1)
    exact = ((scaled & _MASK32) > bounds).all(axis=1)
    draws = (scaled >> 32).astype(np.intp)
    if k == n:
        draws = np.column_stack([np.zeros(m, dtype=np.intp), draws])  # bound 0 draws 0
    # picks are flat indices into `taken`, whose row i is client i's n points
    starts = np.arange(0, m * n, n)
    taken = np.zeros(m * n, dtype=bool)
    picks = np.empty((k, m), dtype=np.intp)
    for pick, draw, j in zip(picks, draws[:, :k].T + starts, np.arange(n - k, n)[:, None] + starts):
        pick[:] = np.where(taken[draw], j, draw)
        taken[pick] = True
    return (picks - starts).T, exact


def _step_draws(
    gen: np.random.Generator, config: SimConfig, block: Sequence[tuple[int, Sequence[int]]]
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted batches and noise of every client step of a block of rounds.

    block lists (t, selected) pairs; row i of the (steps, batch_size) batches
    and the (steps, classes*d) noise is the i-th step, rounds in order and
    clients in their order within a round.  Step (t, cid) draws from its own
    stream (seed, _STREAM_CLIENT_STEP, t, cid): its batch,
    _sample_fixed_batch's, then its noise of per-coordinate std
    clip*sigma/batch_size.  The noise is left unset when sigma is 0.  All
    streams are seeded in one numpy pass (_pcg64).  Where a round has at
    least 10 clients, no fewer than batch_size, and at most 10000 points,
    its steps call no choice: _pcg64 also returns the raw words choice would
    take (_choice_bounds), each step draws its noise from the state after
    them, and one _fixed_batches call turns all the words into batches.  A
    step whose words might make choice draw again, and every step of other
    rounds, takes its batch and noise through choice from its freshly
    seeded stream.  All batches are sorted in one call.
    """
    n, k, size = config.points_per_client, config.batch_size, config.classes * config.d
    noise_std = config.clip * config.sigma / k
    ts = [t for t, selected in block for _ in selected]
    cids = [cid for _, selected in block for cid in selected]
    seeds = _seed_words((config.seed, _STREAM_CLIENT_STEP), ts, cids)
    batches = np.empty((len(cids), k), dtype=np.intp)
    noise = np.empty((len(cids), size))
    # _fixed_batches loops once per batch element over a (steps, n) bitmap,
    # so it was measured faster than a choice call per step only in rounds of
    # many clients and small batches; choice runs Floyd's algorithm wherever
    # n <= 10000
    from_words = np.repeat([n <= 10000 and len(selected) >= max(k, 10) for _, selected in block],
                           [len(selected) for _, selected in block])
    raw = np.flatnonzero(from_words)
    if len(raw):
        bounds = _choice_bounds(n, k)
        states, incs, words = _pcg64(seeds[raw], (len(bounds) + 1) // 2)
        if config.sigma > 0:
            for i, rng in zip(raw.tolist(), _seeded(gen, states, incs)):
                noise[i] = rng.normal(0.0, noise_std, size=size)
        batches[raw], from_words[raw] = _fixed_batches(n, k, bounds, words)
    redo = np.flatnonzero(~from_words)
    states, incs, _ = _pcg64(seeds[redo], 0)
    for i, rng in zip(redo.tolist(), _seeded(gen, states, incs)):
        batches[i] = rng.choice(n, size=k, replace=False)
        if config.sigma > 0:
            noise[i] = rng.normal(0.0, noise_std, size=size)
    batches.sort(axis=1)
    return batches, noise


def _round_updates(
    W: np.ndarray, features: np.ndarray, labels: np.ndarray, selected: Sequence[int],
    batches: np.ndarray, noise: np.ndarray, config: SimConfig,
) -> tuple[np.ndarray, list[float]]:
    """One step of each selected client: (m, classes*d) updates, pre-noise norms.

    Client i of `selected` averages the clipped per-sample directions of the
    points batches[i] (sorted indices into its row of features) and, if
    sigma > 0, adds noise[i] (_step_draws draws both).  Every client steps
    with the config's batch_size, clip and step_size, so the directions,
    clipping and means run once on the stacked (m, b, d) batches.
    """
    X = features[np.asarray(selected)[:, None], batches]
    G = _per_sample_directions(W, X, labels[batches], config.step_size)
    updates = _clip_rows(G, config.clip).mean(axis=1)
    # a row's np.linalg.norm is the square root of one BLAS dot of the row
    # with itself, and a (1, n) @ (n, 1) matmul takes that same dot (as
    # np.vecdot does, which needs NumPy 2)
    norms = np.sqrt(updates[:, None, :] @ updates[:, :, None]).ravel().tolist()
    if config.sigma > 0:
        updates += noise
    return updates, norms


def _selections(gen: np.random.Generator, config: SimConfig) -> Iterator[tuple[int, list[int]]]:
    """(t, selected) for each round t, as run_training's docstring describes."""
    rounds = range(1, config.rounds + 1)
    availability = _streams(gen, (config.seed, _STREAM_AVAILABILITY), rounds)
    selection = _streams(gen, (config.seed, _STREAM_SELECTION), rounds)
    for t in rounds:
        if config.dropout_prob > 0:
            draws = next(availability).random(config.clients)
            available = [cid for cid in range(config.clients) if draws[cid] >= config.dropout_prob]
        else:
            available = list(range(config.clients))
        yield t, _select_clients(available, min(config.m_t, len(available)), next(selection))


def _blocks(config: SimConfig, rounds: Iterable[tuple[int, list[int]]]) -> Iterator[list]:
    """The (t, selected) rounds in order, in blocks whose draws take bounded memory.

    A block holds whole rounds, at least one, of at most 1024 client steps
    in all and about 1 MB of noise, raw words and _fixed_batches' bitmap.
    """
    n = config.points_per_client
    words = (len(_choice_bounds(n, config.batch_size)) + 1) // 2 if n <= 10000 else 0
    step_bytes = 8 * (config.classes * config.d + words) + (n if words else 0)
    block, steps = [], 0
    for t, selected in rounds:
        steps += len(selected)
        if block and (steps > 1024 or steps * step_bytes > 1 << 20):
            yield block
            block, steps = [], len(selected)
        block.append((t, selected))
    yield block


def run_training(config: SimConfig) -> tuple[np.ndarray, list[RoundRecord], ParticipationLedger]:
    """Run the full federated loop, recording every participation.

    Returns the (classes, d) model, one record per round and the ledger.
    The clients train on the data of ``generate_client_data(config)``
    with the step parameters the ledger records, at the sigma the config
    resolves to.
    Rounds are 1-based.  With dropout, each client is independently
    unavailable with probability dropout_prob each round and the round
    selects min(m_t, available) clients.  No draw depends on the model, so
    the rounds run in blocks (_blocks): all the block's batches and noise
    are drawn first (_step_draws), then each round's client steps run as
    one stacked numpy pass (_round_updates), and the server adds the mean of
    their updates, aggregated in ascending client-id order.  Batches are
    always fixed-size, the only sampling the accountant bounds; Poisson
    batches exist only in batch_size_trace.  Raises ValueError if the
    calibrated noise std or a weight is non-finite.
    """
    if config.sigma is None:
        # calibrate once; the rebuilt config checks the noise std at that sigma
        config = replace(config, sigma=config.resolve_sigma(), target_epsilon=None)
    features, labels = _client_data(config)
    ledger = ParticipationLedger()
    model = np.zeros((config.classes, config.d))
    step = StepParams(
        q=config.sampling_ratio,
        sigma=config.sigma,
        clip=config.clip,
        batch_size=config.batch_size,
    )
    records: list[RoundRecord] = []
    # one Generator serves every stream: each is drawn from before the next
    # is seeded
    gen = _generator()
    for block in _blocks(config, _selections(gen, config)):
        batches, noise = _step_draws(gen, config, block)
        start = 0
        for t, selected in block:
            rows = slice(start, start + len(selected))
            start = rows.stop
            norms: list[float] = []
            if selected:
                updates, norms = _round_updates(
                    model, features, labels, selected, batches[rows], noise[rows], config)
                model = model + updates.mean(axis=0).reshape(model.shape)
                for cid in selected:
                    ledger.record(cid, t, step)
            records.append(RoundRecord(t=t, selected=tuple(selected), update_norms=tuple(norms)))
    # a non-finite weight stays non-finite, so one check covers every round
    if not np.all(np.isfinite(model)):
        raise ValueError("weights must be finite")
    return model, records, ledger


def batch_size_trace(config: SimConfig, sampler: str, rounds: int) -> list[int]:
    """Realized batch size per round for the chosen sampler.

    The fixed sampler always returns batch_size elements; the poisson
    sampler includes each of the points_per_client records independently
    with probability batch_size / points_per_client.
    """
    if sampler not in ("fixed", "poisson"):
        raise ValueError(f"sampler must be fixed or poisson, got {sampler!r}")
    rounds = _number(rounds, int, "rounds must be >= 0", lambda n: n >= 0)
    n = config.points_per_client
    sizes = []
    for rng in _streams(_generator(), (config.seed, _STREAM_TRACE), range(1, rounds + 1)):
        if sampler == "fixed":
            sizes.append(int(len(_sample_fixed_batch(n, config.batch_size, rng))))
        else:
            sizes.append(int(len(_sample_poisson_batch(n, config.sampling_ratio, rng))))
    return sizes


def evaluate_accuracy(model: np.ndarray, clients: Sequence[ClientState]) -> float:
    """Fraction of correctly classified points over the union of datasets.

    Each client's points are scored by a product of their own: one product
    over all points concatenated copies them all, and at 500 clients of 100
    points it was measured 5 to 10 times slower, on BLAS's threaded path.
    """
    hits = [np.argmax(c.features @ model.T, axis=1) == c.labels for c in clients]
    return float(np.mean(np.concatenate(hits)))


def client_epsilon_report(
    ledger: ParticipationLedger,
    delta: float,
    alphas=DEFAULT_ALPHAS,
) -> list[tuple[int, int, float]]:
    """(client_id, participations, epsilon) rows for every ledgered client.

    epsilon is the library's (``rdp_to_dp`` of ``compose_client_rdp``)
    rounded up to 12 significant digits: clients.csv writes it with
    ``.12g``, which then prints it exactly, and the value read back is never
    below the library's.  A client with a step admitting no finite bound
    (sigma = 0 or full batch) reports epsilon = +inf rather than raising: a
    non-private run is a legitimate simulator configuration and the report
    should say so.  Any
    other error, such as an invalid delta or order grid, raises.  Clients
    with the same step count per (q, sigma) share one composition: its fsum
    is exactly rounded, so their curve does not depend on the step order.
    """
    alphas = _orders(alphas)
    twelve_digits_up = decimal.Context(prec=12, rounding=decimal.ROUND_CEILING)
    epsilons: dict[frozenset, float] = {}
    rows = []
    for cid in ledger.clients():
        steps = ledger.steps(cid)
        history = frozenset(Counter((p.q, p.sigma) for _, p in steps).items())
        if history not in epsilons:
            if any(sigma == 0 or q == 1 for (q, sigma), _ in history):
                # all orders +inf: rdp_to_dp still checks delta and the grid
                curve = RdpCurve(alphas, (math.inf,) * len(alphas))
            else:
                curve = compose_client_rdp(ledger, cid, alphas)
            epsilon = rdp_to_dp(curve, delta)[0].epsilon
            epsilons[history] = float(twelve_digits_up.create_decimal(epsilon))
        rows.append((cid, len(steps), epsilons[history]))
    return rows


def write_artifacts(
    outdir,
    model: np.ndarray,
    records: Sequence[RoundRecord],
    ledger: ParticipationLedger,
    delta: float,
) -> dict[str, str]:
    """Write model.txt, rounds.csv, clients.csv, ledger.tsv under outdir.

    All output is deterministic given its inputs (no timestamps, fixed row
    order), so identical runs produce byte-identical files.  Each file is
    written atomically, so a failed write leaves that file as it was.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "model": os.path.join(outdir, "model.txt"),
        "rounds": os.path.join(outdir, "rounds.csv"),
        "clients": os.path.join(outdir, "clients.csv"),
        "ledger": os.path.join(outdir, "ledger.tsv"),
    }
    write_atomic(paths["model"], "".join(f"{float(w)!r}\n" for w in model.flat))
    # a row's batch size is the one its ledger step recorded: rows and each
    # client's steps both run in t order, so a client's row j is its step j
    cids = list(itertools.chain.from_iterable(rec.selected for rec in records))
    ts = list(itertools.chain.from_iterable(itertools.repeat(rec.t, len(rec.selected))
                                            for rec in records))
    steps = {cid: iter(ledger.steps(cid)) for cid in ledger.clients()}
    none = iter(())
    paired = [next(steps.get(cid, none), (None, None)) for cid in cids]
    step_ts = list(map(operator.itemgetter(0), paired))
    if step_ts != ts:
        i = next(i for i, (t, step_t) in enumerate(zip(ts, step_ts)) if t != step_t)
        step = "no ledger step" if step_ts[i] is None else f"ledger step t={step_ts[i]}"
        raise ValueError(f"client {cids[i]}: round record t={ts[i]}, {step}")
    # one %-format over every row's fields, laid out row by row
    fields = [None] * (4 * len(cids))
    fields[0::4], fields[1::4] = ts, cids
    fields[2::4] = [params.batch_size for _, params in paired]
    fields[3::4] = itertools.chain.from_iterable(rec.update_norms for rec in records)
    write_atomic(paths["rounds"], "t,client_id,batch_size,update_norm\n"
                 + "%s,%s,%s,%.12g\n" * len(cids) % tuple(fields))
    write_atomic(paths["clients"], "client_id,participations,epsilon\n" + "".join(
        f"{cid},{count},{eps:.12g}\n" for cid, count, eps in client_epsilon_report(ledger, delta)
    ))
    ledger.write(paths["ledger"])
    return paths
