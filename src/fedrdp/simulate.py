"""Seedable federated-learning simulator with per-step privacy ledgering.

The training loop follows the standard pattern: each round, a uniform subset
of the available clients is selected; every selected client draws a
fixed-size minibatch from its local dataset, averages clipped per-sample
update directions, adds isotropic Gaussian noise with per-coordinate
standard deviation clip * sigma / batch_size, and the server adds the mean
of the returned updates to the model.  Every client participation lands in a
ParticipationLedger with the exact (q, sigma, clip, batch_size) used, so the
accountant can replay privacy per client afterwards; clients.csv holds the
accountant's `client_epsilon_report`, which this module re-exports.

Model family: multinomial logistic regression on synthetic Gaussian blobs;
the model is a plain (classes, d) float64 weight array.
Class centers are mutually orthogonal with norm BLOB_RADIUS, so the classes
are linearly separable by a wide margin and convergence is checkable against
a deterministic full-batch baseline.  The scalar step size is folded into
the per-sample update direction before clipping.  The data is two read-only
arrays: (clients, points, d) features and the (points,) labels all share.

RNG discipline: one root seed; every random draw comes from a stream of
its own, bit for bit np.random.default_rng(entropy)'s, for an entropy tuple

    (seed, stream_tag)                    data centers
    (seed, stream_tag, client_id)         client data
    (seed, stream_tag, round)             availability, selection, client
                                          steps, trace

with the tags below.  The streams of a family are seeded in bulk
(`_streams`): NumPy's SeedSequence hash of their entropies runs as one
numpy pass per chunk of ids, and PCG64 seeds from its words, as
default_rng does.  Round t's client steps draw from one stream: first
the batch draws of every selected client, in ascending client id, then
their noise (see `_rounds`).  A round computes all its client steps in one
numpy pass over the stacked batches (`_round_updates`), doing for each
client the same float operations as on that client's arrays alone (the
tests check this against a one-client-at-a-time loop).  So trajectories
are bit-reproducible regardless of the order or grouping in which client
updates are computed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import MISSING, dataclass, fields, replace
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .accountant import (
    _CLIP,
    _DELTA,
    DEFAULT_DELTA,
    ParticipationLedger,
    PrivacyBudget,
    StepParams,
    calibrate_sigma,
    client_epsilon_report,
    compose_client_rdp,  # and rdp_to_dp: unused, but perfbench's tracer wraps them here
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

# Stream tags (second entropy word).
_STREAM_CENTERS = 1
_STREAM_CLIENT_DATA = 2
_STREAM_AVAILABILITY = 3
_STREAM_SELECTION = 4
_STREAM_CLIENT_STEP = 5
_STREAM_TRACE = 6

# SimConfig's number fields, in check order: name, kind, message, range given the config so far
_CONFIG_FIELDS = (
    ("rounds", int, "rounds must be an integer >= 1", lambda n, c: n >= 1),
    ("clients", int, "clients must be an integer >= 1", lambda n, c: n >= 1),
    ("m_t", int, "m_t must be an integer in [0, clients]", lambda n, c: 0 <= n <= c.clients),
    ("d", int, "d must be an integer >= 1", lambda n, c: n >= 1),
    ("classes", int, "classes must be an integer in [2, d]", lambda n, c: 2 <= n <= c.d),
    ("points_per_client", int, "points_per_client must be an integer >= 1", lambda n, c: n >= 1),
    ("batch_size", int, "batch_size must be an integer in [1, points_per_client]",
     lambda n, c: 1 <= n <= c.points_per_client),
    ("clip", float, _CLIP[0], lambda x, c: _CLIP[1](x)),  # StepParams' rule and message
    ("sigma", float, "sigma must be a finite real >= 0", lambda x, c: 0 <= x < math.inf),
    ("target_epsilon", float, "target_epsilon must be a real > 0", lambda x, c: x > 0),
    ("delta", float, _DELTA[0], lambda x, c: _DELTA[1](x)),  # PrivacyBudget's rule and message
    ("seed", int, "seed must be an integer >= 0", lambda n, c: n >= 0),
    ("dropout_prob", float, "dropout_prob must be a real in [0, 1)", lambda x, c: 0 <= x < 1),
    ("step_size", float, "step_size must be a finite real > 0", lambda x, c: 0 < x < math.inf),
)


# NumPy's SeedSequence hash (O'Neill's seed_seq_fe) on 32-bit words: hashmix's
# constants for the pool (A) and for the output (B), and mix's multipliers
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


class _Hashed(ISeedSequence):
    """A SeedSequence's generate_state(4, np.uint64), all PCG64 asks of it."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _hashmix(const: int, mult: int):
    """SeedSequence's hashmix on uint32 arrays: XOR the constant, step it
    (times mult, mod 2**32), multiply by it, xorshift 16."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult % 2**32
        value = value * np.uint32(const)
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's mix of the pool word x with the hashed word y."""
    result = x * _MIX_L - y * _MIX_R
    return result ^ result >> 16


def _word_count(n: int) -> int:
    """How many 32-bit words SeedSequence splits the int n into."""
    return -(-n.bit_length() // 32) or 1


def _streams(prefix: Sequence[int], ids: Iterable[int]) -> Iterator[np.random.Generator]:
    """np.random.default_rng((*prefix, i))'s Generator for each int i of ids, lazily.

    SeedSequence splits each int into 32-bit words, least significant
    first, hashes the entropy's first 4 words into a pool (zeros past its
    end), mixes the pool, mixes each later word into it, and hashes 8
    words out of it, PCG64's seed.  Each chunk of 1024 ids runs this as
    one numpy pass, an id's later words masked past its entropy's end.
    """
    head = b"".join(n.to_bytes(4 * _word_count(n), "little") for n in prefix)
    ids = iter(ids)
    while chunk := list(itertools.islice(ids, 1024)):
        size = max(4 * _word_count(max(chunk)), 16 - len(head))  # rows of 4 words or more
        rows = b"".join([head + i.to_bytes(size, "little") for i in chunk])
        entropy = np.frombuffer(rows, "<u4").reshape(len(chunk), -1).T
        ends = len(head) // 4 + np.array(list(map(_word_count, chunk)))
        hashmix = _hashmix(_INIT_A, _MULT_A)
        pool = [hashmix(word) for word in entropy[:4]]
        for src, dst in itertools.permutations(range(4), 2):
            pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for j, word in enumerate(entropy[4:], 4):
            for dst in range(4):
                pool[dst] = np.where(j < ends, _mix(pool[dst], hashmix(word)), pool[dst])
        out = _hashmix(_INIT_B, _MULT_B)
        state = np.stack([out(pool[i % 4]) for i in range(8)], axis=1)
        for seed in state.astype("<u4").view("<u8").astype(np.uint64):
            yield np.random.Generator(np.random.PCG64(_Hashed(seed)))


def _stream(*entropy: int) -> np.random.Generator:
    """np.random.default_rng(entropy)'s Generator."""
    return next(_streams(entropy[:-1], entropy[-1:]))


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
    delta: float = DEFAULT_DELTA
    seed: int = 0
    dropout_prob: float = 0.0
    step_size: float = 0.1

    def __post_init__(self):
        if self.m_t is None:
            object.__setattr__(self, "m_t", self.clients)
        for name, kind, message, ok in _CONFIG_FIELDS:
            value = getattr(self, name)
            if value is None and name in ("sigma", "target_epsilon"):
                continue
            object.__setattr__(self, name, _number(value, kind, message, lambda n: ok(n, self)))
        if (self.sigma is None) == (self.target_epsilon is None):
            raise ValueError("exactly one of sigma / target_epsilon must be set")
        if self.sigma is not None and not math.isfinite(float(self.clip) * self.sigma / self.batch_size):
            raise ValueError("noise std clip * sigma / batch_size must be finite")

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {f.name for f in fields(cls) if f.default is MISSING} - set(data)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
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
        raw = _stream(config.seed, _STREAM_CENTERS).normal(size=(config.d, config.classes))
        basis, _ = np.linalg.qr(raw)
        centers = BLOB_RADIUS * basis.T[: config.classes]  # (classes, d)
        labels = np.arange(config.points_per_client) % config.classes
        features = np.empty((config.clients, config.points_per_client, config.d))
        streams = _streams((config.seed, _STREAM_CLIENT_DATA), range(config.clients))
        for points, rng in zip(features, streams):
            rng.standard_normal(out=points)
        features += centers[labels]
        features.flags.writeable = labels.flags.writeable = False
        _KEPT_DATA[key] = features, labels
    return _KEPT_DATA[key]


def _select_clients(available: list[int], m_t: int, rng: np.random.Generator) -> list[int]:
    """Uniformly random size-m_t subset of the ascending available ids, drawn
    from rng, ascending; the reference pins the draw, so rng's stream is too."""
    picks = rng.choice(len(available), size=m_t, replace=False).tolist()
    return sorted([available[i] for i in picks])


def _sample_poisson_batch(dataset_size: int, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Each index included independently with probability `rate`; sorted."""
    return np.nonzero(rng.random(dataset_size) < rate)[0]


def _batch_draws(rng: np.random.Generator, n: int, k: int, m: int) -> np.ndarray:
    """(m, k) draws for _fixed_batches: column i from [0, n - k + i]."""
    return rng.integers(0, np.arange(n - k, n) + 1, size=(m, k))


def _fixed_batches(n: int, k: int, draws: np.ndarray) -> np.ndarray:
    """One uniformly random k-subset of range(n) per row of draws, unsorted.

    Floyd's algorithm (Bentley & Floyd 1987): bound by bound, j = n-k ..
    n-1, a row picks its draw from [0, j] (_batch_draws), or j if it
    picked the draw before.  Every k-subset is equally likely.  One numpy
    pass over all rows, one step per bound, over an (m, n) bitmap.
    """
    m = len(draws)
    # picks are flat indices into `taken`, whose row i is row i's n points
    starts = np.arange(0, m * n, n)
    taken = np.zeros(m * n, dtype=bool)
    picks = np.empty((k, m), dtype=np.intp)
    for pick, draw, j in zip(picks, draws.T + starts, np.arange(n - k, n)[:, None] + starts):
        pick[:] = np.where(taken[draw], j, draw)
        taken[pick] = True
    return (picks - starts).T


def _round_updates(
    W: np.ndarray, features: np.ndarray, labels: np.ndarray, selected: Sequence[int],
    batches: np.ndarray, rng: np.random.Generator, config: SimConfig,
) -> tuple[np.ndarray, list[float]]:
    """One step of each selected client: (m, classes*d) updates, pre-noise norms.

    Client i of `selected` averages the clipped per-sample directions of the
    points batches[i] (sorted indices into its row of features) and adds row
    i of the round's noise, of per-coordinate std clip*sigma/batch_size (0
    at sigma 0), drawn from rng, the round's step stream, after its batch
    draws.  Sample j's direction is -step_size * outer(p_j, x_j), with p_j
    its softmax minus one-hot, so its norm is step_size * |p_j| * |x_j|,
    and the clipped mean is (-step_size / batch_size) * (c * p).T @ X, one
    (classes, b) @ (b, d) product with c the samples' clip factors: no
    per-sample direction is built.  Every client steps with the config's
    batch_size, clip and step_size, so this runs once on the stacked
    (m, b, d) batches, which one take gathers from the flat (clients *
    points, d) features; each product is a client's own.  The softmax's max
    runs over a class-major copy, as a max is exact in any order; its sum
    stays on the last axis, whose order sets the bits at classes >= 8.
    """
    rows = np.asarray(selected)[:, None] * len(labels) + batches
    X = features.reshape(-1, W.shape[1]).take(rows, axis=0)
    scores = X @ W.T  # (m, b, classes)
    scores -= scores.transpose(2, 0, 1).copy().max(axis=0)[..., None]
    exps = np.exp(scores)
    P = exps / exps.sum(axis=-1, keepdims=True)
    P.reshape(-1)[np.arange(0, P.size, len(W)) + labels[batches].ravel()] -= 1.0  # softmax - onehot
    # row norms by einsum: unlike np.linalg.norm it builds no squared copy of
    # X, and it sums a row in the same order stacked or alone
    p_norms = np.sqrt(np.einsum("...i,...i", P, P))
    x_norms = np.sqrt(np.einsum("...i,...i", X, X))
    P *= (config.clip / np.maximum(config.step_size * p_norms * x_norms, config.clip))[..., None]
    updates = (-config.step_size / config.batch_size) * (P.transpose(0, 2, 1) @ X)
    updates = updates.reshape(len(X), -1)
    # a row's np.linalg.norm is the square root of one BLAS dot of the row
    # with itself, and a (1, n) @ (n, 1) matmul takes that same dot (as
    # np.vecdot does, which needs NumPy 2)
    norms = np.sqrt(updates[:, None, :] @ updates[:, :, None]).ravel().tolist()
    updates += rng.normal(0.0, config.clip * config.sigma / config.batch_size, size=updates.shape)
    return updates, norms


def _selections(config: SimConfig) -> Iterator[tuple[int, list[int]]]:
    """(t, selected) for each round t, as run_training's docstring describes."""
    rounds = range(1, config.rounds + 1)
    availability = _streams((config.seed, _STREAM_AVAILABILITY), rounds)  # hashed if drawn
    for t, selection in zip(rounds, _streams((config.seed, _STREAM_SELECTION), rounds)):
        if config.dropout_prob > 0:
            draws = next(availability).random(config.clients)
            available = np.flatnonzero(draws >= config.dropout_prob).tolist()
        else:
            available = list(range(config.clients))
        yield t, _select_clients(available, min(config.m_t, len(available)), selection)


def _rounds(config: SimConfig) -> Iterator[tuple[int, list[int], np.ndarray, np.random.Generator]]:
    """(t, selected, sorted batches, step stream) for each round t.

    Row i of the round's (m, batch_size) batches is its i-th selected
    client's.  Round t's step stream is (seed, _STREAM_CLIENT_STEP, t),
    which has given its batch draws (_batch_draws) and has the round's noise
    left to give.  No batch depends on the model, so blocks of whole rounds
    share one _fixed_batches pass; every round has at most m_t steps, so a
    block of this many rounds keeps the pass's arrays within about 1 MB, or
    holds one round.
    """
    n, k = config.points_per_client, config.batch_size
    # the draws and their concatenation, shifted draws, bounds, picks and
    # batches: 8 bytes per batch element each; and the bitmap's n bytes
    per_step_bytes = 48 * k + n
    selections = _selections(config)
    block_rounds = max(1, 2**20 // (max(config.m_t, 1) * per_step_bytes))
    while block := list(itertools.islice(selections, block_rounds)):
        streams = list(_streams((config.seed, _STREAM_CLIENT_STEP), [t for t, _ in block]))
        draws = [_batch_draws(rng, n, k, len(selected)) for rng, (_, selected) in zip(streams, block)]
        batches = _fixed_batches(n, k, np.concatenate(draws))
        batches.sort(axis=1)
        splits = np.split(batches, np.cumsum([len(d) for d in draws[:-1]]))
        for (t, selected), round_batches, rng in zip(block, splits, streams):
            yield t, selected, round_batches, rng


def run_training(config: SimConfig) -> tuple[np.ndarray, list[RoundRecord], ParticipationLedger]:
    """Run the full federated loop, recording every participation.

    Returns the (classes, d) model, one record per round and the ledger.
    The clients train on the data of ``generate_client_data(config)``
    with the step parameters the ledger records, at the sigma the config
    resolves to.
    Rounds are 1-based.  With dropout, each client is independently
    unavailable with probability dropout_prob each round and the round
    selects min(m_t, available) clients.  Each round's client steps, noise
    included, run on the batches of _rounds as one pass (_round_updates),
    and the server adds the mean of their updates, aggregated in ascending
    client-id order; the ledger takes the round's clients in one append, at
    the run's one StepParams.  Batches are always fixed-size, the only
    sampling the accountant bounds; Poisson batches exist only in
    batch_size_trace.
    Raises ValueError if the calibrated noise std or a weight is non-finite.
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
    for t, selected, batches, rng in _rounds(config):
        norms: list[float] = []
        if selected:
            updates, norms = _round_updates(model, features, labels, selected, batches, rng, config)
            model = model + updates.mean(axis=0).reshape(model.shape)
            ledger._append(t, selected, step)
        records.append(RoundRecord(t=t, selected=tuple(selected), update_norms=tuple(norms)))
    # a non-finite weight stays non-finite, so one check covers every round
    if not np.all(np.isfinite(model)):
        raise ValueError("weights must be finite")
    return model, records, ledger


def batch_size_trace(config: SimConfig, sampler: str, rounds: int) -> list[int]:
    """Realized batch size per round for the chosen sampler.

    Round t draws from the stream (seed, _STREAM_TRACE, t).  The fixed
    sampler draws training's batch (_fixed_batches), always batch_size
    elements; the poisson sampler includes each of the points_per_client
    records independently with probability batch_size / points_per_client.
    """
    if sampler not in ("fixed", "poisson"):
        raise ValueError(f"sampler must be fixed or poisson, got {sampler!r}")
    rounds = _number(rounds, int, "rounds must be >= 0", lambda n: n >= 0)
    n, k = config.points_per_client, config.batch_size
    sizes = []
    for rng in _streams((config.seed, _STREAM_TRACE), range(1, rounds + 1)):
        if sampler == "fixed":
            batch = _fixed_batches(n, k, _batch_draws(rng, n, k, 1))[0]
        else:
            batch = _sample_poisson_batch(n, config.sampling_ratio, rng)
        sizes.append(len(batch))
    return sizes


def evaluate_accuracy(model: np.ndarray, clients: Sequence[ClientState]) -> float:
    """Fraction of correctly classified points over the union of datasets.

    Each client's points are scored by a product of their own: one product
    over all points concatenated copies them all, and at 500 clients of 100
    points it was measured 5 to 10 times slower, on BLAS's threaded path.
    """
    hits = [np.argmax(c.features @ model.T, axis=1) == c.labels for c in clients]
    return float(np.mean(np.concatenate(hits)))


def write_artifacts(
    outdir,
    model: np.ndarray,
    records: Sequence[RoundRecord],
    ledger: ParticipationLedger,
    delta: float,
) -> dict[str, str]:
    """Write model.txt, rounds.csv, clients.csv, ledger.tsv under outdir.

    All output is deterministic given its inputs (no timestamps, fixed row
    order), so identical runs produce byte-identical files.  rounds.csv's
    rows and the ledger's steps correspond one to one: each record's clients
    take their next ledger steps, which must be at its t.  Any other input,
    like every other check and the epsilon report, raises before the first
    write, so an invalid input writes nothing; each file is written
    atomically, so a failed write leaves that file as it was.
    """
    # a row's batch size is the one its ledger step recorded: rows and each
    # client's steps both run in t order, so a client's row j is its step j
    steps = {cid: iter(ledger.steps(cid)) for cid in ledger.clients()}
    none = iter(())
    fields = []  # every row's fields, row by row, for one %-format
    for rec in records:
        if len(rec.selected) != len(rec.update_norms):
            raise ValueError(f"round record t={rec.t}: {len(rec.selected)} clients selected, "
                             f"{len(rec.update_norms)} update norms")
        for cid, norm in zip(rec.selected, rec.update_norms):
            step_t, params = next(steps.get(cid, none), (None, None))
            if step_t != rec.t:
                step = "no ledger step" if step_t is None else f"ledger step t={step_t}"
                raise ValueError(f"client {cid}: round record t={rec.t}, {step}")
            fields += (rec.t, cid, params.batch_size, norm)
    for cid, rest in steps.items():
        if (extra := next(rest, None)) is not None:
            raise ValueError(f"client {cid}: ledger step t={extra[0]}, no round record")
    rounds = ("t,client_id,batch_size,update_norm\n"
              + "%s,%s,%s,%.12g\n" * (len(fields) // 4) % tuple(fields))
    clients = "client_id,participations,epsilon\n" + "".join(
        f"{cid},{count},{eps:.12g}\n" for cid, count, eps in client_epsilon_report(ledger, delta))
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "model": os.path.join(outdir, "model.txt"),
        "rounds": os.path.join(outdir, "rounds.csv"),
        "clients": os.path.join(outdir, "clients.csv"),
        "ledger": os.path.join(outdir, "ledger.tsv"),
    }
    write_atomic(paths["model"], "".join(f"{float(w)!r}\n" for w in model.flat))
    write_atomic(paths["rounds"], rounds)
    write_atomic(paths["clients"], clients)
    ledger.write(paths["ledger"])
    return paths
