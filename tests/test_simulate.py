"""Simulator: samplers, clipping, client/server updates, full runs."""

import collections
import dataclasses
import decimal
import itertools
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from fedrdp import simulate
from fedrdp.accountant import ParticipationLedger, StepParams, compose_client_rdp, rdp_to_dp
from fedrdp.divergence import MechanismParams
from fedrdp.simulate import (
    RoundRecord,
    SimConfig,
    batch_size_trace,
    client_epsilon_report,
    evaluate_accuracy,
    generate_client_data,
    run_training,
    write_artifacts,
)
from fedrdp.simulate import (
    _batch_draws,
    _client_data,
    _fixed_batches,
    _round_updates,
    _rounds,
    _sample_poisson_batch,
    _select_clients,
    _stream,
)


def small_config(**overrides):
    base = dict(
        rounds=10,
        clients=4,
        m_t=2,
        d=4,
        classes=2,
        points_per_client=30,
        batch_size=6,
        clip=1.0,
        sigma=1.5,
        seed=5,
    )
    base.update(overrides)
    return SimConfig(**base)


# --- config ------------------------------------------------------------


def test_config_requires_exactly_one_noise_setting():
    with pytest.raises(ValueError):
        small_config(sigma=None)
    with pytest.raises(ValueError):
        small_config(target_epsilon=4.0)  # both set


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SimConfig.from_dict({"rounds": 1, "clientz": 2})
    # the sampler is trace's --sampler flag, not a config key
    with pytest.raises(ValueError, match=r"unknown config keys: \['sampler'\]"):
        SimConfig.from_dict({"rounds": 1, "sampler": "fixed"})


@pytest.mark.parametrize(("config", "missing"), [
    ({}, ["batch_size", "classes", "clients", "clip", "d", "points_per_client", "rounds"]),
    ({"rounds": 3}, ["batch_size", "classes", "clients", "clip", "d", "points_per_client"]),
], ids=["empty", "one_key"])
def test_config_names_its_missing_keys(config, missing):
    with pytest.raises(ValueError) as info:
        SimConfig.from_dict(config)
    assert str(info.value) == f"missing config keys: {missing}"


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"])
def test_config_must_be_a_json_object(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    kind = type(json.loads(text)).__name__
    with pytest.raises(ValueError) as info:
        SimConfig.from_file(path)
    assert str(info.value) == f"config must be a JSON object, got {kind}"


def test_config_defaults_mt_to_all_clients():
    cfg = small_config(m_t=None)
    assert cfg.m_t == cfg.clients


def test_config_bounds_checks():
    with pytest.raises(ValueError):
        small_config(batch_size=31)
    with pytest.raises(ValueError):
        small_config(dropout_prob=1.0)
    with pytest.raises(ValueError):
        small_config(classes=5)  # exceeds d=4
    with pytest.raises(ValueError, match="noise std"):
        small_config(clip=1e10, sigma=1e300)  # finite, but clip * sigma / batch_size is inf
    with pytest.raises(ValueError, match="sigma must be a finite real"):
        small_config(sigma=math.inf)
    with pytest.raises(ValueError, match="target_epsilon must be a real > 0"):
        small_config(sigma=None, target_epsilon=0)


@pytest.mark.parametrize(
    "field,value",
    [("rounds", True), ("rounds", 2.5), ("seed", 1.0), ("m_t", "2"), ("clip", False),
     ("delta", "1e-5"), ("sigma", [1.5]),
     # an integer too large for a float
     *(pytest.param(field, 10**400, id=f"{field}-10**400")
       for field in ("clip", "sigma", "target_epsilon", "step_size"))],
)
def test_config_rejects_mistyped_fields(field, value):
    with pytest.raises(ValueError, match=f"^{field} must "):
        small_config(**{field: value})


@pytest.mark.parametrize("name,kind,message,ok", simulate._CONFIG_FIELDS,
                         ids=[field[0] for field in simulate._CONFIG_FIELDS])
def test_every_config_number_error_shows_its_value(name, kind, message, ok):
    # one message per field, for a value of the wrong kind and one out of range
    wrong_kind = {int: 2.5, float: "0.5"}[kind]
    out_of_range = kind(-1)
    assert not ok(out_of_range, small_config())
    for value in (wrong_kind, out_of_range):
        with pytest.raises(ValueError) as info:
            small_config(**{name: value})
        assert str(info.value) == f"{message}, got {value!r}"


def test_config_keeps_an_integer_clip_in_the_ledger():
    assert type(small_config(clip=1).clip) is int
    ledger = run_training(small_config(clip=1, rounds=2))[2]
    assert {line.split("\t")[4] for line in ledger.to_text().splitlines()} == {"1"}


def test_config_stores_numpy_numbers_as_builtins():
    cfg = small_config(rounds=np.int64(10), m_t=np.int32(2), clip=np.float32(0.5),
                       sigma=np.float64(1.5), dropout_prob=np.float64(0.25))
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        assert value is None or type(value) in (int, float), field.name
    assert (cfg.rounds, cfg.m_t, cfg.clip, cfg.sigma) == (10, 2, 0.5, 1.5)


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            dict(
                rounds=3,
                clients=2,
                d=4,
                classes=2,
                points_per_client=10,
                batch_size=2,
                clip=0.5,
                sigma=2.0,
            )
        )
    )
    cfg = SimConfig.from_file(path)
    assert cfg.rounds == 3 and cfg.m_t == 2


# --- clipping ------------------------------------------------------------
#
# A one-point batch's update is that point's direction -0.1 * outer(p, x),
# clipped; at the zero model and label 0, p (softmax minus one-hot) is
# (-1/2, 1/2).


def _clip_one(x, clip):
    """(update, unclipped direction) of a one-point batch at the zero model.

    x is padded with zeros to 2 coordinates, the least a 2-class model takes.
    """
    x = np.asarray(x, dtype=np.float64)
    x = np.concatenate([x, np.zeros(max(0, 2 - len(x)))])
    cfg = SimConfig(rounds=1, clients=1, d=len(x), classes=2, points_per_client=1,
                    batch_size=1, clip=clip, sigma=0.0, step_size=0.1)
    model, y, batch = np.zeros((2, len(x))), np.zeros(1, dtype=int), np.zeros((1, 1), dtype=int)
    (update,), _ = _round_updates(model, x[None, None, :], y, [0], batch,
                                  np.random.default_rng(0), cfg)
    _, (direction,) = reference.materialised_step(x[None, :], y, model, 0.1, clip)
    return update, direction


def test_clip_shrinks_long_vectors():
    out, g = _clip_one(np.full(4, 50.0), 1.0)
    assert np.linalg.norm(g) > 1.0
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(out / np.linalg.norm(out), g / np.linalg.norm(g))


def test_clip_keeps_short_vectors():
    out, g = _clip_one([0.3, -0.4], 1.0)
    assert np.linalg.norm(g) < 1.0
    assert np.array_equal(out, g)


def test_clip_zero_vector_passes_through():
    out, _ = _clip_one(np.zeros(3), 1.0)
    assert np.array_equal(out, np.zeros(6))


def test_clip_rejects_nonpositive_threshold():
    # the clip threshold enters through the config, which rejects it there
    for clip in (0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match="clip must be a finite real > 0"):
            small_config(clip=clip)


@given(
    vec=st.lists(st.floats(-50, 50), min_size=1, max_size=8),
    clip=st.floats(0.01, 20.0),
)
def test_clip_norm_identity(vec, clip):
    out, g = _clip_one(vec, clip)
    assert np.linalg.norm(out) == pytest.approx(
        min(np.linalg.norm(g), clip), abs=1e-12
    )


# --- samplers --------------------------------------------------------------


def test_select_full_population():
    rng = np.random.default_rng(0)
    assert _select_clients([1, 2, 3, 4, 5], 5, rng) == [1, 2, 3, 4, 5]


def test_select_zero_is_empty():
    assert _select_clients([1, 2], 0, np.random.default_rng(0)) == []


def test_select_uniform_over_subsets():
    # all 6 two-element subsets of four clients, chi-square at p > 0.001
    rng = np.random.default_rng(123)
    counts = {}
    draws = 120_000
    for _ in range(draws):
        key = tuple(sorted(_select_clients([0, 1, 2, 3], 2, rng)))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 6
    expected = draws / 6
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < reference.CHI2_DF5_P001


def _fixed_batch(n, k, rng, m=1):
    """m sorted batches of k of range(n), drawn from rng as training draws them."""
    return np.sort(_fixed_batches(n, k, _batch_draws(rng, n, k, m)), axis=1)


def test_fixed_batch_exact_size_and_inclusion():
    draws = 20_000
    batches = _fixed_batch(10, 3, np.random.default_rng(7), draws)
    assert batches.shape == (draws, 3)
    assert np.all(np.diff(batches, axis=1) > 0)  # sorted, so distinct
    assert batches.min() >= 0 and batches.max() < 10
    freq = np.bincount(batches.ravel(), minlength=10) / draws
    tol = 3 * math.sqrt(0.3 * 0.7 / draws)
    assert np.all(np.abs(freq - 0.3) <= tol)


def test_fixed_batch_edge_cases():
    rng = np.random.default_rng(0)
    assert np.array_equal(_fixed_batch(5, 5, rng, 4), np.tile(np.arange(5), (4, 1)))
    single = _fixed_batch(9, 1, rng, 50)
    assert single.shape == (50, 1) and set(single.ravel().tolist()) <= set(range(9))
    assert _fixed_batch(9, 1, rng, 0).shape == (0, 1)


@pytest.mark.parametrize(("n", "k"), [(5, 2), (6, 3), (4, 4), (7, 1)])
def test_fixed_batches_are_uniform_over_subsets(n, k):
    # every k-subset within 4 binomial standard errors of its expected count
    draws = 60_000
    batches = _fixed_batch(n, k, np.random.default_rng(2029), draws)
    subsets = list(itertools.combinations(range(n), k))
    counts = collections.Counter(map(tuple, batches.tolist()))
    assert set(counts) == set(subsets)
    p = 1 / len(subsets)
    for subset in subsets:
        assert abs(counts[subset] - draws * p) <= 4 * math.sqrt(draws * p * (1 - p)), subset


def _choice_shapes():
    """(n, k) pairs with k = 1, 2, n // 2, n - 1, n, and 10, 200, 201 where they fit."""
    for n in (1, 2, 3, 5, 10, 64, 100, 1000, 10000):
        for k in sorted({1, 2, 10, 200, 201, n // 2, n - 1, n}):
            if 1 <= k <= n:
                yield n, k


@pytest.mark.parametrize(("n", "k"), list(_choice_shapes()))
def test_fixed_batches_equal_choices_floyd_sample_from_the_same_draws(n, k):
    # on at most 10000 points, Generator.choice(n, k, replace=False) runs
    # Floyd's algorithm on the draws _batch_draws takes from its stream, then
    # shuffles its sample: one stream per row, all rows in one pass
    seeds = range(100)
    draws = np.concatenate([_batch_draws(np.random.default_rng(seed), n, k, 1) for seed in seeds])
    batches = _fixed_batches(n, k, draws)
    assert batches.shape == (len(seeds), k)
    for seed, batch in zip(seeds, batches):
        want = np.random.default_rng(seed).choice(n, k, replace=False)
        assert np.array_equal(np.sort(batch), np.sort(want))


def test_poisson_batch_rate_one_takes_everything():
    assert np.array_equal(
        _sample_poisson_batch(8, 1.0, np.random.default_rng(0)), np.arange(8)
    )


def test_poisson_batch_moments():
    rng = np.random.default_rng(11)
    n, p, draws = 30_000, 128 / 30_000, 1000
    sizes = np.array([len(_sample_poisson_batch(n, p, rng)) for _ in range(draws)])
    assert abs(sizes.mean() - 128) <= 3 * math.sqrt(n * p * (1 - p) / draws)
    assert sizes.var(ddof=1) > 0


def test_poisson_batch_tiny_rate_usually_empty():
    assert len(_sample_poisson_batch(50, 1e-9, np.random.default_rng(3))) == 0


# --- client updates ---------------------------------------------------------


def _one_client(sigma=0.0, batch=None, n=12, d=3, clip=10.0, seed=0):
    """(1, n, d) features, (n,) labels and a one-client config for them."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(1, n, d))
    y = rng.integers(0, 2, size=n)
    cfg = SimConfig(rounds=1, clients=1, d=d, classes=2, points_per_client=n,
                    batch_size=batch or n, clip=clip, sigma=sigma, step_size=0.1)
    return X, y, cfg


def _draws(cfg, ids):
    """_rounds' batches and step stream for a first round that selects the ids 0 .. m-1."""
    m = len(ids)
    _, selected, batches, rng = next(_rounds(dataclasses.replace(cfg, clients=m, m_t=m)))
    assert selected == list(ids)
    return batches, rng


def test_per_sample_directions_match_reference():
    # a round of one-point batches, one per point: each update is that
    # point's direction, which clip 10 leaves whole
    (X,), y, cfg = _one_client()
    model = np.linspace(-1, 1, 6).reshape(2, 3)
    cfg = dataclasses.replace(cfg, batch_size=1)
    n = len(y)
    mine, _ = _round_updates(model, X[None], y, [0] * n, np.arange(n)[:, None],
                             np.random.default_rng(0), cfg)
    _, theirs = reference.materialised_step(X, y, model, 0.1, cfg.clip)
    assert np.linalg.norm(theirs, axis=1).max() < cfg.clip
    assert np.allclose(mine, theirs, atol=1e-13)


def test_client_update_noiseless_full_batch_is_mean_direction():
    X, y, cfg = _one_client(sigma=0.0)
    model = np.zeros((2, 3))
    (upd,), _ = _round_updates(model, X, y, [0], *_draws(cfg, [0]), cfg)
    _, G = reference.materialised_step(X[0], y, model, 0.1, cfg.clip)
    assert np.linalg.norm(G, axis=1).max() < cfg.clip
    assert np.allclose(upd, G.mean(axis=0), atol=1e-14)


def test_client_update_noise_variance():
    # full-size batch pins the pre-noise mean, so spread across repetitions
    # is exactly the injected Gaussian: per-coordinate std clip*sigma/batch
    X, y, cfg = _one_client(sigma=2.0, n=16, clip=1.0)
    model = np.zeros((2, 3))
    reps = 3000
    # one round of reps copies of the client, each with its own generator
    copies = np.broadcast_to(X, (reps, *X.shape[1:]))
    updates, _ = _round_updates(model, copies, y, range(reps), *_draws(cfg, range(reps)), cfg)
    per_coord_var = updates.var(axis=0, ddof=1)
    want = (1.0 * 2.0 / 16) ** 2
    rel_se = math.sqrt(2 / (reps - 1) / len(per_coord_var))
    assert per_coord_var.mean() == pytest.approx(want, rel=3 * rel_se + 0.01)


def test_prenoise_norm_bounded_by_clip():
    X, y, cfg = _one_client(sigma=3.0, clip=0.05)
    model = np.linspace(-2, 2, 6).reshape(2, 3)
    _, (norm,) = _round_updates(model, X, y, [0], *_draws(cfg, [0]), cfg)
    assert norm <= 0.05 + 1e-12


# --- full runs ---------------------------------------------------------------


def test_run_training_deterministic():
    cfg = small_config()
    m1, r1, l1 = run_training(cfg)
    m2, r2, l2 = run_training(cfg)
    assert np.array_equal(m1, m2)
    assert r1 == r2
    assert l1.to_text() == l2.to_text()


def test_run_training_seed_changes_trajectory():
    m1, _, _ = run_training(small_config(seed=5))
    m2, _, _ = run_training(small_config(seed=6))
    assert not np.array_equal(m1, m2)


def test_ledger_agrees_with_round_records():
    cfg = small_config(rounds=25, dropout_prob=0.3, seed=2)
    _, records, ledger = run_training(cfg)
    counted = {}
    for rec in records:
        assert len(rec.selected) == len(rec.update_norms)
        assert len(rec.selected) <= cfg.m_t
        for cid in rec.selected:
            counted[cid] = counted.get(cid, 0) + 1
    for cid in ledger.clients():
        assert ledger.participation_count(cid) == counted[cid]


def test_the_ledger_does_not_depend_on_the_data(monkeypatch):
    # clients.csv composes each client's steps as if their number were fixed
    # in advance, which holds only while participation ignores the data
    cfg = small_config(rounds=40, clients=30, m_t=12, d=10, classes=3, points_per_client=60,
                       dropout_prob=0.3, seed=5)
    models = []

    def ledger_of(config):
        model, _, ledger = run_training(config)
        models.append(model)
        pairs = [(cid, t) for cid in ledger.clients() for t, _ in ledger.steps(cid)]
        return ledger.to_text(), pairs, client_epsilon_report(ledger, 1e-5)

    text, pairs, report = ledger_of(cfg)
    assert len(pairs) > 300
    assert ledger_of(dataclasses.replace(cfg, d=12, classes=7)) == (text, pairs, report)
    assert ledger_of(dataclasses.replace(cfg, clip=0.25))[1:] == (pairs, report)

    features, labels = _client_data(cfg)
    rng = np.random.default_rng(1)
    other = (rng.normal(size=features.shape), rng.integers(cfg.classes, size=labels.shape))
    monkeypatch.setattr(simulate, "_client_data", lambda config: other)
    assert ledger_of(cfg)[0] == text
    assert not np.array_equal(models[-1], models[0])  # the other data was trained on


def test_ledger_records_exact_sampling_ratio():
    cfg = small_config(points_per_client=30, batch_size=7)
    _, _, ledger = run_training(cfg)
    for cid in ledger.clients():
        for _, p in ledger.steps(cid):
            assert p.q == 7 / 30
            assert p.sigma == cfg.sigma
            assert p.batch_size == 7


def test_run_training_clipping_invariant():
    cfg = small_config(clip=0.02, sigma=2.0)
    _, records, _ = run_training(cfg)
    for rec in records:
        for norm in rec.update_norms:
            assert norm <= 0.02 + 1e-12


def test_run_training_rejects_overflowing_weights():
    # the noise std clip*sigma/batch_size is finite, but the first round
    # leaves weights so large that the second round's scores overflow to inf
    # and its updates are nan
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="weights must be finite"):
        run_training(small_config(clip=1e308, sigma=1.0))


REFERENCE_CONFIGS = {
    "dropout": dict(rounds=25, dropout_prob=0.3, seed=2),
    "wide_dropout": dict(rounds=12, clients=40, m_t=33, d=17, classes=9,
                         points_per_client=50, batch_size=13, clip=5.0, sigma=0.5,
                         dropout_prob=0.2, seed=7),
    "odd_shape": dict(rounds=15, clients=9, m_t=5, d=6, classes=4,
                      points_per_client=20, batch_size=7, clip=0.3, sigma=0.7, seed=11),
    "no_selection": dict(m_t=0),
    "all_dropped": dict(rounds=30, clients=3, m_t=3, dropout_prob=0.9, seed=1),
    "full_batch": dict(points_per_client=8, batch_size=8, clip=0.5),
    "batch_of_one": dict(batch_size=1),
    "noiseless": dict(sigma=0.0, classes=3),
    "single_client": dict(clients=1, m_t=None, sigma=2.0),
    "multi_word_seed": dict(rounds=12, clients=7, m_t=4, dropout_prob=0.2, seed=2**40 + 3),
    # rounds of many clients with small or full batches
    "many_clients": dict(rounds=8, clients=30, m_t=20, points_per_client=40, batch_size=5,
                         dropout_prob=0.2, seed=3),
    "many_full_batches": dict(rounds=4, clients=12, m_t=12, points_per_client=8, batch_size=8),
    # batches of 10 of 10000 points: each step's bitmap is 10000 points wide
    "lemire_rejection": dict(seed=1087, clients=10, m_t=10, rounds=2, points_per_client=10000,
                             batch_size=10),
    # rounds of 201 clients taking batches of 201 of 10001 points: a round's
    # bitmap alone exceeds the byte budget of a block
    "tail_shuffle": dict(rounds=2, clients=201, m_t=201, d=2, points_per_client=10001,
                         batch_size=201),
    # rounds of 3 clients taking batches of 40 of 60 points: more batch
    # elements than clients a round
    "large_batches": dict(rounds=30, clients=3, m_t=3, points_per_client=60, batch_size=40,
                          seed=12),
    # rounds of 200 to 300 clients, with and without dropout or noise: all
    # of a run's 1400 or more steps in one Floyd pass (_rounds' blocks hold
    # 12 to 18 such rounds)
    "straddling_round": dict(rounds=6, clients=250, m_t=250, points_per_client=40,
                             batch_size=5, seed=8),
    "dropout_blocks": dict(rounds=8, clients=400, m_t=300, points_per_client=40, batch_size=5,
                           dropout_prob=0.3, seed=9),
    "noiseless_blocks": dict(rounds=7, clients=200, m_t=200, sigma=0.0, points_per_client=40,
                             batch_size=5),
    # about 10 clients a round with dropout, 120 rounds in one block
    "mixed_blocks": dict(rounds=120, clients=14, m_t=12, batch_size=5, dropout_prob=0.3, seed=4),
    # 40 steps a round on 10000 points: a block holds two rounds, so round 3
    # opens a second block
    "late_lemire_rejection": dict(seed=2275, clients=40, m_t=40, rounds=3,
                                  points_per_client=10000, batch_size=10),
    # rounds of 30 of 40 clients with dropout on 2000 points: blocks of 14
    # rounds with uneven step counts, the third block holding two rounds
    "dropout_across_blocks": dict(rounds=30, clients=40, m_t=30, points_per_client=2000,
                                  batch_size=10, dropout_prob=0.3, seed=13),
    # 8 * classes * d = 160 kB of noise a step, drawn when its round runs
    "wide_model": dict(rounds=3, clients=12, m_t=10, d=400, classes=50, points_per_client=20,
                       batch_size=5, seed=6),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_run_training_equals_per_client_reference(name):
    cfg = small_config(**REFERENCE_CONFIGS[name])
    model, records, ledger = run_training(cfg)
    ref_model, ref_records, ref_ledger = reference.per_client_training(cfg)
    assert np.array_equal(model, ref_model)
    assert records == ref_records
    assert ledger.to_text() == ref_ledger.to_text()
    selected = sum(len(rec.selected) for rec in records)
    if name in ("no_selection", "all_dropped"):
        empty = [rec for rec in records if not rec.selected]
        assert empty and all(rec.update_norms == () for rec in empty)
    if name == "no_selection":
        assert selected == 0 and not np.any(model) and not ledger.clients()
    else:
        assert selected > 0 and np.any(model)


# the reference configs, and one where clip 0.02 clips every per-sample
# direction and one where clip 1000 clips none
CLIPPING_CONFIGS = dict(REFERENCE_CONFIGS, every_row_clipped=dict(clip=0.02),
                        no_row_clipped=dict(clip=1e3))


@pytest.mark.parametrize("name", sorted(CLIPPING_CONFIGS))
def test_round_updates_match_materialised_reference(name):
    # every client step of every round, noiseless, at a fixed random model,
    # against the mean of its clipped materialised per-sample directions:
    # each update within 1e-12 times the reference update's norm, and each
    # pre-noise norm within 1e-12 relative
    cfg = dataclasses.replace(small_config(**CLIPPING_CONFIGS[name]), sigma=0.0)
    features, labels = _client_data(cfg)
    model = 0.1 * np.random.default_rng(0).normal(size=(cfg.classes, cfg.d))
    direction_norms = []
    for _, selected, batches, rng in _rounds(cfg):
        if not selected:
            continue
        updates, norms = _round_updates(model, features, labels, selected, batches, rng, cfg)
        for cid, batch, update, norm in zip(selected, batches, updates, norms, strict=True):
            want, G = reference.materialised_step(features[cid, batch], labels[batch], model,
                                                  cfg.step_size, cfg.clip)
            assert np.linalg.norm(update - want) <= 1e-12 * np.linalg.norm(want)
            assert norm == pytest.approx(np.linalg.norm(want), rel=1e-12)
            direction_norms.extend(np.linalg.norm(G, axis=1))
    assert bool(direction_norms) == (name != "no_selection")
    if name == "every_row_clipped":
        assert min(direction_norms) > cfg.clip
    if name == "no_row_clipped":
        assert max(direction_norms) < cfg.clip


def test_round_updates_build_no_per_sample_array():
    # at the sweep script's shape, one round's allocations peak below the
    # (m, batch_size, classes * d) float64 array of per-sample directions
    cfg = SimConfig(rounds=150, clients=10, d=20, classes=2, points_per_client=2000,
                    batch_size=200, clip=1.0, sigma=1.0)
    features, labels = _client_data(cfg)
    _, selected, batches, rng = next(_rounds(cfg))
    model = np.zeros((cfg.classes, cfg.d))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        _round_updates(model, features, labels, selected, batches, rng, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < len(selected) * cfg.batch_size * cfg.classes * cfg.d * 8


@pytest.mark.parametrize("name", sorted(REFERENCE_CONFIGS))
def test_client_data_equals_seedsequence_reference(name):
    cfg = small_config(**REFERENCE_CONFIGS[name])
    data = generate_client_data(cfg, cfg.sigma)
    ref = reference.client_data(cfg)
    for client, (X, y) in zip(data, ref, strict=True):
        assert np.array_equal(client.features, X)
        assert np.array_equal(client.labels, y)


def test_client_data_is_kept_read_only():
    cfg = small_config()
    features, labels = _client_data(cfg)
    assert features.shape == (cfg.clients, cfg.points_per_client, cfg.d)
    assert not features.flags.writeable and not labels.flags.writeable
    # the data does not depend on sigma, rounds or m_t: one build serves all
    for other in (cfg, dataclasses.replace(cfg, sigma=0.0, rounds=3, m_t=1),
                  dataclasses.replace(cfg, sigma=None, target_epsilon=2.0)):
        data = generate_client_data(other)
        assert _client_data(other)[0] is features
        assert len(data) == cfg.clients
        for cid, client in enumerate(data):
            assert client.features.base is features
            assert np.shares_memory(client.features, features[cid])
            assert client.labels is labels
    with pytest.raises(ValueError, match="read-only"):
        data[0].features[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        data[0].labels[0] = 1
    assert _client_data(dataclasses.replace(cfg, seed=cfg.seed + 1))[0] is not features


def test_run_training_checks_the_calibrated_noise_std():
    # target_epsilon calibrates a finite sigma, but clip * sigma / batch_size
    # overflows; no round may run on that noise
    cfg = SimConfig(rounds=6, clients=3, m_t=2, d=4, classes=2, points_per_client=20,
                    batch_size=1, clip=1e308, target_epsilon=1.0, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="noise std .* must be finite"):
            run_training(cfg)


STREAM_ENTROPIES = [
    # one-off, per-client and per-round streams, large rounds and client ids
    (), (1,), (6,), (2, 0), (2, 2**32 - 1), (5, 7), (5, 2**31), (5, 2**32 - 1),
]


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**200 + 7])
def test_streams_seed_as_numpy_seedsequence(seed):
    for rest in STREAM_ENTROPIES:
        rng = _stream(seed, *rest)
        want = np.random.default_rng(np.random.SeedSequence([seed, *rest]))
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.normal(0.0, 2.0, size=5), want.normal(0.0, 2.0, size=5))


@pytest.mark.parametrize("entropy", [(0, 2, 0), (2**40 + 3, 5, 7)])
def test_stream_draws_equal_default_rngs(entropy):
    # _stream builds Generator(PCG64(entropy)) itself; every draw the
    # simulator takes, in turn from one stream, equals default_rng(entropy)'s
    rng, want = _stream(*entropy), np.random.default_rng(entropy)
    draws = (lambda g: g.random(7), lambda g: g.normal(0.0, 0.3, size=(3, 4)),
             lambda g: g.integers(0, np.arange(20, 30) + 1, size=(4, 10)),
             lambda g: g.choice(40, size=9, replace=False))
    for draw in draws:
        assert np.array_equal(draw(rng), draw(want))
    # the client data: standard normals drawn in place, plus the centers,
    # equal normal(size=...) plus the centers
    centers = np.linspace(-4.0, 4.0, 6)
    features = np.empty((5, 6))
    _stream(*entropy).standard_normal(out=features)
    assert np.array_equal(features + centers,
                          np.random.default_rng(entropy).normal(size=(5, 6)) + centers)


def test_rounds_share_floyd_passes_of_whole_rounds_within_the_byte_budget(monkeypatch):
    # each _fixed_batches call takes the steps of whole rounds, in order: as
    # many rounds as keep 48 * batch_size + points_per_client bytes a step
    # at m_t steps a round within 1 MB, or one round
    calls = []

    def recording(n, k, draws):
        calls.append(len(draws))
        return _fixed_batches(n, k, draws)

    monkeypatch.setattr(simulate, "_fixed_batches", recording)
    shapes = {}
    for name, overrides in REFERENCE_CONFIGS.items():
        cfg = small_config(**overrides)
        calls.clear()
        blocks = collections.defaultdict(list)  # each round under the call that drew it
        for t, selected, batches, _ in _rounds(cfg):
            assert batches.shape == (len(selected), cfg.batch_size)
            blocks[len(calls)].append((t, len(selected)))
        blocks = list(blocks.values())
        assert [t for block in blocks for t, _ in block] == list(range(1, cfg.rounds + 1)), name
        step_bytes = 48 * cfg.batch_size + cfg.points_per_client
        size = max(1, 2**20 // (max(cfg.m_t, 1) * step_bytes))
        for block, steps in zip(blocks, calls, strict=True):
            assert sum(m for _, m in block) == steps, name
            assert steps * step_bytes <= 2**20 or len(block) == 1, name
        assert all(len(block) == size for block in blocks[:-1]), name
        shapes[name] = [len(block) for block in blocks]
    assert shapes["late_lemire_rejection"] == [2, 1]
    assert shapes["tail_shuffle"] == [1, 1]
    assert shapes["dropout_across_blocks"] == [14, 14, 2]
    assert shapes["no_selection"] == [10]


def test_noiseless_full_batch_matches_reference_descent():
    cfg = SimConfig(
        rounds=200,
        clients=1,
        d=20,
        classes=2,
        points_per_client=2000,
        batch_size=2000,
        clip=1.0,
        sigma=0.0,
        seed=7,
    )
    model, _, _ = run_training(cfg)
    data = generate_client_data(cfg, 0.0)
    acc = evaluate_accuracy(model, data)
    assert acc >= 0.99
    ref_w = reference.logistic_gd_reference(
        data[0].features, data[0].labels, 2, 200, 0.1, 1.0
    )
    assert np.allclose(model.ravel(), ref_w, rtol=1e-8, atol=1e-10)
    assert reference.accuracy_of(ref_w, 2, data[0].features, data[0].labels) >= 0.99


def test_epsilon_report_handles_nonprivate_runs():
    cfg = small_config(sigma=0.0, rounds=3)
    _, _, ledger = run_training(cfg)
    for cid, count, eps in client_epsilon_report(ledger, 1e-5):
        assert count > 0
        assert math.isinf(eps)


def test_epsilon_report_raises_errors_other_than_no_finite_bound():
    # only a step with sigma = 0 or q = 1 reports inf; delta is checked even
    # with no client to report
    _, _, ledger = run_training(small_config(rounds=3))
    _, _, nonprivate = run_training(small_config(sigma=0.0, rounds=3))
    for led in (ledger, nonprivate, ParticipationLedger()):
        for delta in (0.0, 1.0, 5.0, "x"):
            with pytest.raises(ValueError, match="delta must lie in"):
                client_epsilon_report(led, delta)


def _twelve_digits_up(x: float) -> float:
    """The smallest decimal of 12 significant digits >= x, as a float."""
    exact = decimal.Decimal(x)
    return float(exact.quantize(decimal.Decimal(1).scaleb(exact.adjusted() - 11),
                                rounding=decimal.ROUND_CEILING))


def test_epsilon_report_equals_per_client_composition():
    # clients share a composition when their step counts per (q, sigma)
    # agree, whatever the order of their steps; each epsilon is the
    # library's rounded up to 12 significant digits
    a = StepParams(q=0.01, sigma=1.3, clip=1.0, batch_size=10)
    b = StepParams(q=0.05, sigma=0.9, clip=2.0, batch_size=5)
    zero = StepParams(q=0.01, sigma=0.0, clip=1.0, batch_size=10)
    histories = {
        0: [a, b, a], 1: [a, a, b], 2: [b, a, a], 3: [a, b], 4: [b, b, a],
        5: [a, zero, a], 6: [a] * 7, 7: [b], 8: [b, a],
    }
    ledger = ParticipationLedger()
    for cid, steps in histories.items():
        for t, params in enumerate(steps, start=1):
            ledger.record(cid, t, params)
    rows = client_epsilon_report(ledger, 1e-5)
    assert [cid for cid, _, _ in rows] == sorted(histories)
    for cid, count, eps in rows:
        assert count == len(histories[cid])
        if cid == 5:
            assert eps == math.inf
        else:
            want, _ = rdp_to_dp(compose_client_rdp(ledger, cid), 1e-5)
            assert eps == _twelve_digits_up(want.epsilon)
    by_cid = {cid: eps for cid, _, eps in rows}
    assert by_cid[0] == by_cid[1] == by_cid[2] and by_cid[3] == by_cid[8]
    assert len(set(by_cid.values())) == 6


def _assert_clients_csv_not_below_library(outdir, ledger, delta):
    # one record per ledgered round: its clients ascending, with zero norms
    at = collections.defaultdict(list)
    for cid in ledger.clients():
        for t, _ in ledger.steps(cid):
            at[t].append(cid)
    records = [RoundRecord(t, tuple(at[t]), (0.0,) * len(at[t])) for t in sorted(at)]
    paths = write_artifacts(outdir, np.zeros((2, 2)), records, ledger, delta)
    rows = open(paths["clients"]).read().splitlines()[1:]
    assert len(rows) == len(ledger.clients())
    for row in rows:
        cid, _, written = row.split(",")
        want, _ = rdp_to_dp(compose_client_rdp(ledger, int(cid)), delta)
        assert float(written) >= want.epsilon, row


def test_clients_csv_never_shows_an_epsilon_below_the_librarys_at_criterion_6(tmp_path):
    # rounded to nearest, 13 of these 20 epsilons read back below the library's
    cfg = SimConfig(
        rounds=200, clients=20, m_t=10, d=5, classes=2, points_per_client=100,
        batch_size=10, clip=1.0, sigma=3.0, seed=33, dropout_prob=0.3,
    )
    _assert_clients_csv_not_below_library(tmp_path, run_training(cfg)[2], cfg.delta)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    histories=st.lists(
        st.lists(st.tuples(st.sampled_from([0.001, 0.01, 0.05, 0.2]),
                           st.sampled_from([0.7, 1.1, 2.0, 5.0])), min_size=1, max_size=300),
        min_size=1, max_size=6,
    ),
    delta=st.sampled_from([1e-3, 1e-5, 1e-9]),
)
def test_clients_csv_never_shows_an_epsilon_below_the_librarys(tmp_path_factory, histories, delta):
    ledger = ParticipationLedger()
    for cid, steps in enumerate(histories):
        for t, (q, sigma) in enumerate(steps, start=1):
            ledger.record(cid, t, StepParams(q=q, sigma=sigma, clip=1.0, batch_size=1))
    _assert_clients_csv_not_below_library(tmp_path_factory.mktemp("artifacts"), ledger, delta)


def test_epsilon_report_tracks_participation():
    cfg = small_config(rounds=40, dropout_prob=0.4, seed=9, sigma=2.0)
    _, _, ledger = run_training(cfg)
    rows = client_epsilon_report(ledger, 1e-5)
    rows.sort(key=lambda r: r[1])
    eps = [r[2] for r in rows]
    assert eps == sorted(eps)


# --- traces and artifacts -----------------------------------------------------


@pytest.mark.parametrize(
    "field, value",
    [("sigma", np.float64(1.5)), ("points_per_client", np.int64(30)), ("batch_size", np.int64(6))],
)
def test_numpy_config_values_write_a_readable_ledger(tmp_path, field, value):
    plain = small_config()
    cfg = dataclasses.replace(plain, **{field: value})
    model, records, ledger = run_training(cfg)
    paths = write_artifacts(tmp_path, model, records, ledger, cfg.delta)
    assert ParticipationLedger.read(paths["ledger"]).to_text() == run_training(plain)[2].to_text()


def test_numpy_typed_rounds_calibrate_and_train_like_an_int(tmp_path):
    # calibrate_sigma and the stream seeding take built-in ints only, so the
    # config converts at its boundary
    fields = dict(clients=3, m_t=2, d=4, classes=2, points_per_client=20, batch_size=5,
                  clip=1.0, target_epsilon=4.0)
    written = []
    for integer in (np.int64, int):
        model, records, ledger = run_training(SimConfig(rounds=integer(3), seed=integer(3), **fields))
        paths = write_artifacts(tmp_path / str(len(written)), model, records, ledger, 1e-5)
        written.append([open(paths[name], "rb").read() for name in sorted(paths)])
    assert written[0] == written[1]


def test_a_calibrated_sigma_is_stored_and_ledgered_as_a_built_in_float(tmp_path):
    # calibrate_sigma's sigma is a float subclass; every number boundary
    # stores a built-in float, so the ledger never sees the subclass
    cfg = small_config(sigma=None, target_epsilon=4.0)
    sigma = cfg.resolve_sigma()
    assert type(sigma) is not float and hasattr(sigma, "epsilon")
    stored = [
        dataclasses.replace(cfg, sigma=sigma, target_epsilon=None).sigma,
        StepParams(q=cfg.sampling_ratio, sigma=sigma, clip=1.0, batch_size=1).sigma,
        MechanismParams(q=cfg.sampling_ratio, sigma=sigma).sigma,
    ]
    assert [type(value) for value in stored] == [float] * 3
    assert stored == [sigma] * 3
    ledgers = []
    for run in (cfg, dataclasses.replace(cfg, sigma=float(sigma), target_epsilon=None)):
        paths = write_artifacts(tmp_path / str(len(ledgers)), *run_training(run), run.delta)
        with open(paths["ledger"], "rb") as fh:
            ledgers.append(fh.read())
    assert ledgers[0] == ledgers[1]


def test_trace_fixed_sampler_constant():
    sizes = batch_size_trace(small_config(), "fixed", 50)
    assert sizes == [6] * 50


def test_trace_zero_rounds_empty():
    assert batch_size_trace(small_config(), "poisson", 0) == []


def test_trace_rejects_unknown_sampler():
    with pytest.raises(ValueError):
        batch_size_trace(small_config(), "bernoulli", 5)


def test_trace_rejects_negative_rounds():
    with pytest.raises(ValueError, match="rounds must be >= 0"):
        batch_size_trace(small_config(), "fixed", -1)


@pytest.mark.parametrize("rounds", [True, 2.5, "3", np.float64(3.0)], ids=repr)
def test_trace_rounds_must_be_an_integer(rounds):
    # True would run one round; 2.5 and "3" would fail as a TypeError
    with pytest.raises(ValueError) as info:
        batch_size_trace(small_config(), "fixed", rounds)
    assert str(info.value) == f"rounds must be >= 0, got {rounds!r}"


def test_trace_takes_a_numpy_integer_as_its_builtin_value():
    assert batch_size_trace(small_config(), "poisson", np.int64(3)) == batch_size_trace(
        small_config(), "poisson", 3)


def test_artifacts_round_trip(tmp_path):
    cfg = small_config(rounds=8, sigma=2.0)
    model, records, ledger = run_training(cfg)
    paths = write_artifacts(tmp_path / "out", model, records, ledger, cfg.delta)
    weights = [float(line) for line in open(paths["model"])]
    assert np.array_equal(np.array(weights), model.ravel())
    back = ParticipationLedger.read(paths["ledger"])
    assert back.to_text() == ledger.to_text()
    rows = open(paths["rounds"]).read().splitlines()
    assert rows[0] == "t,client_id,batch_size,update_norm"
    assert len(rows) == 1 + sum(len(r.selected) for r in records)
    assert {row.split(",")[2] for row in rows[1:]} == {str(cfg.batch_size)}
    crows = open(paths["clients"]).read().splitlines()
    assert crows[0] == "client_id,participations,epsilon"
    assert len(crows) == 1 + len(ledger.clients())


def test_artifacts_reject_round_records_the_ledger_does_not_match(tmp_path):
    cfg = small_config(rounds=8, sigma=2.0)
    model, records, ledger = run_training(cfg)
    shifted = [dataclasses.replace(records[0], t=records[0].t + 1)] + records[1:]
    with pytest.raises(ValueError, match="round record t=2, ledger step t=1"):
        write_artifacts(tmp_path / "out", model, shifted, ledger, cfg.delta)
    # a row past its client's last ledger step, or of a client with none
    cid = records[-1].selected[0]
    for kept in (ledger.participation_count(cid) - 1, 0):
        short = ParticipationLedger()
        for other in ledger.clients():
            for t, params in ledger.steps(other)[: kept if other == cid else None]:
                short.record(other, t, params)
        t = ledger.steps(cid)[kept][0]
        with pytest.raises(ValueError, match=f"client {cid}: round record t={t}, no ledger step"):
            write_artifacts(tmp_path / "out", model, records, short, cfg.delta)
    # a ledger step no record pairs, of a client in no record or past a
    # recorded client's last row, and a record one update norm short or over
    outdir = tmp_path / "none"
    outdir.mkdir()
    last, step = ledger.steps(cid)[-1]
    stray = ParticipationLedger.from_text(ledger.to_text()).record(99, 1, step)
    extra = ParticipationLedger.from_text(ledger.to_text()).record(cid, last + 1, step)
    rec = records[-1]
    norms = f"^round record t={rec.t}: {len(rec.selected)} clients selected, %d update norms$"
    for recs, led, message in (
        (records, stray, "^client 99: ledger step t=1, no round record$"),
        (records, extra, f"^client {cid}: ledger step t={last + 1}, no round record$"),
        (records[:-1] + [dataclasses.replace(rec, update_norms=rec.update_norms[:-1])],
         ledger, norms % (len(rec.selected) - 1)),
        (records[:-1] + [dataclasses.replace(rec, update_norms=rec.update_norms + (1.0,))],
         ledger, norms % (len(rec.selected) + 1)),
    ):
        with pytest.raises(ValueError, match=message):
            write_artifacts(outdir, model, recs, led, cfg.delta)
        assert list(outdir.iterdir()) == []


def test_artifacts_write_nothing_when_they_raise(tmp_path):
    cfg = small_config(rounds=8, sigma=2.0)
    model, records, ledger = run_training(cfg)
    outdir = tmp_path / "out"
    outdir.mkdir()
    for led, delta, message in ((ledger, 5.0, "delta must lie in"),
                                (ParticipationLedger(), cfg.delta, "no ledger step")):
        with pytest.raises(ValueError, match=message):
            write_artifacts(outdir, model, records, led, delta)
        assert list(outdir.iterdir()) == []


ARTIFACTS = ("model.txt", "rounds.csv", "clients.csv", "ledger.tsv")  # in writing order


@pytest.mark.parametrize("failing", ARTIFACTS)
def test_artifacts_write_failing_partway_keeps_old_file(tmp_path, half_full_disk, failing):
    def artifacts(seed):
        cfg = small_config(rounds=8, sigma=2.0, seed=seed)
        return run_training(cfg) + (cfg.delta,)

    outdir = tmp_path / "out"
    write_artifacts(outdir, *artifacts(5))
    old = {name: (outdir / name).read_bytes() for name in ARTIFACTS}
    new_run = artifacts(6)
    write_artifacts(tmp_path / "fresh", *new_run)
    new = {name: (tmp_path / "fresh" / name).read_bytes() for name in ARTIFACTS}
    assert all(old[name] != new[name] for name in ARTIFACTS)
    written = half_full_disk(failing)
    with pytest.raises(OSError):
        write_artifacts(outdir, *new_run)
    assert written and written[0] > 0  # the failure came after a partial write
    done = ARTIFACTS[: ARTIFACTS.index(failing)]
    for name in ARTIFACTS:
        assert (outdir / name).read_bytes() == (new if name in done else old)[name], name
    assert sorted(os.listdir(outdir)) == sorted(ARTIFACTS)
