"""CLI adapter: flag parsing, output fidelity, exit codes."""

import json
import math
import os

import numpy as np
import pytest

from fedrdp import accountant, cli, simulate
from fedrdp.accountant import (
    DEFAULT_ALPHAS,
    ParticipationLedger,
    StepParams,
    compose_client_rdp,
    rdp_to_dp,
)
from fedrdp.divergence import MechanismParams, renyi_divergence_quadrature, renyi_step_bound


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_kv(text):
    pairs = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def write_demo_ledger(path, steps=5, q=0.02, sigma=2.0):
    led = ParticipationLedger()
    for t in range(1, steps + 1):
        led.record(0, t, StepParams(q=q, sigma=sigma, clip=1.0, batch_size=4))
    led.write(path)
    return led


def demo_config(tmp_path, **overrides):
    cfg = dict(
        rounds=6,
        clients=3,
        m_t=2,
        d=4,
        classes=2,
        points_per_client=20,
        batch_size=5,
        clip=1.0,
        sigma=1.5,
        seed=4,
    )
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# --- exit codes ----------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert run_cli(capsys)[0] == cli.EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli(capsys, "frobnicate")[0] == cli.EXIT_USAGE


def test_missing_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bound", "--alpha", "2", "--q", "0.05")
    assert code == cli.EXIT_USAGE
    assert "--sigma" in err


def test_domain_error_is_usage_exit(capsys):
    code, _, err = run_cli(capsys, "bound", "--alpha", "2", "--q", "1", "--sigma", "2")
    assert code == cli.EXIT_USAGE
    assert "q < 1" in err


def test_numerical_overflow_exit(capsys):
    # the m = 3 remainder at order 300.5 needs moments past the series' cap
    code, _, err = run_cli(capsys, "bound", "--alpha", "300.5", "--q", "0.1", "--sigma", "0.4", "--m", "3")
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in err


def test_missing_file_is_io_exit(capsys):
    code, _, err = run_cli(capsys, "convert", "--curve", "does-not-exist.csv")
    assert code == cli.EXIT_IO


def test_malformed_config_json_is_io_exit(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "trace", "--config", str(bad), "--rounds", "1")
    assert code == cli.EXIT_IO


def test_invalid_config_value_is_usage_exit(capsys, tmp_path):
    path = demo_config(tmp_path, batch_size=100)
    code, _, _ = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_USAGE


# --- bound / oracle ---------------------------------------------------------


def test_bound_output_matches_library(capsys):
    code, out, _ = run_cli(capsys, "bound", "--alpha", "2", "--q", "0.05", "--sigma", "4")
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    expect = renyi_step_bound(2.0, MechanismParams(0.05, 4.0))
    oracle = renyi_divergence_quadrature(2.0, 0.05, 4.0)
    assert float(kv["bound"]) == expect.bound
    assert float(kv["oracle"]) == oracle
    assert float(kv["remainder"]) == expect.remainder
    assert int(kv["m"]) == expect.m
    assert kv["path"] == expect.path == "closed_form"


def test_bound_zero_sampling(capsys):
    code, out, _ = run_cli(capsys, "bound", "--alpha", "4", "--q", "0", "--sigma", "2")
    kv = parse_kv(out)
    assert code == cli.EXIT_OK
    assert float(kv["bound"]) == 0.0
    assert float(kv["oracle"]) == 0.0


def test_bound_explicit_truncation(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--alpha", "6", "--q", "0.02", "--sigma", "3", "--m", "5"
    )
    assert code == cli.EXIT_OK
    assert int(parse_kv(out)["m"]) == 5


def test_oracle_full_batch_closed_form(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--alpha", "3", "--q", "1", "--sigma", "2")
    assert code == cli.EXIT_OK
    assert float(parse_kv(out)["divergence"]) == pytest.approx(1.5, rel=1e-12)


# --- compose / convert --------------------------------------------------------


def test_compose_csv_matches_library(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger_path)
    out_path = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "compose", "--ledger", str(ledger_path), "--client", "0",
        "--output", str(out_path),
    )
    assert code == cli.EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "alpha,rdp"
    curve = compose_client_rdp(ParticipationLedger.read(ledger_path), 0)
    assert len(lines) == 1 + len(curve.alphas)
    for line, (alpha, value) in zip(lines[1:], curve.items()):
        assert line == f"{alpha:.17g},{value:.17g}"


def test_compose_jsonl_stdout(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger_path, steps=2)
    code, out, _ = run_cli(
        capsys, "compose", "--ledger", str(ledger_path), "--client", "0",
        "--format", "jsonl", "--alphas", "2,4,8",
    )
    assert code == cli.EXIT_OK
    rows = [json.loads(line) for line in out.splitlines()]
    assert [r["alpha"] for r in rows] == [2.0, 4.0, 8.0]
    curve = compose_client_rdp(ParticipationLedger.read(ledger_path), 0, (2.0, 4.0, 8.0))
    assert [r["rdp"] for r in rows] == list(curve.values)


def test_compose_absent_client_zero_curve(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger_path)
    code, out, _ = run_cli(
        capsys, "compose", "--ledger", str(ledger_path), "--client", "9",
        "--alphas", "2,4",
    )
    assert code == cli.EXIT_OK
    assert out.splitlines()[1:] == ["2,0", "4,0"]


def test_compose_rejects_an_infinite_order(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger_path)
    for client in ("9", "0"):  # no steps, and some
        code, out, err = run_cli(
            capsys, "compose", "--ledger", str(ledger_path), "--client", client,
            "--alphas", "2,inf",
        )
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "finite" in err


def _multi_client_ledger(path):
    led = ParticipationLedger()
    for cid, q, sigma in ((3, 0.02, 2.0), (0, 0.05, 1.5), (12, 0.01, 3.0), (1, 0.02, 2.0)):
        for t in range(cid + 1, cid + 40, 3):
            led.record(cid, t, StepParams(q=q, sigma=sigma, clip=1.0, batch_size=4))
    led.write(path)
    return led


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_compose_output_is_the_library_curve_of_the_full_ledger(capsys, tmp_path, fmt):
    ledger_path = tmp_path / "ledger.tsv"
    led = _multi_client_ledger(ledger_path)
    full = ParticipationLedger.read(ledger_path)
    for cid in led.clients() + (5,):  # 5 is absent: the zero curve
        code, out, _ = run_cli(
            capsys, "compose", "--ledger", str(ledger_path), "--client", str(cid), "--format", fmt,
        )
        assert code == cli.EXIT_OK
        curve = compose_client_rdp(full, cid)
        if fmt == "csv":
            want = "alpha,rdp\n" + "".join(f"{a:.17g},{v:.17g}\n" for a, v in curve.items())
        else:
            want = "".join(json.dumps({"alpha": a, "rdp": v}) + "\n" for a, v in curve.items())
        assert out == want
        assert (max(curve.values) > 0) == (cid != 5)


def test_compose_ignores_malformed_lines_of_other_clients(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.tsv"
    led = _multi_client_ledger(ledger_path)
    good = ledger_path.read_text()
    ledger_path.write_text(good + "4\t1\t0.5\tnan\t1.0\t2\n4\tjunk\n")
    code, _, err = run_cli(capsys, "compose", "--ledger", str(ledger_path), "--client", "4")
    assert code == cli.EXIT_USAGE and "error:" in err
    code, out, err = run_cli(capsys, "compose", "--ledger", str(ledger_path), "--client", "12")
    assert code == cli.EXIT_OK and err == ""
    rows = out.splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == list(compose_client_rdp(led, 12).values)


def test_compose_failing_write_keeps_previous_curve(capsys, tmp_path, half_full_disk):
    ledger_path = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger_path)
    curve_path = tmp_path / "curve.csv"
    curve_path.write_text("alpha,rdp\n1025,1.2345e-3\n")
    before = curve_path.read_bytes()
    written = half_full_disk("curve.csv")
    code, _, err = run_cli(
        capsys, "compose", "--ledger", str(ledger_path), "--client", "0",
        "--output", str(curve_path),
    )
    assert code == cli.EXIT_IO and "I/O failure" in err
    assert written and written[0] > 0  # the failure came after a partial write
    assert curve_path.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["curve.csv", "ledger.tsv"]


def test_convert_round_trip(capsys, tmp_path):
    ledger_path = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger_path)
    curve_path = tmp_path / "curve.csv"
    run_cli(capsys, "compose", "--ledger", str(ledger_path), "--client", "0",
            "--output", str(curve_path))
    code, out, _ = run_cli(capsys, "convert", "--curve", str(curve_path), "--delta", "1e-5")
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    # the curve file carries 17 significant digits, which round-trip every
    # double, so conversion gives the direct library result exactly
    direct, alpha_star = rdp_to_dp(compose_client_rdp(ParticipationLedger.read(ledger_path), 0), 1e-5)
    assert float(kv["epsilon"]) == direct.epsilon
    assert float(kv["alpha_star"]) == alpha_star


def test_convert_of_composed_curve_file_is_the_library_epsilon(capsys, tmp_path):
    # at 12 significant digits this curve converted to 5.806109139106743,
    # below the library's 5.806109139107474
    ledger_path = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger_path, steps=2000, q=0.005, sigma=1.3)
    curve_path = tmp_path / "curve.csv"
    run_cli(capsys, "compose", "--ledger", str(ledger_path), "--client", "0",
            "--output", str(curve_path))
    code, out, _ = run_cli(capsys, "convert", "--curve", str(curve_path), "--delta", "1e-5")
    assert code == cli.EXIT_OK
    direct, _ = rdp_to_dp(compose_client_rdp(ParticipationLedger.read(ledger_path), 0), 1e-5)
    assert float(parse_kv(out)["epsilon"]) == direct.epsilon


def test_convert_reads_jsonl(capsys, tmp_path):
    path = tmp_path / "curve.jsonl"
    path.write_text('{"alpha": 2.0, "rdp": 0.5}\n')
    code, out, _ = run_cli(capsys, "convert", "--curve", str(path), "--delta", "0.01")
    assert code == cli.EXIT_OK
    assert float(parse_kv(out)["epsilon"]) == pytest.approx(0.5 + math.log(100.0), rel=1e-12)


def test_convert_rejects_an_infinite_order(capsys, tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("alpha,rdp\n2,0.5\ninf,0\n")
    code, out, err = run_cli(capsys, "convert", "--curve", str(path))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "and finite" in err


@pytest.mark.parametrize(
    "name, text",
    [
        ("curve.jsonl", '{"alpha": 2.0, "rdp": 0.5}\n\n{"alpha": 4.0, "rdp": \n'),
        ("curve.csv", "alpha,rdp\n2,0.5\n4,0.7,1\n"),
        ("curve.jsonl", '{"alpha": 2.0, "rdp": 0.5}\n\n{"alpha": 4.0}\n'),
    ],
    ids=["json-syntax", "csv-fields", "json-key"],
)
def test_convert_names_the_line_of_a_bad_curve_row(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "convert", "--curve", str(path))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: curve line 3: ")


# --- calibrate ------------------------------------------------------------------


def test_calibrate_prints_consistent_sigma(capsys):
    code, out, _ = run_cli(
        capsys, "calibrate", "--epsilon", "2", "--delta", "1e-5", "--q", "0.05",
        "--steps", "20",
    )
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert float(kv["achieved_epsilon"]) <= 2.0
    assert float(kv["sigma"]) > 0


def test_calibrate_prints_no_trace_by_default(capsys):
    code, out, err = run_cli(
        capsys, "calibrate", "--epsilon", "4", "--delta", "1e-5", "--q", "0.05",
        "--steps", "100",
    )
    assert code == cli.EXIT_OK
    assert err == ""
    assert list(parse_kv(out)) == [
        "sigma", "achieved_epsilon", "target_epsilon", "delta", "alpha_star",
    ]
    assert len(out.splitlines()) == 5


def test_calibrate_reports_the_certified_curve_without_reevaluating(capsys, monkeypatch):
    seen = []
    original = accountant.renyi_step_bound

    def counting(alpha, params, **kw):
        seen.append((alpha, params.q, params.sigma))
        return original(alpha, params, **kw)

    monkeypatch.setattr(accountant, "renyi_step_bound", counting)
    code, out, _ = run_cli(
        capsys, "calibrate", "--epsilon", "3", "--delta", "1e-5", "--q", "0.0517",
        "--steps", "30",
    )
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert seen and len(seen) == len(set(seen))
    ledger = ParticipationLedger()
    for t in range(1, 31):
        ledger.record(0, t, StepParams(q=0.0517, sigma=float(kv["sigma"]), clip=1.0, batch_size=1))
    budget, alpha_star = rdp_to_dp(compose_client_rdp(ledger, 0), 1e-5)
    assert float(kv["achieved_epsilon"]) == budget.epsilon <= 3.0
    assert float(kv["alpha_star"]) == alpha_star


def test_calibrate_rejects_an_infinite_order(capsys):
    code, out, err = run_cli(
        capsys, "calibrate", "--epsilon", "4", "--delta", "1e-5", "--q", "0.05",
        "--steps", "100", "--alphas", "2,inf",
    )
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "and finite" in err


def test_calibrate_rejects_a_grid_that_is_not_increasing(capsys):
    code, out, err = run_cli(
        capsys, "calibrate", "--epsilon", "4", "--delta", "1e-5", "--q", "0.05",
        "--steps", "100", "--alphas", "4,2",
    )
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "orders must be strictly increasing and > 1" in err


@pytest.mark.parametrize("rounds", [True, 2.5])
def test_simulate_rejects_mistyped_rounds_before_calibrating(capsys, tmp_path, monkeypatch, rounds):
    def no_calibration(*args, **kwargs):
        raise AssertionError("calibration ran before config validation")

    monkeypatch.setattr(simulate, "calibrate_sigma", no_calibration)
    path = demo_config(tmp_path, sigma=None, target_epsilon=4.0, rounds=rounds)
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_USAGE
    assert f"rounds must be an integer, got {rounds!r}" in err


@pytest.mark.parametrize("field", ["clip", "step_size"])
def test_simulate_rejects_infinite_clip_and_step_size(capsys, tmp_path, field):
    # JSON Infinity loads as a float that passes the type and sign checks
    path = demo_config(tmp_path, **{field: math.inf})
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_USAGE
    assert f"{field} must be > 0 and finite" in err


def test_simulate_rejects_a_calibrated_sigma_whose_noise_overflows(capsys, tmp_path):
    # the calibrated sigma is finite, but clip * sigma / batch_size is not
    path = demo_config(tmp_path, clip=1e308, batch_size=1, sigma=None, target_epsilon=1.0)
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_USAGE
    assert "noise std clip * sigma / batch_size must be finite" in err
    assert not (tmp_path / "o").exists()


# --- simulate / trace -------------------------------------------------------------


def test_simulate_writes_artifacts(capsys, tmp_path):
    cfg = demo_config(tmp_path)
    outdir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--outdir", str(outdir))
    assert code == cli.EXIT_OK
    for name in ("model.txt", "rounds.csv", "clients.csv", "ledger.tsv"):
        assert (outdir / name).is_file()
    assert "accuracy=" in out


def test_simulate_prints_the_accuracy_of_its_model(capsys, tmp_path):
    path = demo_config(tmp_path, rounds=3, sigma=None, target_epsilon=4.0)
    outdir = tmp_path / "o"
    code, out, _ = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(outdir))
    assert code == cli.EXIT_OK
    config = simulate.SimConfig.from_file(path)
    weights = [float(line) for line in (outdir / "model.txt").read_text().splitlines()]
    model = np.array(weights).reshape(config.classes, config.d)
    clients = simulate.generate_client_data(config, config.resolve_sigma())
    assert parse_kv(out)["accuracy"] == repr(simulate.evaluate_accuracy(model, clients))


def test_simulate_builds_its_client_data_once(capsys, tmp_path, monkeypatch):
    # training and the accuracy score share one dataset: with nothing kept
    # before the run, every call of the builder returns the same arrays
    got = []
    build = simulate._client_data
    monkeypatch.setattr(simulate, "_KEPT_DATA", {})
    monkeypatch.setattr(simulate, "_client_data",
                        lambda config: got.append(build(config)) or got[-1])
    path = demo_config(tmp_path, sigma=None, target_epsilon=4.0)
    code, _, _ = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_OK
    assert len(got) == 2
    assert all(features is got[0][0] and labels is got[0][1] for features, labels in got)


def test_simulate_prints_calibrated_sigma_without_participations(capsys, tmp_path):
    # with m_t = 0 no client steps, so the ledger is empty; sigma is still
    # the calibrated one
    cfg = demo_config(tmp_path, rounds=3, clients=4, m_t=0, sigma=None, target_epsilon=4.0)
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_OK
    want = simulate.SimConfig.from_file(cfg).resolve_sigma()
    assert want > 0
    assert parse_kv(out)["sigma"] == repr(want)
    assert (tmp_path / "o" / "ledger.tsv").read_bytes() == b""


def test_simulate_seed_override_changes_output(capsys, tmp_path):
    cfg = demo_config(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(capsys, "simulate", "--config", str(cfg), "--outdir", str(a))
    run_cli(capsys, "simulate", "--config", str(cfg), "--outdir", str(b), "--seed", "99")
    assert (a / "model.txt").read_bytes() != (b / "model.txt").read_bytes()


def test_trace_stdout_csv(capsys, tmp_path):
    cfg = demo_config(tmp_path)
    code, out, _ = run_cli(capsys, "trace", "--config", str(cfg), "--rounds", "4")
    assert code == cli.EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "round,batch_size"
    assert lines[1:] == ["1,5", "2,5", "3,5", "4,5"]


def test_trace_poisson_to_file(capsys, tmp_path):
    cfg = demo_config(tmp_path, points_per_client=1000, batch_size=100)
    out_path = tmp_path / "trace.csv"
    code, _, _ = run_cli(
        capsys, "trace", "--config", str(cfg), "--sampler", "poisson",
        "--rounds", "50", "--output", str(out_path),
    )
    assert code == cli.EXIT_OK
    rows = out_path.read_text().splitlines()
    sizes = [int(r.split(",")[1]) for r in rows[1:]]
    assert len(sizes) == 50
    assert len(set(sizes)) > 1  # variable batch sizes


def test_trace_seed_reproducible(capsys, tmp_path):
    cfg = demo_config(tmp_path, points_per_client=1000, batch_size=100)
    _, out1, _ = run_cli(capsys, "trace", "--config", str(cfg), "--sampler", "poisson",
                         "--rounds", "10", "--seed", "21")
    _, out2, _ = run_cli(capsys, "trace", "--config", str(cfg), "--sampler", "poisson",
                         "--rounds", "10", "--seed", "21")
    assert out1 == out2
