"""CLI adapter: flag parsing, output fidelity, exit codes."""

import argparse
import importlib.util
import json
import math
import os
import pathlib
import subprocess
import sys
import threading

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
from fedrdp.divergence import (
    BoundResult,
    MechanismParams,
    renyi_divergence_quadrature,
    renyi_step_bound,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def _subparsers(parser):
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_subcommand_usage_error_prints_argparse_usage_and_exits_1(capsys):
    # argparse's own error text, with 1 for its exit code 2
    sub = _subparsers(cli._build_parser())["calibrate"]
    code, out, err = run_cli(capsys, "calibrate", "--epsilon", "x", "--q", "0.05", "--steps", "100")
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == (sub.format_usage()
                   + "fedrdp calibrate: error: argument --epsilon: invalid float value: 'x'\n")
    assert run_cli(capsys, "--help")[0] == cli.EXIT_OK


@pytest.fixture
def parser_builds(monkeypatch):
    """A list that gains one entry each time argparse's parser is built."""
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    return builds


def test_a_plain_command_builds_no_parser(capsys, parser_builds):
    assert run_cli(capsys, "calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "100")[0] == 0
    assert parser_builds == []
    assert list(_subparsers(cli._build_parser())) == list(cli._COMMANDS)


def test_a_leftover_argument_prints_the_full_usage_and_exits_1(capsys):
    # the command's own parser reports it, under the full parser's usage line
    for leftover in (["extra"], ["--bogus", "1"]):
        code, out, err = run_cli(capsys, "calibrate", "--epsilon", "4", "--q", "0.05",
                                 "--steps", "100", *leftover)
        assert (code, out) == (cli.EXIT_USAGE, ""), leftover
        assert err == (cli._build_parser().format_usage()
                       + f"fedrdp: error: unrecognized arguments: {' '.join(leftover)}\n")


def _same_outputs_corpus():
    path = ROOT / "scripts" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return [argv for _, argv in harness.CORPUS]


def _sample_value(keywords):
    if "choices" in keywords:
        return keywords["choices"][-1]
    return {int: "7", float: "0.25"}.get(keywords.get("type"), "x.txt")


def _generated_plain_argvs():
    """Each command with every set of its optional flags, in declared and reversed order."""
    for name, (_, arguments, _) in cli._COMMANDS.items():
        required = [a for a in arguments if a[1].get("required")]
        optional = [a for a in arguments if not a[1].get("required")]
        for mask in range(2 ** len(optional)):
            chosen = required + [a for i, a in enumerate(optional) if mask >> i & 1]
            chosen.sort(key=arguments.index)
            for order in (chosen, chosen[::-1]):
                yield [name] + [tok for flag, kw in order for tok in (flag, _sample_value(kw))]


def test_the_plain_parse_matches_argparse_or_declines():
    parser = cli._build_parser()
    corpus = [argv for argv in _same_outputs_corpus() if argv and argv[0] in cli._COMMANDS]
    generated = list(_generated_plain_argvs())
    plain = 0
    for argv in corpus + generated:
        args = cli._plain_args(argv)
        if args is not None:
            plain += 1
            assert vars(args) == vars(parser.parse_args(argv)), argv
        else:
            assert argv not in generated, argv
    # 2 ** (optional flags) sets a command, each in two orders
    assert len(generated) == 2 * (1 + 1 + 8 + 2 + 4 + 2 + 16)
    assert plain > len(generated) + 30


_PLAIN_CALIBRATE = ["calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "100"]


@pytest.mark.parametrize("argv", [
    ["calibrate", "--eps", "4", "--q", "0.05", "--steps", "100"],
    ["calibrate", "--epsilon=4", "--q", "0.05", "--steps", "100"],
    _PLAIN_CALIBRATE + ["--steps", "50"],
    ["compose", "--ledger", "ledger.tsv", "--client", "-1"],
    ["bound", "--alpha", "2", "--q", "-0.1", "--sigma", "1"],
    ["calibrate", "--epsilon", "x", "--q", "0.05", "--steps", "100"],
    ["compose", "--ledger", "ledger.tsv", "--client", "0", "--format", "xml"],
    ["calibrate", "--epsilon", "4", "--q", "0.05"],
    ["calibrate", "-h"],
    _PLAIN_CALIBRATE + ["--help", "x"],
    ["--help"],
    _PLAIN_CALIBRATE + ["extra"],
    _PLAIN_CALIBRATE + ["--bogus", "1"],
    [],
    ["frobnicate", "--epsilon", "4"],
], ids=["abbreviation", "flag=value", "repeated", "negative-int", "negative-float",
        "bad-float", "bad-choice", "missing-required", "-h", "--help", "top-level-help",
        "stray", "unknown-flag", "no-command", "unknown-command"])
def test_the_plain_parse_declines(argv):
    assert cli._plain_args(argv) is None


# what calibrate and convert need not load; -S, so that no module site loads hides one
_UNUSED_MODULES = {"argparse", "gettext", "locale", "dataclasses", "inspect", "json", "re", "typing"}


def test_a_plain_process_imports_no_argparse(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def imported(*argv):
        run = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "fedrdp.cli", *argv],
                             env=env, cwd=tmp_path, capture_output=True, text=True, check=True)
        return {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}, run.stdout

    modules, out = imported(*_PLAIN_CALIBRATE)
    assert "fedrdp.accountant" in modules and out.startswith("sigma=")
    assert not _UNUSED_MODULES & modules
    (tmp_path / "ledger.tsv").write_text("0\t1\t0.01\t2.0\t1.0\t10\n")
    modules, _ = imported("compose", "--ledger", "ledger.tsv", "--client", "0", "--output", "curve.csv")
    assert "re" in modules and "json" not in modules  # a ledger read needs re
    modules, out = imported("convert", "--curve", "curve.csv")
    assert out.startswith("epsilon=") and not _UNUSED_MODULES & modules
    run = subprocess.run([sys.executable, "-m", "fedrdp.cli", "--help"], env=env,
                         capture_output=True, text=True, check=True)
    assert run.stdout.startswith("usage: fedrdp [-h] {bound,oracle,compose,")


def test_missing_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "bound", "--alpha", "2", "--q", "0.05")
    assert code == cli.EXIT_USAGE
    assert "--sigma" in err


def test_domain_error_is_usage_exit(capsys):
    code, _, err = run_cli(capsys, "bound", "--alpha", "2", "--q", "1", "--sigma", "2")
    assert code == cli.EXIT_USAGE
    assert "q < 1" in err


def test_numerical_overflow_exit(capsys):
    # order 70000 is past the closed form's domain (orders up to 2^16)
    code, _, err = run_cli(capsys, "bound", "--alpha", "70000", "--q", "0.1", "--sigma", "1")
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in err


def test_missing_file_is_io_exit(capsys):
    code, _, err = run_cli(capsys, "convert", "--curve", "does-not-exist.csv")
    assert code == cli.EXIT_IO


def test_malformed_config_json_is_io_exit(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    for argv in (["trace", "--config", str(bad), "--rounds", "1"],
                 ["simulate", "--config", str(bad), "--outdir", str(tmp_path / "out")]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_IO, "")
        assert err == (f"I/O failure: cannot parse {bad}: Expecting property name enclosed in "
                       "double quotes: line 1 column 2 (char 1)\n")


def test_config_not_utf8_is_io_exit(capsys, tmp_path):
    # a config that does not decode is an I/O failure naming the file, as one
    # that does not parse is
    bad = tmp_path / "bad8.json"
    bad.write_bytes(b'{"seed": 1, \xff}')
    for argv in (["trace", "--config", str(bad), "--rounds", "1"],
                 ["simulate", "--config", str(bad), "--outdir", str(tmp_path / "out")]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_IO, "")
        assert err == (f"I/O failure: cannot parse {bad}: 'utf-8' codec can't decode byte 0xff "
                       "in position 12: invalid start byte\n")


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
    # the power series in q that --m truncated is gone; a script that still
    # passes it fails loudly instead of silently taking another path
    code, out, err = run_cli(
        capsys, "bound", "--alpha", "6", "--q", "0.02", "--sigma", "3", "--m", "5"
    )
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "--m" in err


def test_bound_below_the_oracle_is_a_numerical_exit(capsys, monkeypatch):
    real = cli.renyi_step_bound

    def zero_bound(alpha, params):
        result = real(alpha, params)
        return BoundResult(0.0, result.leading_sum, result.remainder, result.m, result.path)

    monkeypatch.setattr(cli, "renyi_step_bound", zero_bound)
    code, out, err = run_cli(capsys, "bound", "--alpha", "2", "--q", "0.05", "--sigma", "4")
    assert code == cli.EXIT_NUMERICAL
    assert parse_kv(out)["bound"] == "0.0"
    assert "dominance violation" in err


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


def test_compose_rejects_an_unparsable_order_list(capsys, tmp_path):
    path = tmp_path / "ledger.tsv"
    write_demo_ledger(path)
    code, out, err = run_cli(capsys, "compose", "--ledger", str(path), "--client", "0",
                             "--alphas", "2,x")
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "could not parse order list" in err


def test_compose_and_calibrate_reject_an_empty_order_list(capsys, tmp_path):
    path = tmp_path / "ledger.tsv"
    write_demo_ledger(path)
    for argv in (["compose", "--ledger", str(path), "--client", "0"],
                 ["calibrate", "--epsilon", "4", "--delta", "1e-5", "--q", "0.05",
                  "--steps", "100"]):
        code, out, err = run_cli(capsys, *argv, "--alphas", ",")
        assert code == cli.EXIT_USAGE == 1, argv
        assert out == ""
        assert err == "error: the order grid must not be empty\n"


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
        # _curve_text writes JSON numbers only; true is not 1.0, nor "4" 4.0
        ("curve.jsonl", '{"alpha": 2.0, "rdp": 0.5}\n\n{"alpha": 4, "rdp": true}\n'),
        ("curve.jsonl", '{"alpha": 2.0, "rdp": 0.5}\n\n{"alpha": "4", "rdp": "0.5"}\n'),
        ("curve.jsonl", '{"alpha": 2.0, "rdp": 0.5}\n\n{"alpha": 4, "rdp": 1%s}\n' % ("0" * 400)),
    ],
    ids=["json-syntax", "csv-fields", "json-key", "json-bool", "json-string", "json-huge-int"],
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
    original = accountant._step_bound  # the float core the memo calls

    def counting(alpha, q, sigma):
        seen.append((alpha, q, sigma))
        return original(alpha, q, sigma)

    monkeypatch.setattr(accountant, "_step_bound", counting)
    calibrate = cli.calibrate_sigma
    at_return = []

    def recording(*args, **kw):
        sigma = calibrate(*args, **kw)
        at_return.append(len(seen))
        return sigma

    monkeypatch.setattr(cli, "calibrate_sigma", recording)
    code, out, _ = run_cli(
        capsys, "calibrate", "--epsilon", "3", "--delta", "1e-5", "--q", "0.0517",
        "--steps", "30",
    )
    assert code == cli.EXIT_OK
    kv = parse_kv(out)
    assert seen and len(seen) == len(set(seen))
    # the printed epsilon is the accepting probe's: no bound is taken after
    # the calibration returns
    assert at_return == [len(seen)]
    ledger = ParticipationLedger()
    for t in range(1, 31):
        ledger.record(0, t, StepParams(q=0.0517, sigma=float(kv["sigma"]), clip=1.0, batch_size=1))
    budget, alpha_star = rdp_to_dp(compose_client_rdp(ledger, 0), 1e-5)
    assert float(kv["achieved_epsilon"]) == budget.epsilon <= 3.0
    assert float(kv["alpha_star"]) == alpha_star


def test_calibrate_in_concurrent_threads_prints_each_threads_probe(monkeypatch):
    # every thread's calibration returns before any command reads its
    # accepted probe, and each still prints its own
    targets = [("4", "0.05", "100"), ("16", "0.2", "5"), ("2", "0.02", "50"), ("8", "0.1", "20")]
    calibrate = cli.calibrate_sigma
    barrier = threading.Barrier(len(targets), timeout=60)

    def waiting(*args, **kw):
        sigma = calibrate(*args, **kw)
        barrier.wait()
        return sigma

    printed, codes = [], {}

    def run(target):
        epsilon, q, steps = target
        codes[target] = cli.main(["calibrate", "--epsilon", epsilon, "--q", q, "--steps", steps])

    monkeypatch.setattr(cli, "_print_kv", lambda **kv: printed.append(repr(kv)))
    monkeypatch.setattr(cli, "calibrate_sigma", waiting)
    threads = [threading.Thread(target=run, args=(target,)) for target in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert codes == dict.fromkeys(targets, cli.EXIT_OK)
    threaded = sorted(printed)
    printed.clear()
    monkeypatch.setattr(cli, "calibrate_sigma", calibrate)
    for target in targets:
        run(target)
    assert threaded == sorted(printed)


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
    assert f"rounds must be an integer >= 1, got {rounds!r}" in err


@pytest.mark.parametrize("field", ["clip", "step_size"])
def test_simulate_rejects_infinite_clip_and_step_size(capsys, tmp_path, field):
    # JSON Infinity loads as a float that passes the type and sign checks
    path = demo_config(tmp_path, **{field: math.inf})
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_USAGE
    assert f"{field} must be a finite real > 0, got inf" in err


@pytest.mark.parametrize("field", ["clip", "sigma", "target_epsilon", "step_size"])
def test_simulate_and_trace_reject_an_integer_past_float_range(capsys, tmp_path, field):
    # a JSON integer too large for a float is bad input, not a numerical failure
    noise = {"sigma": None} if field == "target_epsilon" else {}
    path = demo_config(tmp_path, **{**noise, field: 10**400})
    rule = {"clip": "a finite real > 0", "sigma": "a finite real >= 0",
            "target_epsilon": "a real > 0", "step_size": "a finite real > 0"}[field]
    for argv in (["simulate", "--outdir", str(tmp_path / "o")], ["trace"]):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == cli.EXIT_USAGE, argv
        assert out == ""
        assert err == f"error: {field} must be {rule}, got an integer of 401 digits\n"
    assert not (tmp_path / "o").exists()


def test_simulate_and_trace_reject_a_config_that_is_not_an_object(capsys, tmp_path):
    # SimConfig.from_dict names the JSON value's Python type
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    for argv in (["simulate", "--outdir", str(tmp_path / "o")], ["trace"]):
        code, out, err = run_cli(capsys, *argv, "--config", str(path))
        assert code == cli.EXIT_USAGE == 1, argv
        assert out == ""
        assert err == "error: config must be a JSON object, got list\n"
    assert not (tmp_path / "o").exists()


def test_simulate_and_trace_name_missing_config_keys(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    required = ["batch_size", "classes", "clients", "clip", "d", "points_per_client", "rounds"]
    for config, missing in (({}, required), ({"rounds": 3}, required[:-1])):
        path.write_text(json.dumps(config))
        for argv in (["simulate", "--outdir", str(tmp_path / "o")], ["trace"]):
            code, out, err = run_cli(capsys, *argv, "--config", str(path))
            assert code == cli.EXIT_USAGE == 1, argv
            assert out == ""
            assert err == f"error: missing config keys: {missing}\n"
    assert not (tmp_path / "o").exists()


def test_simulate_rejects_a_calibrated_sigma_whose_noise_overflows(capsys, tmp_path):
    # the calibrated sigma is finite, but clip * sigma / batch_size is not
    path = demo_config(tmp_path, clip=1e308, batch_size=1, sigma=None, target_epsilon=1.0)
    code, _, err = run_cli(capsys, "simulate", "--config", str(path), "--outdir", str(tmp_path / "o"))
    assert code == cli.EXIT_USAGE
    assert "noise std clip * sigma / batch_size must be finite" in err
    assert not (tmp_path / "o").exists()


def test_one_process_runs_commands_as_fresh_processes_do(capsys, monkeypatch, parser_builds,
                                                         tmp_path):
    # a process keeps state between commands (the step-bound memo, the loaded
    # simulator); each command must print what it prints in a process of its own
    ledger = tmp_path / "ledger.tsv"
    write_demo_ledger(ledger)
    curve = tmp_path / "curve.csv"
    argvs = [
        ["calibrate", "--epsilon", "x", "--q", "0.05", "--steps", "100"],
        ["--help"],
        ["compose", "--help"],
        ["nosuchcommand"],
        ["calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "100"],
        ["compose", "--ledger", str(ledger), "--client", "0", "--output", str(curve)],
        ["convert", "--curve", str(curve)],
        ["compose", "--ledger", str(ledger), "--client", "0", "--alphas", "2,4"],
        ["calibrate", "--q", "0.05"],
        ["calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "100", "extra"],
        ["calibrate", "--help"],
    ]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal's width
    shared = [run_cli(capsys, *argv) for argv in argvs]
    # argparse's parser is built once for each line that is not plain, and for no other
    assert len(parser_builds) == sum(cli._plain_args(argv) is None for argv in argvs) == 7
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    fresh = [subprocess.run([sys.executable, "-m", "fedrdp.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in argvs]
    assert shared == [(run.returncode, run.stdout, run.stderr) for run in fresh]
    assert [code for code, _, _ in shared] == [1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0]
    assert "invalid float value: 'x'" in shared[0][2]
    assert shared[1][1].startswith("usage: fedrdp")


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
