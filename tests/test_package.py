"""Public surface: exported names resolve, and the benchmark's tracer still fits."""

import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import fedrdp
from fedrdp import accountant, cli, divergence, simulate

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize(
    "module", [fedrdp, divergence, accountant, simulate], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_imports_the_simulator_on_first_access(monkeypatch):
    # the attribute is unset until the submodule is first imported
    monkeypatch.delattr(fedrdp, "simulate")
    assert fedrdp.simulate is simulate


def test_package_exports_16_names():
    assert len(fedrdp.__all__) == len(set(fedrdp.__all__)) == 16


def _run_python(code: str, cwd=None) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env, cwd=cwd, check=True)


@pytest.mark.parametrize(
    "module", ["fedrdp", "fedrdp.accountant", "fedrdp.divergence", "fedrdp.cli"]
)
def test_accountant_imports_leave_numpy_unloaded(module):
    # the package root is the accountant; only the simulator needs numpy, and
    # the command line imports it when simulate or trace first runs; only the
    # quadrature oracle and the likelihood-ratio moment need mpmath
    _run_python(f"""
        import sys, {module}
        assert 'numpy' not in sys.modules
        assert 'mpmath' not in sys.modules
        assert 'decimal' not in sys.modules  # only the per-client report needs it
    """)


def test_accountant_exports_11_names():
    assert len(accountant.__all__) == len(set(accountant.__all__)) == 11


def test_divergence_exports_7_names():
    assert len(divergence.__all__) == len(set(divergence.__all__)) == 7


def test_simulate_exports_10_names():
    assert len(simulate.__all__) == len(set(simulate.__all__)) == 10


def test_simulate_reexports_the_accountants_report():
    assert simulate.client_epsilon_report is accountant.client_epsilon_report


def test_epsilon_report_runs_without_numpy():
    # with numpy unimportable, the accountant still reports every client
    _run_python("""
        import sys
        sys.modules["numpy"] = None
        from fedrdp.accountant import ParticipationLedger, client_epsilon_report
        ledger = ParticipationLedger.from_text("0\\t1\\t0.01\\t2.0\\t1.0\\t10\\n"
                                               "0\\t2\\t0.01\\t2.0\\t1.0\\t10\\n")
        assert client_epsilon_report(ledger, 1e-5) == [(0, 2, 1.64649092567)]
        assert "fedrdp.simulate" not in sys.modules
    """)


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports(path):
    # importing runs a script's imports but not its main, so a public name
    # a script uses that is renamed or deleted fails here
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))


def test_same_outputs_sees_two_runs_of_one_tree_alike(tmp_path):
    # a two-entry corpus, run twice on this tree in fresh processes, has no
    # difference; a changed stdout or file is one
    spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "scripts" / "same_outputs.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    corpus = [entry for entry in harness.CORPUS if entry[0] in ("calibrate-readme", "trace-poisson")]
    runs = [harness.run_corpus(ROOT, tmp_path / side, corpus) for side in ("a", "b")]
    assert harness.differences(*runs) == []
    assert runs[0]["calibrate-readme"][:2] == (0, runs[1]["calibrate-readme"][1])
    assert runs[0]["calibrate-readme"][1].startswith(b"sigma=")
    assert runs[0]["files"]["poisson.csv"].startswith(b"round,batch_size\n1,")
    code, out, err = runs[1]["calibrate-readme"]
    runs[1]["calibrate-readme"] = (code, out + b"\n", err)
    runs[1]["files"]["poisson.csv"] += b"51,128\n"
    assert harness.differences(*runs) == ["calibrate-readme: stdout differs",
                                          "file poisson.csv differs"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_perfbench_tracer_instruments_and_restores(tmp_path, capsys):
    # perfbench's per-layer run wraps names on fedrdp's modules; a renamed
    # or deleted name would break it
    tracing = _load_tracing()
    ledger = accountant.ParticipationLedger()
    for t in range(1, 4):
        ledger.record(0, t, accountant.StepParams(q=0.02, sigma=2.0, clip=1.0, batch_size=4))
    ledger.write(tmp_path / "ledger.tsv")
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer, fedrdp)
    try:
        codes = [cli.main(["compose", "--ledger", str(tmp_path / "ledger.tsv"), "--client", "0",
                           "--alphas", "2,4"]),
                 cli.main(["calibrate", "--epsilon", "16", "--q", "0.2", "--steps", "5"])]
    finally:
        tracing.restore(undo)
    assert codes == [cli.EXIT_OK] * 2
    # calibrate's span times the whole calibration, so cmd_calibrate must call
    # cli.calibrate_sigma
    assert {s.name for s in tracer.spans} >= {"accountant.ledger_read", "accountant.compose",
                                              "accountant.calibrate"}
    for owner, attr, original in undo:
        assert inspect.getattr_static(owner, attr) is original
    assert cli.compose_client_rdp is accountant.compose_client_rdp


def test_accountant_commands_leave_numpy_unloaded(tmp_path):
    _run_python("""
        import sys
        from fedrdp import ParticipationLedger, StepParams, cli
        ledger = ParticipationLedger()
        for t in (1, 2, 5):
            ledger.record(0, t, StepParams(q=0.02, sigma=2.0, clip=1.0, batch_size=4))
        ledger.write("ledger.tsv")
        # compose, convert and calibrate never need mpmath; bound and oracle
        # run the quadrature oracle, which imports it
        for argv in (["compose", "--ledger", "ledger.tsv", "--client", "0",
                      "--alphas", "2,2.5,4", "--output", "curve.csv"],
                     ["convert", "--curve", "curve.csv"],
                     ["calibrate", "--epsilon", "16", "--q", "0.2", "--steps", "5"]):
            assert cli.main(argv) == cli.EXIT_OK, argv
        assert "mpmath" not in sys.modules
        for argv in (["bound", "--alpha", "2", "--q", "0.01", "--sigma", "2"],
                     ["oracle", "--alpha", "2", "--q", "0.01", "--sigma", "2"]):
            assert cli.main(argv) == cli.EXIT_OK, argv
        assert "mpmath" in sys.modules
        assert "numpy" not in sys.modules
        assert "fedrdp.simulate" not in sys.modules
    """, tmp_path)


def test_perfbench_tracer_wraps_the_simulator_before_it_is_imported(tmp_path):
    # a fresh process, so the tracer meets fedrdp.simulate and the cli's
    # simulator names before anything has imported them
    config = dict(rounds=2, clients=3, m_t=2, d=4, classes=2, points_per_client=10,
                  batch_size=3, clip=1.0, sigma=1.0, seed=1)
    (tmp_path / "config.json").write_text(json.dumps(config))
    _run_python(f"""
        import importlib.util, inspect, sys
        import fedrdp.cli
        assert "fedrdp.simulate" not in sys.modules
        spec = importlib.util.spec_from_file_location("tracing", {str(TRACING)!r})
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        undo = tracing.instrument(tracer, fedrdp)
        try:
            code = fedrdp.cli.main(["simulate", "--config", "config.json", "--outdir", "out"])
        finally:
            tracing.restore(undo)
        assert code == fedrdp.cli.EXIT_OK
        names = {{span.name for span in tracer.spans}}
        assert names >= {{"simulate.train", "simulate.data", "simulate.artifacts"}}, names
        for owner, attr, original in undo:
            assert inspect.getattr_static(owner, attr) is original
        assert fedrdp.cli.run_training is fedrdp.simulate.run_training
    """, tmp_path)
