#!/usr/bin/env python3
"""Check that this tree's fedrdp gives the same outputs as revision REV.

    python3 scripts/same_outputs.py --against HEAD

REV is exported with `git archive` into a temporary directory, so the
repository's own checkout and git state are left as they are.  A fixed
corpus of `fedrdp` commands (CORPUS below) runs on both trees, each command
in a fresh `python -m fedrdp.cli` process whose PYTHONPATH is that tree's
src/ only, in a work directory of its own per tree that starts with the
same input files (INPUTS).  For every command the exit code, stdout and
stderr are compared, and after the corpus every file in the two work
directories is compared byte for byte.  Prints one line per command and
per differing file, and exits 1 on any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# input files, written into each tree's work directory before the corpus runs
INPUTS = {
    # perfbench's simulate shape
    "perfbench.json": {"rounds": 80, "clients": 500, "m_t": 100, "d": 10, "classes": 3,
                       "points_per_client": 100, "batch_size": 10, "clip": 1.0, "sigma": 1.2,
                       "delta": 1e-5, "seed": 0},
    # the acceptance suite's criterion 6: 200 rounds of 10 of 20 clients, dropout 0.3
    "criterion6.json": {"rounds": 200, "clients": 20, "m_t": 10, "d": 5, "classes": 2,
                        "points_per_client": 100, "batch_size": 10, "clip": 1.0,
                        "sigma": 3.0, "seed": 33, "dropout_prob": 0.3},
    # sigma calibrated to a target epsilon, with dropout
    "target.json": {"rounds": 40, "clients": 30, "m_t": 12, "d": 6, "classes": 3,
                    "points_per_client": 60, "batch_size": 6, "clip": 1.0,
                    "target_epsilon": 3.0, "seed": 5, "dropout_prob": 0.3},
    # 9 and 50 classes: each softmax sum runs over 8 or more entries
    "classes9.json": {"rounds": 12, "clients": 40, "m_t": 33, "d": 17, "classes": 9,
                      "points_per_client": 50, "batch_size": 13, "clip": 5.0, "sigma": 0.5,
                      "dropout_prob": 0.2, "seed": 7},
    "classes50.json": {"rounds": 3, "clients": 12, "m_t": 10, "d": 400, "classes": 50,
                       "points_per_client": 20, "batch_size": 5, "clip": 1.0, "sigma": 1.0,
                       "seed": 6},
    # a non-private run: every clients.csv epsilon is inf
    "nonprivate.json": {"rounds": 10, "clients": 8, "m_t": 5, "d": 4, "classes": 2,
                        "points_per_client": 40, "batch_size": 8, "clip": 1.0, "sigma": 0.0,
                        "dropout_prob": 0.2, "seed": 3},
    # no client steps: the ledger is empty and every round record is empty
    "no-steps.json": {"rounds": 5, "clients": 4, "m_t": 0, "d": 3, "classes": 2,
                      "points_per_client": 20, "batch_size": 4, "clip": 1.0, "sigma": 1.0,
                      "seed": 9},
    # heavy dropout: 11 of the 30 rounds select nobody
    "dropout.json": {"rounds": 30, "clients": 6, "m_t": 2, "d": 3, "classes": 2,
                     "points_per_client": 20, "batch_size": 4, "clip": 1.0, "sigma": 1.0,
                     "seed": 8, "dropout_prob": 0.8},
    "trace.json": {"rounds": 1, "clients": 1, "d": 2, "classes": 2,
                   "points_per_client": 3000, "batch_size": 128, "clip": 1.0, "sigma": 1.0,
                   "seed": 4},
    # config numbers of the wrong kind and out of range
    "rounds-2.5.json": {"rounds": 2.5, "clients": 4, "d": 3, "classes": 2,
                        "points_per_client": 20, "batch_size": 4, "clip": 1.0, "sigma": 1.0},
    "m_t-9.json": {"rounds": 5, "clients": 4, "m_t": 9, "d": 3, "classes": 2,
                   "points_per_client": 20, "batch_size": 4, "clip": 1.0, "sigma": 1.0},
    "delta-5.json": {"rounds": 5, "clients": 4, "d": 3, "classes": 2, "points_per_client": 20,
                     "batch_size": 4, "clip": 1.0, "sigma": 1.0, "delta": 5},
    # a config that is not JSON, and one that is not UTF-8
    "malformed.json": "{not json",
    "not-utf8.json": b'{"seed": 1, \xff}',
    # every order +inf: epsilon is +inf at the smallest order; and +inf only at the smallest
    "curve-all-inf.csv": "alpha,rdp\n2,inf\n4,inf\n",
    "curve-first-inf.csv": "alpha,rdp\n1.5,inf\n2,0.5\n4,0.25\n",
    # three clients, with steps at two (q, sigma) pairs
    "ledger.tsv": ("0\t1\t0.05\t1.5\t1.0\t10\n0\t2\t0.01\t2.0\t1.0\t10\n"
                   "0\t3\t0.05\t1.5\t1.0\t10\n1\t2\t0.01\t2.0\t1.0\t10\n"
                   "1\t4\t0.01\t2.0\t1.0\t10\n2\t1\t0.05\t1.5\t1.0\t10\n"),
    # malformed ledgers, each bad in client 0's line 2
    "ledger-bad-float.tsv": "0\t1\t0.01\t2.0\t1.0\t10\n0\t2\tabc\t2.0\t1.0\t10\n",
    "ledger-bad-t.tsv": "0\t1\t0.01\t2.0\t1.0\t10\n0\tx\t0.01\t2.0\t1.0\t10\n",
    "ledger-q-2.tsv": "0\t1\t0.01\t2.0\t1.0\t10\n0\t2\t2.0\t2.0\t1.0\t10\n",
    "ledger-out-of-order.tsv": "0\t2\t0.01\t2.0\t1.0\t10\n0\t1\t0.01\t2.0\t1.0\t10\n",
    "ledger-short-line.tsv": "0\t1\t0.01\t2.0\t1.0\t10\n0\t2\t0.01\t2.0\n",
    "ledger-clip-inf.tsv": "0\t1\t0.01\t2.0\t1.0\t10\n0\t2\t0.01\t2.0\tinf\t10\n",
}

# (name, fedrdp arguments), run in this order
CORPUS = (
    ("simulate-perfbench-seed1", ["simulate", "--config", "perfbench.json", "--outdir",
                                  "perfbench1", "--seed", "1"]),
    ("simulate-perfbench-seed2", ["simulate", "--config", "perfbench.json", "--outdir",
                                  "perfbench2", "--seed", "2"]),
    ("simulate-criterion6", ["simulate", "--config", "criterion6.json", "--outdir", "criterion6"]),
    ("simulate-target-epsilon", ["simulate", "--config", "target.json", "--outdir", "target"]),
    ("simulate-classes9", ["simulate", "--config", "classes9.json", "--outdir", "classes9"]),
    ("simulate-classes50", ["simulate", "--config", "classes50.json", "--outdir", "classes50"]),
    ("simulate-nonprivate", ["simulate", "--config", "nonprivate.json", "--outdir", "nonprivate"]),
    ("simulate-no-steps", ["simulate", "--config", "no-steps.json", "--outdir", "no-steps"]),
    ("simulate-dropout-0.8", ["simulate", "--config", "dropout.json", "--outdir", "dropout"]),
    ("trace-fixed", ["trace", "--config", "trace.json", "--sampler", "fixed", "--rounds", "50"]),
    ("trace-poisson", ["trace", "--config", "trace.json", "--sampler", "poisson",
                       "--rounds", "50", "--output", "poisson.csv"]),
    ("calibrate-readme", ["calibrate", "--epsilon", "4", "--delta", "1e-5", "--q", "0.05",
                          "--steps", "100"]),
    ("calibrate-delta-1e-3", ["calibrate", "--epsilon", "4", "--delta", "1e-3", "--q", "0.05",
                              "--steps", "100"]),
    # fractional orders decide the walk: alpha* = 2 with 1.75 and 2.5 next to it, and alpha* = 1.75
    ("calibrate-alpha-star-2", ["calibrate", "--epsilon", "16", "--delta", "1e-5", "--q", "0.2",
                                "--steps", "5"]),
    ("calibrate-alpha-star-2-jittered", ["calibrate", "--epsilon", "16.3", "--delta", "1e-5",
                                         "--q", "0.203", "--steps", "5"]),
    ("calibrate-alpha-star-1.75", ["calibrate", "--epsilon", "30", "--delta", "1e-5", "--q", "0.2",
                                   "--steps", "5"]),
    # the README target on the tests' other order grids, and at two more deltas
    ("calibrate-grid-48-64", ["calibrate", "--epsilon", "4", "--delta", "1e-5", "--q", "0.05",
                              "--steps", "100", "--alphas", "48,64"]),
    ("calibrate-grid-4", ["calibrate", "--epsilon", "4", "--delta", "1e-5", "--q", "0.05",
                          "--steps", "100", "--alphas", "4"]),
    # on the grid (2.5,) the README target is below the conversion floor 7.68
    ("calibrate-grid-2.5", ["calibrate", "--epsilon", "16", "--delta", "1e-5", "--q", "0.05",
                            "--steps", "100", "--alphas", "2.5"]),
    ("calibrate-grid-floors-off-grid", ["calibrate", "--epsilon", "4", "--delta", "1e-5",
                                        "--q", "0.05", "--steps", "100",
                                        "--alphas", "1.5,3.5,7.25,300.5,512"]),
    ("calibrate-delta-1e-8", ["calibrate", "--epsilon", "4", "--delta", "1e-8", "--q", "0.05",
                              "--steps", "100"]),
    ("calibrate-delta-0.5", ["calibrate", "--epsilon", "4", "--delta", "0.5", "--q", "0.05",
                             "--steps", "100"]),
    # the lattice's two ends: targets met at the smallest sigma (pinned to 0.3, at the
    # first probe or after walking down from 0.6), and one the largest sigma still
    # misses (exit 2, the epsilon at the last sigma probed)
    ("calibrate-pinned-low", ["calibrate", "--epsilon", "10000", "--q", "0.1", "--steps", "1"]),
    ("calibrate-pinned-after-halving", ["calibrate", "--epsilon", "100", "--q", "0.9",
                                        "--steps", "1"]),
    ("numerical-sigma-max", ["calibrate", "--epsilon", "0.02", "--q", "0.5",
                             "--steps", "1000000000"]),
    ("compose-client0", ["compose", "--ledger", "ledger.tsv", "--client", "0",
                         "--output", "curve0.csv"]),
    ("compose-client1-jsonl", ["compose", "--ledger", "ledger.tsv", "--client", "1",
                               "--format", "jsonl", "--output", "curve1.jsonl"]),
    ("convert-client0", ["convert", "--curve", "curve0.csv", "--delta", "1e-5"]),
    ("convert-client1", ["convert", "--curve", "curve1.jsonl", "--delta", "1e-3"]),
    ("compose-client0-fractional-grid", ["compose", "--ledger", "ledger.tsv", "--client", "0",
                                         "--alphas", "1.5,2.5,3.5,7.25",
                                         "--output", "curve0-fractional.csv"]),
    ("convert-client0-fractional-grid", ["convert", "--curve", "curve0-fractional.csv",
                                         "--delta", "1e-5"]),
    # exit 1: a malformed ledger line
    *((f"compose-{bad}", ["compose", "--ledger", f"ledger-{bad}.tsv", "--client", "0"])
      for bad in ("bad-float", "bad-t", "q-2", "out-of-order", "short-line", "clip-inf")),
    ("convert-all-inf", ["convert", "--curve", "curve-all-inf.csv"]),
    ("convert-first-order-inf", ["convert", "--curve", "curve-first-inf.csv"]),
    ("bound-integer", ["bound", "--alpha", "8", "--q", "0.01", "--sigma", "2"]),
    ("bound-fractional", ["bound", "--alpha", "2.5", "--q", "0.05", "--sigma", "1.5"]),
    ("oracle", ["oracle", "--alpha", "2", "--q", "0.01", "--sigma", "2"]),
    ("usage-bad-float", ["calibrate", "--epsilon", "x", "--q", "0.05", "--steps", "100"]),
    ("usage-bad-sampler", ["trace", "--config", "trace.json", "--sampler", "uniform"]),
    ("usage-bad-format", ["compose", "--ledger", "ledger.tsv", "--client", "0",
                          "--format", "xml"]),
    # the top-level parser's own paths, and a leftover argument after a command
    ("usage-no-command", []),
    ("usage-unknown-command", ["frobnicate", "--epsilon", "4"]),
    ("usage-extra-argument", ["calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "100",
                              "extra"]),
    ("usage-extra-option", ["calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "100",
                            "--bogus", "1"]),
    # lines the command line leaves to argparse: an abbreviated flag, --flag=value, a
    # repeated flag (the last counts), and negative numbers (a client with no steps; q < 0)
    ("calibrate-abbreviated-flag", ["calibrate", "--eps", "4", "--q", "0.05", "--steps", "100"]),
    ("calibrate-flag-equals-value", ["calibrate", "--epsilon=4", "--q=0.05", "--steps=100"]),
    ("calibrate-repeated-flag", ["calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "50",
                                 "--steps", "100"]),
    ("compose-negative-client", ["compose", "--ledger", "ledger.tsv", "--client", "-1"]),
    ("bound-negative-q", ["bound", "--alpha", "2", "--q", "-0.1", "--sigma", "1"]),
    ("help", ["--help"]),
    ("help-calibrate", ["calibrate", "--help"]),
    # exit 1: a config number of the wrong kind, one out of range, an empty order grid
    ("simulate-rounds-2.5", ["simulate", "--config", "rounds-2.5.json", "--outdir", "rounds-2.5"]),
    ("trace-m_t-past-clients", ["trace", "--config", "m_t-9.json"]),
    ("trace-delta-5", ["trace", "--config", "delta-5.json"]),
    ("calibrate-empty-grid", ["calibrate", "--epsilon", "4", "--q", "0.05", "--steps", "100",
                              "--alphas", ","]),
    # exit 2: no sigma meets an epsilon below the grid's conversion floor
    ("numerical-unreachable-target", ["calibrate", "--epsilon", "0.001", "--q", "0.05",
                                      "--steps", "100"]),
    # exit 3: the curve file does not exist; the config is not JSON, or not UTF-8
    ("io-missing-curve", ["convert", "--curve", "missing.csv"]),
    ("io-malformed-config", ["simulate", "--config", "malformed.json", "--outdir", "malformed"]),
    ("io-config-not-utf8", ["trace", "--config", "not-utf8.json"]),
)


def run_corpus(tree: pathlib.Path, workdir: pathlib.Path, corpus=CORPUS, inputs=INPUTS) -> dict:
    """{name: (exit code, stdout, stderr)} of each command, and {"files": {path: bytes}}."""
    workdir.mkdir(parents=True, exist_ok=True)
    for name, content in inputs.items():
        if isinstance(content, dict):
            content = json.dumps(content)
        if isinstance(content, str):
            content = content.encode("ascii")
        (workdir / name).write_bytes(content)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, argv in corpus:
        done = subprocess.run([sys.executable, "-m", "fedrdp.cli", *argv], cwd=workdir,
                              env=env, capture_output=True)
        results[name] = (done.returncode, done.stdout, done.stderr)
    results["files"] = {str(p.relative_to(workdir)): p.read_bytes()
                        for p in sorted(workdir.rglob("*")) if p.is_file()}
    return results


def differences(a: dict, b: dict) -> list[str]:
    """One line per command or file whose outputs differ between two corpus runs."""
    lines = []
    for name in [n for n in a if n != "files"]:
        for what, x, y in zip(("exit code", "stdout", "stderr"), a[name], b.get(name, (None,) * 3)):
            if x != y:
                lines.append(f"{name}: {what} differs")
    for path in sorted(set(a["files"]) | set(b["files"])):
        if a["files"].get(path) != b["files"].get(path):
            lines.append(f"file {path} differs")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="the revision to compare this tree with, e.g. HEAD")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = pathlib.Path(tmp)
        other = tmp / "tree"
        other.mkdir()
        archive = subprocess.run(["git", "archive", args.against], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(other)], input=archive, check=True)
        theirs = run_corpus(other, tmp / "against")
        ours = run_corpus(ROOT, tmp / "tree-outputs")
    found = differences(theirs, ours)
    for name, _ in CORPUS:
        code = ours[name][0]
        same = not any(line.startswith(f"{name}:") for line in found)
        print(f"{name}: exit {code}, {'same' if same else 'DIFFERENT'}")
    for line in found:
        print(line)
    print(f"{len(CORPUS)} commands, {len(ours['files'])} files: "
          + (f"{len(found)} differences against {args.against}" if found
             else f"no difference against {args.against}"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
