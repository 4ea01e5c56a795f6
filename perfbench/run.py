"""End-to-end benchmark of the fedrdp command line.

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 8 --trace 0

Run from the root of a source checkout: the package is imported from
./src, and every operation is one call of ``fedrdp.cli.main(argv)`` (or a
short chain of them) in this process, on inputs made from --seed.  The
timed phase runs ceil(--seconds / ROUND_SECONDS) whole rounds of
operations, so every run with the same --seconds does the same work.
Every output is then checked against perfbench/oracle.py or a property
the method must have.  The last line of stdout is one JSON
object: with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
metrics of a run whose module boundaries are wrapped by perfbench/tracing.py.
Working files go to .perfbench_out/ and are removed at exit; results and
span dumps stay there.  See perfbench/README.md.
"""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracle
import tracing

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 5
DELTA = 1e-5
# The host's speed drifts by up to 2x within minutes and also changes within
# a second; the drift reaches every CPU-bound phase.  So each timed interval
# is scaled to a reference speed: a short speed probe, a fixed piece of work
# like the workload's own, runs five times before and after the interval
# and, inside an operation, every SAMPLE_EVERY seconds from a SIGALRM
# handler.  The interval's time without the probes, t, is reported as
# t * reference / (mean probe time): seconds at the speed where the probe
# takes its reference time.
SAMPLE_EVERY = 0.1
# Relative slack for values the CLI prints with 12 significant digits
# (curve files, clients.csv) and for values printed with repr.
TOL_12G = 1e-11
TOL_REPR = 1e-13


def bigint_probe():
    """Wall time of fixed interpreter and big-integer work, as in pure-Python mpmath."""
    start = time.perf_counter()
    m = (1 << 180) | 12345
    for i in range(10000):
        p = m * (m ^ i)
        shift = p.bit_length() - 180
        m = (p >> shift) | 1
    return time.perf_counter() - start


def numpy_probe():
    """Wall time of fixed small numpy calls, as in one simulated client step."""
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(-1.0, 1.0, 30).reshape(10, 3)
    for i in range(150):
        rng = np.random.default_rng(np.random.SeedSequence([7, 5, i]))
        s = x[np.sort(rng.choice(10, size=5, replace=False))] @ x.T
        e = np.exp(s - s.max(axis=1, keepdims=True))
        np.linalg.norm(e / e.sum(axis=1, keepdims=True), axis=1)
    return time.perf_counter() - start


# (probe, its time at the reference speed in seconds)
BIGINT_PROBE = (bigint_probe, 0.003)
NUMPY_PROBE = (numpy_probe, 0.006)


def timed(step, speed_probe, sample_inside=True):
    """(raw, reference-speed) seconds of step(), speed probes excluded.

    Without sample_inside only the probes around step() count; that is for
    steps that wait on a child process, where probes would run beside it.
    """
    probe, reference = speed_probe
    speeds = [probe() for _ in range(5)]
    inside = []  # (start, seconds) of the probes the timer ran

    def sample(signum, frame):
        begun = time.perf_counter()
        inside.append((begun, probe()))

    if sample_inside:
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
    try:
        start = time.perf_counter()
        step()
        end = time.perf_counter()
    finally:
        if sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    seconds = end - start - sum(t for begun, t in inside if begun < end)
    speeds += [t for _, t in inside] + [probe() for _ in range(5)]
    return seconds, seconds * reference / statistics.fmean(speeds)


def jitter(rng, value):
    """value scaled by exp(U(-0.05, 0.05)), rounded so it prints exactly."""
    return float(f"{value * math.exp(rng.uniform(-0.05, 0.05)):.6g}")


def parse_kv(text):
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


class Op:
    """One operation: a chain of CLI calls, stopped at the first non-zero exit."""

    def __init__(self, argvs, **meta):
        self.argvs = argvs
        self.meta = meta
        self.codes = []
        self.stdout = []
        self.stderr = []

    def run(self, main):
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            self.codes.append(code)
            self.stdout.append(out.getvalue())
            self.stderr.append(err.getvalue())
            if code != 0:
                break

    @property
    def exited_ok(self):
        return len(self.codes) == len(self.argvs) and not any(self.codes)


class Workload:
    """Inputs, operations and output checks of one workload."""

    def __init__(self, seed, workdir, fedrdp):
        self.seed = seed
        self.workdir = workdir
        self.fedrdp = fedrdp
        self.alphas = fedrdp.accountant.DEFAULT_ALPHAS

    # Time of one round at the reference speed (see SAMPLE_EVERY) with the
    # package as first benchmarked; ceil(--seconds / ROUND_SECONDS) rounds
    # make a run.
    ROUND_SECONDS: float
    SPEED_PROBE = BIGINT_PROBE

    def rng(self, *tags):
        return random.Random(":".join(str(t) for t in (self.name, self.seed) + tags))

    def setup(self):
        """Build the inputs every round shares (files under workdir)."""

    def round(self, index):
        raise NotImplementedError

    def check(self, op):
        """(errors, looseness ratios) of one operation that exited 0."""
        raise NotImplementedError

    def finish(self, ops):
        """Errors found by checks that span the whole run."""
        return []


class Calibrate(Workload):
    """fedrdp calibrate on distinct (epsilon, q, steps) targets.

    Jitter makes every sigma the bisection visits after its first few new to
    the process.
    """

    name = "calibrate"
    # (epsilon, q, steps) with alpha* near 16, 6 and 2 and calibrated sigma
    # near 2.7, 2.2 and 1.05.  Each sigma stays clear of the sigmas at which
    # one more order of the grid becomes available (1.23, 1.64, 3.29), so
    # jitter does not switch the cost of an operation.  The first operation
    # of a process also pays the cold moment cache at the first sigmas of the
    # bisection, which every target shares, and so is the slowest.
    STRATA = ((1.2, 0.01, 600), (4.0, 0.05, 100), (16.0, 0.2, 5))
    ROUND_SECONDS = 30.0

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for epsilon, q, steps in self.STRATA:
            epsilon, q = jitter(rng, epsilon), jitter(rng, q)
            steps = max(1, round(jitter(rng, steps)))
            argv = ["calibrate", "--epsilon", repr(epsilon), "--delta", repr(DELTA),
                    "--q", repr(q), "--steps", str(steps)]
            ops.append(Op([argv], epsilon=epsilon, q=q, steps=steps))
        return ops

    def check(self, op):
        m = op.meta
        kv = parse_kv(op.stdout[0])
        sigma, achieved = float(kv["sigma"]), float(kv["achieved_epsilon"])
        errors = []
        if not achieved <= m["epsilon"]:
            errors.append(f"achieved_epsilon {achieved!r} > target {m['epsilon']!r}")
        floor = oracle.epsilon_lower_bound(
            self.alphas, lambda a: m["steps"] * oracle.lower_divergence(a, m["q"], sigma), DELTA)
        if floor > m["epsilon"] * (1 + TOL_REPR):
            errors.append(f"independent lower bound {floor!r} on epsilon at sigma={sigma!r} "
                          f"exceeds the target {m['epsilon']!r}")
        # sigma is minimal: the program's own curve at slightly less noise misses the target
        acc = self.fedrdp.accountant
        below = sigma * (1 - 1e-3)
        ledger = acc.ParticipationLedger()
        step = acc.StepParams(q=m["q"], sigma=below, clip=1.0, batch_size=1)
        for t in range(1, m["steps"] + 1):
            ledger.record(0, t, step)
        eps_below = acc.rdp_to_dp(acc.compose_client_rdp(ledger, 0), DELTA)[0].epsilon
        if not eps_below > m["epsilon"]:
            errors.append(f"sigma not minimal: epsilon at {below!r} is {eps_below!r}")
        return errors, [achieved / floor]


class Simulate(Workload):
    """fedrdp simulate at a fixed sigma, once per simulation seed.

    The config is sized so that the training loop dominates; with one
    (q, sigma) the bound layer sees ~20 cold evaluations per process.
    """

    name = "simulate"
    CONFIG = {"rounds": 80, "clients": 500, "m_t": 100, "d": 10, "classes": 3,
              "points_per_client": 100, "batch_size": 10, "clip": 1.0, "sigma": 1.2,
              "delta": DELTA, "seed": 0}
    ARTIFACTS = ("model.txt", "rounds.csv", "clients.csv", "ledger.tsv")
    OPS_PER_ROUND = 4
    ROUND_SECONDS = 3.0
    SPEED_PROBE = NUMPY_PROBE  # training is small numpy calls, not mpmath

    def setup(self):
        self.config_path = os.path.join(self.workdir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.CONFIG, fh)
        self.count = 0
        self.q = self.CONFIG["batch_size"] / self.CONFIG["points_per_client"]
        self.floor_by_alpha = {}

    def argv(self, outdir, sim_seed):
        return ["simulate", "--config", self.config_path, "--outdir", outdir,
                "--seed", str(sim_seed)]

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for _ in range(self.OPS_PER_ROUND):
            outdir = os.path.join(self.workdir, f"op{self.count}")
            self.count += 1
            sim_seed = rng.randrange(1, 2**31)
            ops.append(Op([self.argv(outdir, sim_seed)], outdir=outdir, sim_seed=sim_seed))
        return ops

    def epsilon_floor(self, steps):
        sigma = self.CONFIG["sigma"]
        if not self.floor_by_alpha:
            self.floor_by_alpha = {a: oracle.lower_divergence(a, self.q, sigma) for a in self.alphas}
        return oracle.epsilon_lower_bound(self.alphas, lambda a: steps * self.floor_by_alpha[a], DELTA)

    def check(self, op):
        outdir = op.meta["outdir"]
        errors = []
        kv = parse_kv(op.stdout[0])
        rows = read_csv(os.path.join(outdir, "clients.csv"))
        clients = {int(r["client_id"]): (int(r["participations"]), float(r["epsilon"])) for r in rows}
        rounds = {}
        for r in read_csv(os.path.join(outdir, "rounds.csv")):
            cid = int(r["client_id"])
            rounds[cid] = rounds.get(cid, 0) + 1
        ledger = {}
        step_fields = ("%r" % self.q, "%r" % self.CONFIG["sigma"])
        with open(os.path.join(outdir, "ledger.tsv"), encoding="ascii") as fh:
            for line in fh:
                fields = line.rstrip("\n").split("\t")
                ledger[int(fields[0])] = ledger.get(int(fields[0]), 0) + 1
                if tuple(fields[2:4]) != step_fields:
                    errors.append(f"ledger line with (q, sigma) {fields[2:4]}, expected {step_fields}")
                    break
        counts = {cid: n for cid, (n, _) in clients.items()}
        if not counts == rounds == ledger:
            errors.append("participations disagree across clients.csv, rounds.csv and ledger.tsv")
        ratios = []
        for cid, (n, eps) in clients.items():
            floor = self.epsilon_floor(n)
            if eps < floor * (1 - TOL_12G):
                errors.append(f"client {cid}: epsilon {eps!r} below the lower bound {floor!r}")
            ratios.append(eps / floor)
        by_count = sorted(clients.values())
        if any(later[1] < earlier[1] for earlier, later in zip(by_count, by_count[1:])):
            errors.append("epsilon decreases with participation count")
        errors += self.check_accuracy(op, kv)
        return errors, ratios

    def check_accuracy(self, op, kv):
        """Recompute the printed accuracy from model.txt on the training data."""
        import numpy as np

        config = self.fedrdp.simulate.SimConfig.from_dict(dict(self.CONFIG, seed=op.meta["sim_seed"]))
        data = self.fedrdp.simulate.generate_client_data(config, config.sigma)
        X = np.concatenate([c.features for c in data])
        y = np.concatenate([c.labels for c in data])
        with open(os.path.join(op.meta["outdir"], "model.txt"), encoding="ascii") as fh:
            W = np.array([float(line) for line in fh]).reshape(config.classes, config.d)
        accuracy = float(np.mean(np.argmax(X @ W.T, axis=1) == y))
        errors = []
        if abs(accuracy - float(kv["accuracy"])) > 1e-12:
            errors.append(f"printed accuracy {kv['accuracy']} but model.txt scores {accuracy!r}")
        if accuracy < 0.9:  # chance is 1/3; the classes are separable by a wide margin
            errors.append(f"accuracy {accuracy!r} is not well above chance")
        return errors

    def finish(self, ops):
        """A second run of the first operation must write the same bytes."""
        first = ops[0]
        again = os.path.join(self.workdir, "rerun")
        rerun = Op([self.argv(again, first.meta["sim_seed"])])
        rerun.run(self.fedrdp.cli.main)
        if not rerun.exited_ok:
            return [f"rerun exited {rerun.codes}"]
        return [f"rerun wrote different {name}" for name in self.ARTIFACTS
                if read_bytes(os.path.join(again, name)) != read_bytes(os.path.join(first.meta["outdir"], name))]


class Compose(Workload):
    """fedrdp compose then fedrdp convert, per client, on a 10^5-line ledger.

    Each quarter of the rounds uses its own (q, sigma); the clients share
    those four pairs, so after the first operation composition is warm.
    """

    name = "compose"
    PAIRS = ((0.004, 1.0), (0.008, 1.3), (0.016, 1.6), (0.03, 2.0))
    CLIENTS, ROUNDS, PARTICIPATIONS = 250, 4000, 400
    OPS_PER_ROUND = 4
    ROUND_SECONDS = 2.0

    def setup(self):
        rng = self.rng("ledger")
        self.pairs = [(jitter(rng, q), jitter(rng, sigma)) for q, sigma in self.PAIRS]
        self.counts = []  # per client, participations under each pair
        lines = []
        for cid in range(self.CLIENTS):
            counts = [0] * len(self.pairs)
            for t in sorted(rng.sample(range(1, self.ROUNDS + 1), self.PARTICIPATIONS)):
                g = (t - 1) * len(self.pairs) // self.ROUNDS
                counts[g] += 1
                q, sigma = self.pairs[g]
                lines.append(f"{cid}\t{t}\t{q!r}\t{sigma!r}\t1.0\t10\n")
            self.counts.append(counts)
        self.ledger_path = os.path.join(self.workdir, "ledger.tsv")
        with open(self.ledger_path, "w", encoding="ascii") as fh:
            fh.writelines(lines)
        self.count = 0

    def round(self, index):
        ops = []
        for cid in self.rng(index).sample(range(self.CLIENTS), self.OPS_PER_ROUND):
            curve = os.path.join(self.workdir, f"curve{self.count}.csv")
            self.count += 1
            ops.append(Op([["compose", "--ledger", self.ledger_path, "--client", str(cid),
                            "--output", curve],
                           ["convert", "--curve", curve, "--delta", repr(DELTA)]],
                          client=cid, curve=curve))
        return ops

    def client_floor(self, cid, alpha, divergence):
        return sum(n * divergence(alpha, q, sigma)
                   for n, (q, sigma) in zip(self.counts[cid], self.pairs))

    def check(self, op):
        cid = op.meta["client"]
        rows = read_csv(op.meta["curve"])
        curve = {float(r["alpha"]): float(r["rdp"]) for r in rows}
        errors = []
        if tuple(curve) != self.alphas:
            errors.append(f"curve orders {tuple(curve)} differ from the default grid")
        for alpha, value in curve.items():
            if alpha == int(alpha):
                exact = self.client_floor(cid, alpha, oracle.divergence)
                if value < exact * (1 - TOL_12G):
                    errors.append(f"client {cid}: curve at alpha={alpha} is {value!r} "
                                  f"< closed-form sum {exact!r}")
        eps = float(parse_kv(op.stdout[1])["epsilon"])
        floor = oracle.epsilon_lower_bound(
            self.alphas, lambda a: self.client_floor(cid, a, oracle.lower_divergence), DELTA)
        if eps < floor * (1 - TOL_12G):
            errors.append(f"client {cid}: epsilon {eps!r} below the lower bound {floor!r}")
        return errors, [eps / floor]


class Audit(Workload):
    """fedrdp bound (series bound against the quadrature oracle) on a grid.

    Integer and fractional orders, small sigma and large q.  The oracle
    costs ~0.2 s below order 4 and ~1.5 s from there on; with two cheap
    points against four dear ones the median stays inside the dear cluster.
    """

    name = "audit"
    GRID = ((1.25, 0.01, 0.5), (2.5, 0.5, 1.0), (4.0, 0.5, 0.6), (6.5, 0.4, 0.9),
            (12.0, 0.6, 1.2), (48.0, 0.05, 3.0))
    ROUND_SECONDS = 6.4

    def round(self, index):
        rng = self.rng(index)
        ops = []
        for alpha, q, sigma in self.GRID:
            q, sigma = jitter(rng, q), jitter(rng, sigma)
            argv = ["bound", "--alpha", repr(alpha), "--q", repr(q), "--sigma", repr(sigma)]
            ops.append(Op([argv], alpha=alpha, q=q, sigma=sigma))
        return ops

    def check(self, op):
        alpha, q, sigma = op.meta["alpha"], op.meta["q"], op.meta["sigma"]
        kv = parse_kv(op.stdout[0])
        bound, oracle_value = float(kv["bound"]), float(kv["oracle"])
        remainder = float(kv["remainder"])
        errors = []
        if alpha == int(alpha):
            exact = oracle.divergence(int(alpha), q, sigma)
            if abs(oracle_value - exact) > 1e-9:
                errors.append(f"oracle {oracle_value!r} != closed form {exact!r}")
            if bound < exact - TOL_REPR * max(1.0, exact):
                errors.append(f"bound {bound!r} < closed form {exact!r}")
            moment = oracle.moment(int(alpha), q, sigma)
            with oracle.mp.workdps(40):
                excess = oracle.mp.exp((alpha - 1) * oracle.mpf(bound)) - moment
                slack = moment * 8 * 2.0**-52 * (1 + (alpha - 1) * abs(bound))
                if excess > remainder + slack:
                    errors.append(f"exp((alpha-1)*bound) exceeds the moment by {float(excess):.6g}, "
                                  f"more than the printed remainder {remainder!r}")
        else:
            low = oracle.lower_divergence(alpha, q, sigma)
            high = oracle.upper_divergence(alpha, q, sigma)
            if not low - 1e-9 <= oracle_value <= high + 1e-9:
                errors.append(f"oracle {oracle_value!r} outside [{low!r}, {high!r}]")
            if bound < low - TOL_REPR * max(1.0, low):
                errors.append(f"bound {bound!r} below the closed form {low!r} at floor(alpha)")
        return errors, [bound / oracle_value]


WORKLOADS = {w.name: w for w in (Calibrate, Simulate, Compose, Audit)}


def read_csv(path):
    with open(path, encoding="ascii") as fh:
        header, *lines = fh.read().splitlines()
    keys = header.split(",")
    return [dict(zip(keys, line.split(","))) for line in lines]


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def setup_seconds(args):
    """(raw, reference-speed) times from starting a fresh process to its inputs being ready."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]

    times = []
    for _ in range(SETUP_REPEATS):
        child = ready = None

        def set_up():
            nonlocal child, ready
            child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            ready = child.stdout.readline()

        try:
            times.append(timed(set_up, BIGINT_PROBE, sample_inside=False))
        finally:
            if child is not None:
                child.communicate(timeout=120)
        if ready != "ready\n" or child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode} before its inputs were ready")
    return [list(column) for column in zip(*times)]


def run(args, fedrdp, workload):
    trace = tracing.Tracer() if args.trace else None
    main = fedrdp.cli.main
    if trace is not None:
        undo = tracing.instrument(trace, fedrdp)
        main = trace.span("cli", main)
    rounds = max(1, math.ceil(args.seconds / workload.ROUND_SECONDS))
    ops = [op for index in range(rounds) for op in workload.round(index)]
    workload.SPEED_PROBE[0]()  # the probe's own first-call costs stay out of the timing
    try:
        raw, scaled = zip(*[timed(functools.partial(op.run, main), workload.SPEED_PROBE)
                            for op in ops])
    finally:
        if trace is not None:
            tracing.restore(undo)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks_started = time.perf_counter()

    failed, ratios, correct = 0, [], True
    for number, op in enumerate(ops):
        if not op.exited_ok:
            errors = [f"exit codes {op.codes}: {''.join(op.stderr).strip()[:300]}"]
        else:
            errors, op_ratios = workload.check(op)
            ratios += op_ratios
        if errors:
            failed += 1
            print(f"op {number} {op.argvs}: " + "; ".join(errors[:3]), file=sys.stderr)
    for problem in workload.finish(ops) + oracle.self_test():
        correct = False
        print(f"run check failed: {problem}", file=sys.stderr)

    print(f"raw wall time: median op {statistics.median(raw):.4g} s, {len(ops)} ops in "
          f"{sum(raw):.4g} s, checks {time.perf_counter() - checks_started:.3g} s; "
          f"reference-speed factor {sum(scaled) / sum(raw):.4g}", file=sys.stderr)
    print("ops at reference speed (s): " + " ".join(f"{t:.3g}" for t in scaled), file=sys.stderr)
    if trace is not None:
        values = tracing.layer_metrics(trace.spans, len(ops), scaled, sum(scaled) / sum(raw))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in tracing.LAYER_METRICS}
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump([span.as_dict() for span in trace.spans], fh)
    else:
        setup_raw, setup_scaled = setup_seconds(args)
        print("set-up processes, raw (s): " + " ".join(f"{t:.3g}" for t in setup_raw), file=sys.stderr)
        metrics = {
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "op_s": {"value": statistics.median(scaled), "unit": "s"},
            "ops_per_s": {"value": len(ops) / sum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "looseness_gmean": {"value": statistics.geometric_mean(ratios) if ratios else math.inf,
                                "unit": "1"},
        }
    return {"correct": correct and failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "fedrdp", "cli.py")):
        print(f"perfbench: no fedrdp sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import fedrdp.cli

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, fedrdp)
        workload.setup()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        result = run(args, fedrdp, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        fh.write(line + "\n")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
