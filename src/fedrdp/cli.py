"""Command-line front end for the accountant and the simulator.

Subcommands: bound, oracle, compose, convert, calibrate, simulate, trace.
The five accountant commands load neither the simulator nor numpy; only
simulate and trace import them, on first use.  compose, convert and calibrate
do not load mpmath either: only the quadrature oracle of bound and oracle
imports it.
Every command is a thin adapter over the library; numbers printed as
key=value lines carry full precision (repr), and curve CSV cells carry 17
significant digits, which round-trip every double, so converting a curve
file gives the library's epsilon exactly.  Exit codes: 0 success, 1 usage
or domain error, 2 numerical failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import lru_cache

from .accountant import (
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    CalibrationError,
    ParticipationLedger,
    PrivacyBudget,
    RdpCurve,
    _ACCEPTED,
    calibrate_sigma,
    compose_client_rdp,
    rdp_to_dp,
    write_atomic,
)
from .divergence import (
    MechanismParams,
    QuadratureError,
    _number,
    renyi_divergence_quadrature,
    renyi_step_bound,
)

# The simulator, and numpy with it, is imported when simulate or trace first
# runs.  Its names resolve as attributes of this module before that, and the
# commands call them as module globals, so a name set from outside runs.
_SIMULATOR_NAMES = ("SimConfig", "batch_size_trace", "evaluate_accuracy",
                    "generate_client_data", "run_training", "write_artifacts")


def _load_simulator() -> None:
    from . import simulate

    for name in _SIMULATOR_NAMES:
        globals().setdefault(name, getattr(simulate, name))


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        _load_simulator()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Dominance slack for the bound self-test (matches the documented validity
# tolerance of the bound/oracle comparison).
DOMINANCE_TOL = 1e-9


def _parse_alphas(text: str) -> tuple[float, ...]:
    try:
        alphas = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"could not parse order list {text!r}")
    if not alphas:
        raise ValueError("order list is empty")
    return alphas


def _print_kv(**kv):
    for key, value in kv.items():
        if isinstance(value, float):
            print(f"{key}={value!r}")
        else:
            print(f"{key}={value}")


def cmd_bound(args) -> int:
    result = renyi_step_bound(args.alpha, MechanismParams(q=args.q, sigma=args.sigma))
    oracle = renyi_divergence_quadrature(args.alpha, args.q, args.sigma)
    _print_kv(
        alpha=args.alpha,
        q=args.q,
        sigma=args.sigma,
        m=result.m,
        path=result.path,
        bound=result.bound,
        leading_sum=result.leading_sum,
        remainder=result.remainder,
        oracle=oracle,
        gap=result.bound - oracle,
    )
    if result.bound < oracle - DOMINANCE_TOL:
        print(
            f"dominance violation: bound {result.bound!r} < oracle {oracle!r}",
            file=sys.stderr,
        )
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_oracle(args) -> int:
    value = renyi_divergence_quadrature(args.alpha, args.q, args.sigma)
    _print_kv(alpha=args.alpha, q=args.q, sigma=args.sigma, divergence=value)
    return EXIT_OK


def _curve_text(curve: RdpCurve, fmt: str) -> str:
    if fmt == "csv":
        rows = [f"{alpha:.17g},{value:.17g}" for alpha, value in curve.items()]
        return "alpha,rdp\n" + "".join(row + "\n" for row in rows)
    return "".join(json.dumps({"alpha": a, "rdp": v}) + "\n" for a, v in curve.items())


def _emit(text: str, output) -> None:
    """Write text to the file output atomically, or to stdout if output is None.

    A curve file cut short mid-number would read back as a smaller value and
    understate epsilon, so output files are never left partly written.
    """
    if output:
        write_atomic(output, text)
    else:
        sys.stdout.write(text)


def cmd_compose(args) -> int:
    # only this client's ledger lines are parsed (see ParticipationLedger.from_text)
    ledger = ParticipationLedger.read(args.ledger, client_id=args.client)
    curve = compose_client_rdp(ledger, args.client, _parse_alphas(args.alphas))
    _emit(_curve_text(curve, args.format), args.output)
    return EXIT_OK


def _read_curve(path) -> RdpCurve:
    """Read a curve file as `_curve_text` writes it; a bad row names its line.

    A jsonl row's alpha and rdp must be JSON numbers: `_curve_text` writes
    no other, and a true or a string is not read as one.
    """
    alphas, values = [], []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line == "alpha,rdp":
                continue
            try:
                if line.startswith("{"):
                    row = json.loads(line)
                    alpha, value = (_number(row[key], float, f"{key} must be a number")
                                    for key in ("alpha", "rdp"))
                else:
                    alpha, value = line.split(",")
                alphas.append(float(alpha))
                values.append(float(value))
            except (ValueError, TypeError, KeyError):
                raise ValueError(f"curve line {lineno}: no alpha and rdp in {line!r}") from None
    return RdpCurve(tuple(alphas), tuple(values))


def cmd_convert(args) -> int:
    curve = _read_curve(args.curve)
    budget, alpha_star = rdp_to_dp(curve, args.delta)
    _print_kv(epsilon=budget.epsilon, delta=budget.delta, alpha_star=alpha_star)
    return EXIT_OK


def cmd_calibrate(args) -> int:
    alphas = _parse_alphas(args.alphas)
    sigma = calibrate_sigma(
        PrivacyBudget(args.epsilon, args.delta), q=args.q, steps=args.steps, alphas=alphas
    )
    # the epsilon of the probe that accepted sigma, so achieved_epsilon <= target
    epsilon, alpha_star = _ACCEPTED.probe[args.q, sigma, args.steps, alphas, args.delta]
    _print_kv(
        sigma=sigma,
        achieved_epsilon=epsilon,
        target_epsilon=args.epsilon,
        delta=args.delta,
        alpha_star=alpha_star,
    )
    return EXIT_OK


def _load_config(args) -> SimConfig:
    _load_simulator()
    config = SimConfig.from_file(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_simulate(args) -> int:
    config = _load_config(args)
    # calibrate once, so the run and the printed sigma share one value
    config = dataclasses.replace(config, sigma=config.resolve_sigma(), target_epsilon=None)
    # built once: training reuses the data generate_client_data keeps
    clients = generate_client_data(config)
    model, records, ledger = run_training(config)
    paths = write_artifacts(args.outdir, model, records, ledger, config.delta)
    accuracy = evaluate_accuracy(model, clients)
    _print_kv(
        rounds=config.rounds,
        clients=config.clients,
        sigma=float(config.sigma),
        accuracy=accuracy,
    )
    for name in ("model", "rounds", "clients", "ledger"):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_trace(args) -> int:
    config = _load_config(args)
    rounds = args.rounds if args.rounds is not None else config.rounds
    sizes = batch_size_trace(config, args.sampler, rounds)
    lines = ["round,batch_size"] + [f"{t},{b}" for t, b in enumerate(sizes, start=1)]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


@lru_cache(maxsize=1)  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedrdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="one-step divergence bound vs the quadrature oracle")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("oracle", help="quadrature value of the true divergence")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("compose", help="per-client accumulated divergence curve from a ledger file")
    p.add_argument("--ledger", required=True)
    p.add_argument("--client", type=int, required=True)
    p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_ALPHAS))
    p.add_argument("--output", default=None)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("convert", help="epsilon at delta from a curve file (csv or jsonl)")
    p.add_argument("--curve", required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("calibrate", help="smallest noise multiplier meeting a privacy target")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--alphas", default=",".join(str(a) for a in DEFAULT_ALPHAS))
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("simulate", help="run federated training from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("trace", help="realized per-round batch sizes as CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--sampler", choices=("fixed", "poisson"), default="fixed")
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error; 2 is reserved for numerical failures
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (QuadratureError, CalibrationError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except json.JSONDecodeError as exc:
        print(f"I/O failure: cannot parse {getattr(args, 'config', '<input>')}: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
