"""Command-line front end for the accountant and the simulator.

Subcommands: bound, oracle, compose, convert, calibrate, simulate, trace.
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
import math
import sys

from .accountant import (
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    CalibrationError,
    ParticipationLedger,
    PrivacyBudget,
    RdpCurve,
    calibrate_sigma,
    calibration_curve,
    compose_client_rdp,
    rdp_to_dp,
)
from .divergence import (
    BoundBreakdownError,
    MechanismParams,
    QuadratureError,
    renyi_divergence_quadrature,
    renyi_step_bound,
)
from .simulate import (
    SimConfig,
    batch_size_trace,
    evaluate_accuracy,
    generate_client_data,
    run_training,
    write_artifacts,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

# Dominance slack for the bound self-test (matches the documented validity
# tolerance of the bound/oracle comparison).
DOMINANCE_TOL = 1e-9


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; we reserve 2 for
    numerical failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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
    params = MechanismParams(q=args.q, sigma=args.sigma, m=args.m)
    result = renyi_step_bound(args.alpha, params)
    oracle = renyi_divergence_quadrature(args.alpha, args.q, args.sigma)
    _print_kv(
        alpha=args.alpha,
        q=args.q,
        sigma=args.sigma,
        m=result.m,
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


def _write_curve(curve: RdpCurve, stream, fmt: str):
    if fmt == "csv":
        stream.write("alpha,rdp\n")
        for alpha, value in curve.items():
            stream.write(f"{alpha:.17g},{value:.17g}\n")
    else:
        for alpha, value in curve.items():
            stream.write(json.dumps({"alpha": alpha, "rdp": value}) + "\n")


def cmd_compose(args) -> int:
    ledger = ParticipationLedger.read(args.ledger)
    curve = compose_client_rdp(ledger, args.client, _parse_alphas(args.alphas))
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            _write_curve(curve, fh, args.format)
    else:
        _write_curve(curve, sys.stdout, args.format)
    return EXIT_OK


def _read_curve(path) -> RdpCurve:
    alphas, values = [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line or line == "alpha,rdp":
                continue
            if line.startswith("{"):
                row = json.loads(line)
                alphas.append(float(row["alpha"]))
                values.append(float(row["rdp"]))
            else:
                a, v = line.split(",")
                alphas.append(float(a))
                values.append(float(v))
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
    # report from the curve the calibration certified, so that
    # achieved_epsilon <= target holds by construction
    curve = calibration_curve(args.q, sigma, args.steps, alphas)
    budget, alpha_star = rdp_to_dp(curve, args.delta)
    _print_kv(
        sigma=sigma,
        achieved_epsilon=budget.epsilon,
        target_epsilon=args.epsilon,
        delta=args.delta,
        alpha_star=alpha_star,
    )
    return EXIT_OK


def _load_config(args) -> SimConfig:
    config = SimConfig.from_file(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_simulate(args) -> int:
    config = _load_config(args)
    model, records, ledger = run_training(config)
    sigma = ledger.steps(ledger.clients()[0])[0][1].sigma if ledger.clients() else config.sigma
    paths = write_artifacts(args.outdir, model, records, ledger, config.delta)
    accuracy = evaluate_accuracy(model, generate_client_data(config, sigma or 0.0))
    _print_kv(
        rounds=config.rounds,
        clients=config.clients,
        sigma=float(sigma) if sigma is not None else 0.0,
        accuracy=accuracy,
    )
    for name in ("model", "rounds", "clients", "ledger"):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_trace(args) -> int:
    config = _load_config(args)
    sampler = args.sampler or config.sampler
    rounds = args.rounds if args.rounds is not None else config.rounds
    sizes = batch_size_trace(config, sampler, rounds)
    lines = ["round,batch_size"] + [f"{t},{b}" for t, b in enumerate(sizes, start=1)]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedrdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("bound", help="one-step divergence bound vs the quadrature oracle")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--m", type=int, default=None, help="explicit truncation order (default: adaptive)")
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
    p.add_argument("--sampler", choices=("fixed", "poisson"), default=None)
    p.add_argument("--rounds", type=int, default=None)
    p.add_argument("--output", default=None)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (QuadratureError, BoundBreakdownError, CalibrationError, OverflowError) as exc:
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
