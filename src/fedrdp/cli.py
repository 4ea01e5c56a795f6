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

import sys
from types import SimpleNamespace

from .accountant import (
    DEFAULT_ALPHAS,
    DEFAULT_DELTA,
    CalibrationError,
    ParticipationLedger,
    PrivacyBudget,
    RdpCurve,
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
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise ValueError(f"could not parse order list {text!r}")


def _print_kv(**kv):
    for key, value in kv.items():
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
    import json

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
                    import json

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
    _print_kv(
        sigma=sigma,
        achieved_epsilon=sigma.epsilon,
        target_epsilon=args.epsilon,
        delta=args.delta,
        alpha_star=sigma.alpha_star,
    )
    return EXIT_OK


def _load_config(args) -> SimConfig:
    _load_simulator()
    import json
    from dataclasses import replace  # both loaded with the simulator

    try:
        config = SimConfig.from_file(args.config)
    except json.JSONDecodeError as exc:
        raise OSError(f"cannot parse {args.config}: {exc}") from None
    if getattr(args, "seed", None) is not None:
        config = replace(config, seed=args.seed)
    return config


def cmd_simulate(args) -> int:
    from dataclasses import replace

    config = _load_config(args)
    # calibrate once, so the run and the printed sigma share one value
    config = replace(config, sigma=config.resolve_sigma(), target_epsilon=None)
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
    for path in paths.values():
        print(f"wrote {path}")
    return EXIT_OK


def cmd_trace(args) -> int:
    config = _load_config(args)
    rounds = args.rounds if args.rounds is not None else config.rounds
    sizes = batch_size_trace(config, args.sampler, rounds)
    lines = ["round,batch_size"] + [f"{t},{b}" for t, b in enumerate(sizes, start=1)]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


_ALPHA_Q_SIGMA = tuple((flag, {"type": float, "required": True})
                       for flag in ("--alpha", "--q", "--sigma"))
_ALPHAS = ("--alphas", {"default": ",".join(str(a) for a in DEFAULT_ALPHAS)})
_SEED = ("--seed", {"type": int, "default": None, "help": "override the config seed"})

# name: (help, arguments as (flag, add_argument keywords), function), in the
# order `fedrdp --help` lists them.  `_plain_args` reads type, choices,
# default and required from the keywords, and takes each flag's value as the
# next argument, so a flag with an action or nargs must not be added without it
_COMMANDS = {
    "bound": ("one-step divergence bound vs the quadrature oracle", _ALPHA_Q_SIGMA, cmd_bound),
    "oracle": ("quadrature value of the true divergence", _ALPHA_Q_SIGMA, cmd_oracle),
    "compose": ("per-client accumulated divergence curve from a ledger file", (
        ("--ledger", {"required": True}),
        ("--client", {"type": int, "required": True}),
        _ALPHAS,
        ("--output", {"default": None}),
        ("--format", {"choices": ("csv", "jsonl"), "default": "csv"}),
    ), cmd_compose),
    "convert": ("epsilon at delta from a curve file (csv or jsonl)", (
        ("--curve", {"required": True}),
        ("--delta", {"type": float, "default": DEFAULT_DELTA}),
    ), cmd_convert),
    "calibrate": ("smallest noise multiplier meeting a privacy target", (
        ("--epsilon", {"type": float, "required": True}),
        ("--delta", {"type": float, "default": DEFAULT_DELTA}),
        ("--q", {"type": float, "required": True}),
        ("--steps", {"type": int, "required": True}),
        _ALPHAS,
    ), cmd_calibrate),
    "simulate": ("run federated training from a JSON config", (
        ("--config", {"required": True}),
        ("--outdir", {"required": True}),
        _SEED,
    ), cmd_simulate),
    "trace": ("realized per-round batch sizes as CSV", (
        ("--config", {"required": True}),
        ("--sampler", {"choices": ("fixed", "poisson"), "default": "fixed"}),
        ("--rounds", {"type": int, "default": None}),
        ("--output", {"default": None}),
        _SEED,
    ), cmd_trace),
}


def _build_parser():
    """The fedrdp argparse parser, with all seven commands.

    `main` builds it only for a command line that `_plain_args` declines, so
    every help, usage and error text is argparse's own; a plain command line
    imports no argparse.  The module docstring is `--help`'s description.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="fedrdp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv):
    """The namespace argparse gives argv if argv is plain, else None.

    Plain is a command followed by `--flag value` pairs: each flag one of the
    command's own, spelled in full and given once; no value starting with
    `-`; each value converting with the flag's type into its choices; and
    every required flag present.  Anything else (help, abbreviations,
    `--flag=value`, a repeated flag, a negative number, a stray argument, no
    command) is left to argparse.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    _, arguments, func = _COMMANDS[argv[0]]
    declared = dict(arguments)
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = declared.get(flag)
        if keywords is None or flag in given or text.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(text)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    if any(keywords.get("required") and flag not in given for flag, keywords in arguments):
        return None
    values = {flag[2:]: given.get(flag, keywords.get("default")) for flag, keywords in arguments}
    return SimpleNamespace(command=argv[0], **values, func=func)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _plain_args(argv)
    if args is None:
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
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, TypeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
