#!/usr/bin/env python3
"""Privacy-utility sweep: calibrate sigma per target epsilon, train, report.

Emits a CSV (target_epsilon, sigma, accuracy, max_client_epsilon) on stdout
or to --output. The noiseless baseline is listed as target_epsilon=inf.
"""

import argparse
import sys

from fedrdp.simulate import (
    SimConfig,
    client_epsilon_report,
    evaluate_accuracy,
    generate_client_data,
    run_training,
)

BASE = dict(
    rounds=150,
    clients=10,
    d=20,
    classes=2,
    points_per_client=2000,
    batch_size=200,
    clip=1.0,
)


def run_one(cfg: SimConfig) -> tuple[float, float]:
    model, _, ledger = run_training(cfg)
    acc = evaluate_accuracy(model, generate_client_data(cfg))
    worst = max(eps for _, _, eps in client_epsilon_report(ledger, cfg.delta))
    return acc, worst


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--targets", default="1,2,4,8,16",
                    help="comma-separated target epsilons")
    ap.add_argument("--delta", type=float, default=1e-5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--output", default=None)
    args = ap.parse_args()

    out = open(args.output, "w") if args.output else sys.stdout
    out.write("target_epsilon,sigma,accuracy,max_client_epsilon\n")

    acc, _ = run_one(SimConfig(**BASE, sigma=0.0, seed=args.seed))
    out.write(f"inf,0,{acc:.12g},inf\n")

    for target in (float(s) for s in args.targets.split(",")):
        cfg = SimConfig(**BASE, target_epsilon=target, delta=args.delta,
                        seed=args.seed)
        sigma = cfg.resolve_sigma()
        acc, worst = run_one(SimConfig(**BASE, sigma=sigma, delta=args.delta,
                                       seed=args.seed))
        out.write(f"{target:.12g},{sigma:.12g},{acc:.12g},{worst:.12g}\n")
        out.flush()

    if out is not sys.stdout:
        out.close()


if __name__ == "__main__":
    main()
