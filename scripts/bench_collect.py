#!/usr/bin/env python3
"""Fold perfbench result files into one before/after benchmark record.

Each side is a `.perfbench_out/` directory holding the
`result-<workload>-seed<n>-trace<t>.json` files that `perfbench/run.py`
leaves behind, one run each.  For every workload and side (traced runs
apart, under `<workload>+trace`) the record gives the run count, the seeds,
whether every run was correct with no failed operation, and the median and
quartiles of each metric over the runs:

    python3 scripts/bench_collect.py --parent ../base/.perfbench_out \\
        --change .perfbench_out --output BENCH_7.json
"""

import argparse
import json
import pathlib
import re
import statistics

RESULT = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json")


def summarise(directory: pathlib.Path) -> dict:
    runs: dict[str, list[tuple[int, dict]]] = {}
    for path in sorted(directory.glob("result-*.json")):
        match = RESULT.fullmatch(path.name)
        if match:
            result = json.loads(path.read_text().strip().splitlines()[-1])
            # traced runs carry the per-layer metrics; keep them apart
            key = match["workload"] + ("+trace" if match["trace"] == "1" else "")
            runs.setdefault(key, []).append((int(match["seed"]), result))
    out = {}
    for workload, items in sorted(runs.items()):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for _, result in items:
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        metrics = {}
        for name, vals in sorted(values.items()):
            q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                              if len(vals) > 1 else vals * 3)
            metrics[name] = {"unit": units[name], "runs": len(vals),
                             "median": median, "q1": q1, "q3": q3}
        out[workload] = {
            "runs": len(items),
            "seeds": sorted({seed for seed, _ in items}),
            "all_correct": all(r["correct"] and r["failed"] == 0 for _, r in items),
            "metrics": metrics,
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=pathlib.Path, required=True, help="results of the parent commit")
    ap.add_argument("--change", type=pathlib.Path, required=True, help="results of the change")
    ap.add_argument("--output", type=pathlib.Path, default=None, help="default: stdout")
    ap.add_argument("--note", default="", help="free text kept in the record (host, run length)")
    args = ap.parse_args()
    record = {"note": args.note, "parent": summarise(args.parent), "change": summarise(args.change)}
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    if args.output:
        args.output.write_text(text)
    else:
        print(text, end="")


if __name__ == "__main__":
    main()
