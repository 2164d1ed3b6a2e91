#!/usr/bin/env python3
"""Incremental benchmark of the three filters on seeded synthetic data.

Each seed builds a binary dataset with a block of class-informative
attributes and a block of independent noise, runs the classify-then-update
loop once per filter set, and prints final accuracy plus the average
number of selected attributes.  Use --out to keep the full per-instance
report of the last seed for plotting.
"""

import argparse

from midist.dist import FIT_FAMILIES
from midist.filters import FILTERS, FilterConfig
from midist.harness import prepare, run_incremental, synthetic_dataset, write_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=500)
    parser.add_argument("--informative", type=int, default=5)
    parser.add_argument("--noise", type=int, default=5)
    parser.add_argument("--flip", type=float, default=0.2)
    parser.add_argument("--seeds", type=int, default=10)
    defaults = FilterConfig()
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon)
    parser.add_argument("--p", type=float, default=defaults.p_level)
    parser.add_argument("--family", default=defaults.family, choices=FIT_FAMILIES)
    parser.add_argument("--out", default=None, help="write the last seed's report (json)")
    args = parser.parse_args()

    cfg = FilterConfig(epsilon=args.epsilon, p_level=args.p, family=args.family)
    totals = {f: {"accuracy": 0.0, "selected": 0.0} for f in FILTERS}
    report = None
    for seed in range(args.seeds):
        ds = synthetic_dataset(
            args.instances, informative=args.informative, noise=args.noise,
            seed=seed, flip=args.flip,
        )
        report = run_incremental(prepare(ds, seed=seed), cfg)
        row = []
        for f in FILTERS:
            run = report.runs[f]
            totals[f]["accuracy"] += run.final_accuracy
            totals[f]["selected"] += run.mean_selected
            row.append(f"{f}: acc {run.final_accuracy:.3f} sel {run.mean_selected:5.2f}")
        print(f"seed {seed:3d}  " + "   ".join(row))

    print("\naverages over seeds:")
    for f in FILTERS:
        print(
            f"  {f:>2s}: accuracy {totals[f]['accuracy'] / args.seeds:.4f}"
            f"  selected {totals[f]['selected'] / args.seeds:6.2f}"
        )
    if args.out and report is not None:
        write_report(report, args.out, format="json")
        print(f"\nlast report written to {args.out}")


if __name__ == "__main__":
    main()
