#!/usr/bin/env python3
"""Compare the fitted approximation families against the sampler.

For each reference count vector (and optional scalings of the first one)
the script fits every family of ``FIT_FAMILIES`` to the analytic moments
and reports the KS distance of each fit to a large set of posterior
draws, the analytic moments, and the 5%/95% credible bounds of the beta
fit.
"""

import argparse

import numpy as np

from midist.dist import FIT_FAMILIES, fit
from midist.mc import ks_distance, sample_mi
from midist.moments import mi_moments
from midist.tables import PosteriorCounts

VECTORS = {
    "(40,10,20,80)": np.array([[40.0, 10.0], [20.0, 80.0]]),
    "(20,5,10,40)": np.array([[20.0, 5.0], [10.0, 40.0]]),
    "(8,2,4,16)": np.array([[8.0, 2.0], [4.0, 16.0]]),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=20260809)
    parser.add_argument("--scales", default="1,4,16", help="scalings of the first vector")
    args = parser.parse_args()

    rows = list(VECTORS.items())
    for scale in [int(c) for c in args.scales.split(",") if int(c) != 1]:
        rows.append((f"{scale}x(40,10,20,80)", scale * VECTORS["(40,10,20,80)"]))

    ks_header = "".join(f" {'ks_' + family:>9s}" for family in FIT_FAMILIES)
    print(f"{'counts':>18s} {'mean':>9s} {'sd':>9s}{ks_header} {'q05':>8s} {'q95':>8s}")
    for name, counts in rows:
        pc = PosteriorCounts(counts + 1.0)
        moments = mi_moments(pc)
        summary = sample_mi(pc, args.samples, seed=args.seed)
        distances = [
            ks_distance(summary, fit(family, moments.mean, moments.variance, summary.i_max)) for family in FIT_FAMILIES
        ]
        beta = fit("beta", moments.mean, moments.variance, summary.i_max)
        print(
            f"{name:>18s} {moments.mean:9.5f} {moments.variance**0.5:9.5f}"
            + "".join(f" {distance:9.5f}" for distance in distances)
            + f" {beta.quantile(0.05):8.5f} {beta.quantile(0.95):8.5f}"
        )


if __name__ == "__main__":
    main()
