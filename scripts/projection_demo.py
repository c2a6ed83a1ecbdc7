#!/usr/bin/env python3
"""Random-projection tail bounds, empirically: sweep x for a few dimensions
and print the Monte-Carlo estimates next to the analytic bounds 3x and
e^(-x^2/4).

Usage: python scripts/projection_demo.py [--samples 100000] [--seed 0]
"""

import argparse
import sys

from sepkit.rounding import gaussian_projection_test


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print(f"{'d':>5} {'x':>5} {'Pr<=':>9} {'3x':>7} {'Pr>=':>9} {'exp(-x^2/4)':>12}")
    for d in (10, 100, 1000):
        for x in (0.05, 0.1, 0.3, 1.0, 2.0, 3.0):
            r = gaussian_projection_test(d, x, args.samples, args.seed)
            low = f"{r.bound_low:7.3f}" if r.bound_low is not None else "    n/a"
            high = f"{r.bound_high:12.4f}" if r.bound_high is not None else "         n/a"
            print(
                f"{d:>5} {x:>5.2f} {r.empirical_low:9.4f} {low} "
                f"{r.empirical_high:9.4f} {high}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
