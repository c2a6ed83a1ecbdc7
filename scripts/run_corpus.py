#!/usr/bin/env python3
"""Corpus sweep: exact optimum, relaxation values across the exponent grid,
and rounding outcomes, written as one CSV row per (graph, p).

Usage: python scripts/run_corpus.py [--seed 0] [--starts 4] [--out corpus.csv]
"""

import argparse
import csv
import sys
import time

from sepkit.concave import STARTS
from sepkit.corpus import acceptance_corpus, solve_corpus
from sepkit.embeddings import embedding_from_gram
from sepkit.rounding import PipelineOptions, pipeline

C = 0.25
P_GRID = (0.5, 1.0, 1.5, 2.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--starts", type=int, default=STARTS)
    ap.add_argument("--rounding-seeds", type=int, default=8)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = []
    t0 = t1 = time.time()
    for name, g, alpha, p, x, rep in solve_corpus(
        acceptance_corpus(), C, P_GRID, seed=args.seed, starts=args.starts
    ):
        emb = embedding_from_gram(x)
        succ = 0
        ratios = []
        for k in range(args.rounding_seeds):
            out = pipeline(
                g, C, p, PipelineOptions(seed=args.seed + k),
                embedding=emb, relaxation_value=rep.value,
            )
            if out.succeeded:
                succ += 1
                ratios.append(out.ratio)
        rows.append(
            {
                "graph": name,
                "n": g.n,
                "m": g.m,
                "p": p,
                "alpha": alpha,
                "relaxation": round(rep.value, 6),
                "gap": round(alpha - rep.value, 6),
                "round_success": f"{succ}/{args.rounding_seeds}",
                "best_ratio": round(min(ratios), 4) if ratios else "",
                "solve_seconds": round(time.time() - t1, 2),
            }
        )
        print(
            f"{name:>14} p={p:<4} alpha={alpha:<3} relax={rep.value:8.4f} "
            f"rounded {succ}/{args.rounding_seeds}",
            flush=True,
        )
        t1 = time.time()
    print(f"total {time.time() - t0:.0f}s")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
