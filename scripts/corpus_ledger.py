#!/usr/bin/env python3
"""Write the corpus value ledger, tests/data/corpus_values.json.

Solves the 20 acceptance-corpus graphs at p = 0.5, 1, 1.5 and 2 (c = 1/4,
solver seed 0, 4 starts: the acceptance fixture's settings) and records, for
each (graph, p), the exact value, `converged` and the residuals' `feasible`.
tests/test_acceptance.py reads the fixture's solves against it.  Rewrite it
in the change that moves a value, and say in CHANGES.md which values moved
and which way.  Last, it prints per exponent the solver's function
evaluations (the reports' `iterations`) and the seconds its solves took; p =
2's seconds include the exact oracle's.

Usage: PYTHONPATH=src python scripts/corpus_ledger.py
"""

import json
import sys
import time
from pathlib import Path

from sepkit.corpus import acceptance_corpus, solve_corpus

C = 0.25
P_GRID = (0.5, 1.0, 1.5, 2.0)
SEED = 0
STARTS = 4
LEDGER = Path(__file__).resolve().parent.parent / "tests" / "data" / "corpus_values.json"


def main():
    corpus = acceptance_corpus()
    entries = []
    evals = dict.fromkeys(P_GRID, 0)
    seconds = dict.fromkeys(P_GRID, 0.0)
    # solve_corpus solves p = 2 before a graph's first exponent: list it
    # first, so that the time to each yield is that exponent's solve alone
    order = sorted(P_GRID, key=lambda p: p != 2.0)
    t0 = time.perf_counter()
    for name, _, _, p, _, rep in solve_corpus(corpus, C, order, seed=SEED, starts=STARTS):
        seconds[p] += time.perf_counter() - t0
        evals[p] += rep.iterations
        entries.append(
            {
                "graph": name,
                "p": p,
                "value": rep.value,  # json writes repr, which reads back exactly
                "converged": rep.converged,
                "feasible": rep.residuals.feasible,
            }
        )
        print(f"{name:>14} p={p:<4} value={rep.value!r}", flush=True)
        t0 = time.perf_counter()
    rank = {name: k for k, (name, _) in enumerate(corpus)}
    entries.sort(key=lambda e: (rank[e["graph"]], P_GRID.index(e["p"])))
    doc = {"c": C, "exponents": list(P_GRID), "seed": SEED, "starts": STARTS,
           "entries": entries}
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {LEDGER}")
    for p in P_GRID:
        print(f"p={p:<4} {evals[p]:>9} evaluations {seconds[p]:8.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
