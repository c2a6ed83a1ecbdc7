#!/usr/bin/env python3
"""Write the corpus value ledger, tests/data/corpus_values.json.

Solves the 20 acceptance-corpus graphs at p = 0.5, 1, 1.5 and 2 (c = 1/4,
solver seed 0, 4 starts: the acceptance fixture's settings) and records, for
each (graph, p), the exact value, `converged` and the residuals' `feasible`.
tests/test_acceptance.py reads the fixture's solves against it.  Rewrite it
in the change that moves a value, and say in CHANGES.md which values moved
and which way.

Usage: PYTHONPATH=src python scripts/corpus_ledger.py
"""

import json
import sys
from pathlib import Path

from sepkit.corpus import acceptance_corpus, solve_corpus

C = 0.25
P_GRID = (0.5, 1.0, 1.5, 2.0)
SEED = 0
STARTS = 4
LEDGER = Path(__file__).resolve().parent.parent / "tests" / "data" / "corpus_values.json"


def main():
    entries = []
    for name, _, _, p, _, rep in solve_corpus(
        acceptance_corpus(), C, P_GRID, seed=SEED, starts=STARTS
    ):
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
    doc = {"c": C, "exponents": list(P_GRID), "seed": SEED, "starts": STARTS,
           "entries": entries}
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {LEDGER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
