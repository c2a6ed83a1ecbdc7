"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Heavy artifacts (corpus relaxation solves) are built once per session and
shared.  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from sepkit.cli import main as cli_main
from sepkit.concave import ConcaveOptions, grid_oracle_n3, solve_concave
from sepkit.corpus import (
    acceptance_corpus,
    complete_graph,
    gnp_graph,
    path_graph,
    solve_corpus,
)
from sepkit.embeddings import (
    Embedding,
    RelaxationParams,
    check_feasibility,
    cut_to_embedding,
    embedding_from_gram,
    gram_from_embedding,
    objective,
)
from sepkit.graphs import Cut, balanced_size_range, cut_size
from sepkit.records import record_to_json
from sepkit.rounding import (
    PipelineOptions,
    attempt_rng,
    check_separated,
    modified_set_find,
    pipeline,
)
from sepkit.sdp import solve_sdp
from sepkit.verify import suite_concavity, suite_convexity, suite_gaussian, suite_hessian

C = 0.25
P_GRID = (0.5, 1.0, 1.5, 2.0)
SOLVE_BUDGET_SECONDS = 300.0
LEDGER = Path(__file__).parent / "data" / "corpus_values.json"
LEDGER_P2_REL_TOL = 1e-6
# how far a p < 2 value may land above its ledger entry: the largest spread
# of a corpus value across solver seeds 0-3 (README, "Corpus value ledger")
LEDGER_BANDS = {0.5: 3.7e-2, 1.0: 1.2e-3, 1.5: 3.0e-2}


def announce(num, title, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({title}): {state} {detail}".rstrip())


@pytest.fixture(scope="session")
def corpus_solutions():
    """Solve every corpus instance at every exponent once; later criteria
    reuse the embeddings and reports.  Records the wall time for the runtime
    clause."""
    t0 = time.perf_counter()
    cache = {}
    corpus = acceptance_corpus()
    for name, _, alpha, p, x, rep in solve_corpus(corpus, C, P_GRID, seed=0, starts=4):
        cache[(name, p)] = (embedding_from_gram(x), rep, alpha)
    elapsed = time.perf_counter() - t0
    return corpus, cache, elapsed


def test_criterion_1_relaxation_soundness(corpus_solutions):
    corpus, cache, elapsed = corpus_solutions
    violations = []
    for name, g in corpus:
        for p in P_GRID:
            _, rep, alpha = cache[(name, p)]
            if not rep.value <= alpha + 1e-5:
                violations.append((name, p, rep.value, alpha))
    ok = not violations and elapsed < SOLVE_BUDGET_SECONDS
    announce(
        1,
        "relaxation soundness",
        ok,
        f"[{len(cache)} solves in {elapsed:.0f}s, violations: {violations}]",
    )
    assert not violations
    assert elapsed < SOLVE_BUDGET_SECONDS


def test_corpus_value_ledger(corpus_solutions):
    """Every fixture solve against tests/data/corpus_values.json: p = 2
    within LEDGER_P2_REL_TOL relative, p < 2 no higher than the ledger by
    more than LEDGER_BANDS[p], `converged` and `feasible` as recorded.  A
    value below its entry is printed: the change that made it rewrites the
    ledger with scripts/corpus_ledger.py."""
    _, cache, _ = corpus_solutions
    doc = json.loads(LEDGER.read_text())
    assert (doc["c"], tuple(doc["exponents"]), doc["seed"], doc["starts"]) == (C, P_GRID, 0, 4)
    assert sorted((e["graph"], e["p"]) for e in doc["entries"]) == sorted(cache)
    moved = []
    for entry in doc["entries"]:
        name, p, ref = entry["graph"], entry["p"], entry["value"]
        _, rep, _ = cache[(name, p)]
        if p == 2.0:
            ok = abs(rep.value - ref) <= LEDGER_P2_REL_TOL * abs(ref)
        else:
            ok = rep.value <= ref + LEDGER_BANDS[p]
        ok = ok and rep.converged == entry["converged"]
        ok = ok and rep.residuals.feasible == entry["feasible"]
        if not ok:
            moved.append((name, p, rep.value, ref, rep.converged, rep.residuals.feasible))
        if rep.value < ref - 1e-9:
            print(f"    below the ledger: {name} p={p}: {rep.value!r} < {ref!r}")
    announce("1b", "corpus value ledger", not moved, f"[{len(moved)} entries off: {moved}]")
    assert not moved


def test_criterion_2_cut_embedding_exactness():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 100:
        n = int(rng.integers(4, 11))
        g = gnp_graph(n, 0.5, int(rng.integers(0, 10_000)))
        sizes = balanced_size_range(n, C)
        k = int(rng.integers(sizes.start, sizes.stop))
        members = set(rng.choice(n, size=k, replace=False).tolist())
        cut = Cut(members)
        e = cut_to_embedding(g, cut)
        size = cut_size(g, cut)
        for p in P_GRID:
            assert abs(objective(g, e, p) - size) <= 1e-9
            z = 1.0 - gram_from_embedding(e).matrix  # diagonal kept: unit norms
            rep = check_feasibility(z, RelaxationParams(p, C), 1e-9)
            assert rep.feasible, (n, members, p, rep)
        checked += 1
    announce(2, "cut-embedding exactness", True, f"[{checked} pairs x {len(P_GRID)} exponents]")


def test_criterion_3_concavity_suite():
    conc = suite_concavity(seed=0)
    conv = suite_convexity(seed=1)
    ok = conc.passed and conv.passed
    announce(3, "concavity + convex-combination feasibility", ok)
    for line in conc.lines + conv.lines:
        print("   ", line)
    assert ok


def test_criterion_4_hessian_suite():
    t0 = time.perf_counter()
    suite = suite_hessian(seed=0)
    elapsed = time.perf_counter() - t0
    ok = suite.passed and elapsed < 10.0
    announce(4, "hessian closed forms", ok, f"[{elapsed:.2f}s]")
    for line in suite.lines:
        print("   ", line)
    # factored quadratic form carries exponent q-2 (see decisions ledger)
    assert suite.passed
    assert elapsed < 10.0


def test_criterion_5_projection_lemma():
    suite = suite_gaussian(seed=0)
    announce(5, "projection lemma Monte Carlo", suite.passed)
    for line in suite.lines:
        print("   ", line)
    assert suite.passed


def _pipeline_runs(corpus, cache, total=500):
    seed = 0
    runs = []
    while len(runs) < total:
        for name, g in corpus:
            for p in P_GRID:
                if len(runs) >= total:
                    break
                emb, solved, alpha = cache[(name, p)]
                rep = pipeline(
                    g, C, p, PipelineOptions(seed=seed),
                    embedding=emb, relaxation_value=solved.value,
                )
                runs.append((name, g, p, emb, rep, alpha, seed))
            if len(runs) >= total:
                break
        seed += 1
    return runs


@pytest.fixture(scope="session")
def pipeline_runs(corpus_solutions):
    corpus, cache, _ = corpus_solutions
    return _pipeline_runs(corpus, cache)


def test_criterion_6_rounding_correctness(pipeline_runs):
    successes = 0
    for name, g, p, emb, rep, alpha, seed in pipeline_runs:
        if not rep.succeeded:
            continue
        successes += 1
        members = set(rep.cut_members)
        k = len(members)
        c_prime = C / 4.0
        assert k >= c_prime * g.n and g.n - k >= c_prime * g.n, (name, p, seed)
        # replay the successful attempt to recover the separated sets
        dist = emb.distance_matrix() ** p
        found = modified_set_find(
            emb, dist, attempt_rng(seed, rep.attempts - 1), delta=rep.delta, c_prime=c_prime
        )
        assert found.success, (name, p, seed)
        ok, worst = check_separated(emb, found.s_side, found.t_side, p, rep.delta)
        assert ok, (name, p, seed, worst)
        assert set(found.s_side) <= members, (name, p, seed)
        assert not (set(found.t_side) & members), (name, p, seed)
    rate = successes / len(pipeline_runs)
    every_run = successes == len(pipeline_runs)
    announce(
        6,
        "rounding correctness (balance, separation, T-exclusion)",
        every_run,
        f"[set-find success rate {successes}/{len(pipeline_runs)} = {rate:.2f}]",
    )
    # the origin split succeeds on every corpus run; a regression halts some
    assert every_run


def test_criterion_6_ratio_floor(pipeline_runs):
    """cut_size / alpha_c >= 1 - 1e-9 on every successful run.

    This clause cannot hold for pseudo-approximation output: the rounded cut
    is only c'-balanced with c' < c, and on complete-ish corpus graphs a
    near-singleton side cuts fewer edges than the best c-balanced cut (for
    K4 at c = 1/4: 3 < 4).  Kept as stated rather than weakened.
    """
    violations = [
        (name, p, seed, rep.ratio)
        for name, g, p, emb, rep, alpha, seed in pipeline_runs
        if rep.succeeded and rep.ratio < 1.0 - 1e-9
    ]
    announce(
        6,
        "ratio floor cut/alpha >= 1",
        not violations,
        f"[{len(violations)} violations, e.g. {violations[:3]}]",
    )
    assert not violations, (
        f"{len(violations)} successful runs returned cuts below alpha_c; "
        "expected for pseudo-approximation, whose output is only c'-balanced"
    )


def test_criterion_7_cross_solver_oracle_n3():
    tol = 3 * 0.02
    lines = []
    ok = True
    for name, g in [("K3", complete_graph(3)), ("P3", path_graph(3))]:
        for p in (0.5, 1.0, 1.5):
            grid = grid_oracle_n3(g, C, p, 0.02)
            _, rep = solve_concave(g, C, p, ConcaveOptions(starts=3, seed=0))
            good = abs(rep.value - grid) <= tol
            ok = ok and good
            lines.append(f"{name} p={p}: solver {rep.value:.5f} vs grid {grid:.5f}")
        grid = grid_oracle_n3(g, C, 2.0, 0.02)
        _, rep = solve_sdp(g, C, seed=0)
        good = abs(rep.value - grid) <= tol
        ok = ok and good
        lines.append(f"{name} p=2: solver {rep.value:.5f} vs grid {grid:.5f}")
    announce(7, "cross-solver/oracle agreement at n=3", ok)
    for line in lines:
        print("   ", line)
    assert ok


def test_criterion_8_set_find_fixtures():
    antipodal = Embedding(np.array([[1.0]] * 4 + [[-1.0]] * 4))
    dist = antipodal.distance_matrix()  # the ||v_i - v_j||^p table at p = 1
    params = {"delta": 1.0, "sigma": 0.5, "c_prime": 1 / 8}
    rng = np.random.default_rng(0)

    res = modified_set_find(antipodal, dist, rng, **params, direction=[1.0])
    fixture1 = (
        res.success
        and res.s_side == (0, 1, 2, 3)
        and res.t_side == (4, 5, 6, 7)
        and res.deleted_pairs == ()
    )

    identical = Embedding(np.ones((8, 1)))
    res = modified_set_find(identical, identical.distance_matrix(), rng, **params, direction=[1.0])
    fixture2 = (not res.success) and res.halted

    big_delta = {**params, "delta": 2.0 + 0.1}
    res = modified_set_find(antipodal, dist, rng, **big_delta, direction=[1.0])
    fixture3 = (
        (not res.success)
        and (not res.halted)
        and res.s_side == ()
        and res.t_side == ()
        and len(res.deleted_pairs) == 4
    )

    ok = fixture1 and fixture2 and fixture3
    announce(8, "set-find hand-trace fixtures", ok, f"[{fixture1}, {fixture2}, {fixture3}]")
    assert ok


def strip_timestamp(record):
    """record without its created_at, the one field two equal runs differ in."""
    return {key: value for key, value in record.items() if key != "created_at"}


def test_criterion_9_pipeline_determinism(tmp_path, capsys):
    graph = tmp_path / "c4.txt"
    graph.write_text("4 4\n0 1\n1 2\n2 3\n3 0\n")
    argv = ["pipeline", "--graph", str(graph), "--p", "2", "--c", "0.25", "--seed", "17"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    a = record_to_json(strip_timestamp(json.loads(first)))
    b = record_to_json(strip_timestamp(json.loads(second)))
    ok = a == b
    announce(9, "pipeline record determinism", ok)
    assert ok
