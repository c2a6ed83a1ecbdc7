import numpy as np
import pytest

from sepkit import concave, graphs, rounding, sdp
from sepkit import solver_core as core
from sepkit.concave import (
    ConcaveOptions,
    check_concavity,
    grid_oracle_n3,
    hessian_f,
    hessian_quadratic_form,
    solve_concave,
    solve_relaxation,
)
from sepkit.corpus import (
    acceptance_corpus,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    solve_corpus,
)
from sepkit.embeddings import (
    cut_to_embedding,
    gram_from_z,
    objective_gradient,
    objective_z,
    zform_spread_requirement,
)
from sepkit.graphs import (
    Cut,
    Graph,
    InfeasibleBalanceError,
    brute_force_cut_values,
    exact_balanced_separator,
    is_c_balanced,
)
from sepkit.rounding import pipeline
from sepkit.sdp import cut_z_matrix, solve_sdp

C = 0.25
P_INNER = (0.5, 1.0, 1.5)


def test_options_validation():
    with pytest.raises(ValueError):
        ConcaveOptions(starts=0)


def test_hessian_at_unit_point_q2():
    h = hessian_f(1.0, 1.0, 2.0)
    assert np.allclose(h, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)
    eigs = np.linalg.eigvalsh(h)
    assert eigs[0] == pytest.approx(-1.0, abs=1e-12)
    assert eigs[1] == pytest.approx(0.0, abs=1e-12)


def test_hessian_symmetric_on_diagonal_points():
    for q in (4.0 / 3.0, 2.0, 4.0):
        for t in (0.3, 1.0, 1.7):
            h = hessian_f(t, t, q)
            assert h[0, 0] == pytest.approx(h[1, 1], rel=1e-12)


def test_hessian_domain_errors():
    with pytest.raises(ValueError):
        hessian_f(1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        hessian_f(0.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        hessian_f(1.0, 1.0, 0.5)


def test_quadratic_form_matches_hessian_directly():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x, y = rng.uniform(0.05, 2.0, size=2)
        q = rng.uniform(1.1, 5.0)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        h = hessian_f(x, y, q)
        direct = np.array([a, b]) @ h @ np.array([a, b])
        factored = hessian_quadratic_form(x, y, q, a, b)
        assert factored == pytest.approx(direct, rel=1e-9, abs=1e-12)
        assert factored <= 1e-12


def test_check_concavity_passes_for_valid_q():
    for q in (2.0, 4.0 / 3.0):
        rep = check_concavity(q, samples=300, seed=1)
        assert rep.passed, rep
        assert rep.max_eigenvalue <= 1e-8
        assert rep.max_fd_relative_error <= 1e-4
        assert rep.max_quadform_relative_error <= 1e-6


def test_check_concavity_rejects_small_q():
    with pytest.raises(ValueError):
        check_concavity(0.5)


def test_linear_subproblem_two_vertex_hand_cases():
    g = Graph(2, ((0, 1),))
    up = np.array([[0.0, 0.5], [0.5, 0.0]])
    rhs = zform_spread_requirement(g.n, C)
    z0 = np.array([[0.0, 2.0], [2.0, 0.0]])
    z = core.minimize_linear_zform(up, 1.0, rhs, z0, tol=1e-6, seed=0).z
    assert z[0, 1] == pytest.approx(2 * C * (1 - C) * 4, abs=1e-5)
    # from the orthonormal start, z01 = 1, below the spread bound
    z0 = 1.0 - np.eye(g.n)
    z = core.minimize_linear_zform(-up, 1.0, rhs, z0, tol=1e-6, seed=0).z
    assert z[0, 1] == pytest.approx(2.0, abs=1e-5)


def test_solve_concave_sound_on_small_graphs():
    for g in [cycle_graph(4), complete_graph(4), path_graph(5), gnp_graph(6, 0.5, 1)]:
        _, alpha = exact_balanced_separator(g, C)
        for p in P_INNER:
            _, rep = solve_concave(g, C, p, ConcaveOptions(starts=3, seed=0))
            assert rep.value <= alpha + 1e-5


def test_solve_concave_reports_returned_z_feasible():
    # corpus graph gnp6_seed6 at p = 0.5: the returned Z violates no
    # constraint by more than the solver's 1e-6, but the distances of a
    # re-factored embedding, raised to p = 0.5, amplified round-off at
    # coincident vertices to about 1.2e-4 and flagged it infeasible
    _, rep = solve_concave(gnp_graph(6, 0.5, 6), C, 0.5, ConcaveOptions(starts=4, seed=0))
    assert rep.residuals.feasible
    assert rep.residuals.max_triangle_violation <= 2.0**0.25 * 1e-6


def test_solve_concave_k3_matches_spread_tight_optimum():
    # the extreme point (0, s, s) with 2s = 2c(1-c)9 gives 2 sqrt(s/2)
    g = complete_graph(3)
    s = zform_spread_requirement(3, C) / 2.0
    _, rep = solve_concave(g, C, 1.0, ConcaveOptions(starts=2, seed=0))
    assert rep.value == pytest.approx(2.0 * np.sqrt(s / 2.0), abs=2e-3)


def test_solve_relaxation_returns_each_solvers_gram():
    g = cycle_graph(5)
    x, rep = solve_relaxation(g, C, 2.0, seed=1, starts=2)
    x_sdp, rep_sdp = solve_sdp(g, C, seed=1)
    assert np.array_equal(x.matrix, x_sdp.matrix)
    assert rep.value == rep_sdp.value
    x, rep = solve_relaxation(g, C, 1.0, seed=1, starts=2)
    z, rep_concave = solve_concave(g, C, 1.0, ConcaveOptions(starts=2, seed=1))
    assert np.array_equal(x.matrix, gram_from_z(z).matrix)
    assert rep.value == rep_concave.value


def test_solve_concave_rejects_bad_exponent():
    g = cycle_graph(4)
    with pytest.raises(ValueError):
        solve_concave(g, C, 2.0)
    with pytest.raises(ValueError):
        solve_concave(g, C, 0.0)


# every entry checks c, then balance, then p, before the exact oracle's
# enumeration or the core runs; the oracle and solve_sdp have no p to check
ENTRIES = {
    "exact_balanced_separator": lambda g, c, p: exact_balanced_separator(g, c),
    "solve_sdp": lambda g, c, p: solve_sdp(g, c),
    "solve_concave": lambda g, c, p: solve_concave(g, c, p, ConcaveOptions(starts=1)),
    "solve_relaxation": lambda g, c, p: solve_relaxation(g, c, p),
    "pipeline": lambda g, c, p: pipeline(g, c, p, embedding=cut_to_embedding(g, Cut({0, 1}))),
}


@pytest.fixture
def no_solver_work(monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("solver work ran before the input check")

    monkeypatch.setattr(core, "minimize_linear_zform", work)
    monkeypatch.setattr(graphs, "subset_cut_table", work)
    for mod in (graphs, sdp, concave, rounding):
        monkeypatch.setattr(mod, "exact_balanced_separator", work)


BAD_INSTANCES = (
    (0.0, 1.0, ValueError, "c must lie"),
    (-0.25, 1.0, ValueError, "c must lie"),
    (C, 2.5, ValueError, "p must lie"),
    (0.6, 1.0, ValueError, "c must lie"),
    (float("inf"), 1.0, ValueError, "c must lie"),
    (float("nan"), 1.0, ValueError, "c must lie"),
    # a valid c that leaves no size strictly between cn and (1 - c)n
    (0.5, 1.0, InfeasibleBalanceError, "no size s"),
)


@pytest.mark.parametrize(
    "entry, c, p, error, match",
    [(entry, *case) for entry in sorted(ENTRIES) for case in BAD_INSTANCES
     if entry not in ("exact_balanced_separator", "solve_sdp") or case[1] == 1.0],
)
def test_entries_reject_bad_instances_before_work(no_solver_work, entry, c, p, error, match):
    with pytest.raises(error, match=match):
        ENTRIES[entry](cycle_graph(4), c, p)


def test_solve_concave_rejects_n_above_cap_before_work(no_solver_work):
    n = concave.CONCAVE_N_CAP + 1
    with pytest.raises(ValueError, match=f"n={n} beyond the desk-scale cap"):
        solve_concave(cycle_graph(n), C, 1.0)


@pytest.mark.parametrize("name", ["K33", "gnp6_seed6", "gnp8_seed1"])
def test_descent_solves_each_subproblem_once(monkeypatch, name):
    # a subproblem is a function of (z0, tol, p) for a given graph, so a
    # second call with bitwise-equal inputs would only redo the same work
    g = dict(acceptance_corpus())[name]
    solve = core.minimize_linear_zform
    calls = []

    def recorded(c_mat, p, rhs, z0, **kwargs):
        calls.append((np.asarray(z0, dtype=float).tobytes(), kwargs.get("tol"), p))
        return solve(c_mat, p, rhs, z0, **kwargs)

    monkeypatch.setattr(core, "minimize_linear_zform", recorded)
    for p in (0.5, 1.0, 1.5):
        calls.clear()
        solve_concave(g, C, p)
        assert len(set(calls)) == len(calls), p


def test_solve_concave_local_minimality_certificate():
    # the descent resumes each step from the last; a cold step, from no
    # state, checks that the point it returns is a fixed point all the same
    g = gnp_graph(7, 0.5, 5)
    for p in P_INNER:
        z, rep = solve_concave(g, C, p, ConcaveOptions(starts=3, seed=0))
        grad = objective_gradient(g, z.matrix, p)
        znext = core.minimize_linear_zform(
            grad, p, zform_spread_requirement(g.n, C), z.matrix, tol=1e-6, seed=0
        ).z
        improvement = rep.value - objective_z(g, znext, p)
        assert improvement < concave.INNER_TOL, p


@pytest.mark.parametrize("name", ["C6", "K33", "gnp8_seed1"])
def test_solve_corpus_hands_in_the_p2_solution_bit_identically(name):
    # solve_corpus solves p = 2 once per graph; each p < 2 solve gets the
    # bits it gets when it solves p = 2 itself
    g = dict(acceptance_corpus())[name]
    for _, _, _, p, x, rep in solve_corpus([(name, g)], C, (0.5, 1.0, 1.5, 2.0)):
        x_alone, rep_alone = solve_relaxation(g, C, p)
        assert rep.value.hex() == rep_alone.value.hex(), p
        assert (rep.iterations, rep.converged) == (rep_alone.iterations, rep_alone.converged)
        assert x.matrix.tobytes() == x_alone.matrix.tobytes(), p


@pytest.mark.parametrize(
    "n", [concave.CUT_ENUMERATION_N_MAX + 2, graphs.BRUTE_FORCE_CAP + 2]
)
def test_cut_starts_sampled_beyond_enumeration(n):
    # n > CUT_ENUMERATION_N_MAX samples the starts; the exact cut leads
    # while the oracle runs
    g = gnp_graph(n, 0.3, 1)
    starts = 6
    picks = concave._cut_start_members(g, C, starts, np.random.default_rng(0))
    assert len(picks) == starts
    assert len({frozenset(m) for m in picks}) == starts
    for members in picks:
        assert 0 in members
        assert is_c_balanced(g, Cut(members), C)
    exact = exact_balanced_separator(g, C)
    assert (exact is None) == (n > graphs.BRUTE_FORCE_CAP)
    if exact is not None:
        assert picks[0] == set(exact[0].members)


def test_solve_concave_never_above_any_start_value():
    g = gnp_graph(8, 0.5, 9)
    _, alpha = exact_balanced_separator(g, C)
    for p in P_INNER:
        _, rep = solve_concave(g, C, p, ConcaveOptions(starts=4, seed=2))
        # cut starts include the optimum, so alpha bounds every start
        assert rep.value <= alpha + 1e-9


def test_objective_concavity_along_segments():
    g = cycle_graph(6)
    rng = np.random.default_rng(3)
    cuts = brute_force_cut_values(g, C)
    zs = [cut_z_matrix(g, m) for m, _ in cuts]
    for p in P_INNER:
        # a cut matrix's objective is its cut value at every exponent
        for z, (_, value) in zip(zs, cuts):
            assert objective_z(g, z, p) == pytest.approx(value, abs=1e-12)
        for _ in range(200):
            picks = rng.choice(len(cuts), size=2, replace=False)
            z1, z2 = zs[picks[0]], zs[picks[1]]
            lam = rng.random()
            mix = lam * z1 + (1 - lam) * z2
            lhs = objective_z(g, mix, p)
            rhs = lam * objective_z(g, z1, p) + (1 - lam) * objective_z(g, z2, p)
            assert lhs >= rhs - 1e-9


def test_grid_oracle_edge_cases():
    empty = Graph(3)
    assert grid_oracle_n3(empty, C, 1.0, 0.05) == 0.0
    with pytest.raises(ValueError):
        grid_oracle_n3(complete_graph(3), C, 1.0, 0.0)
    with pytest.raises(ValueError):
        grid_oracle_n3(complete_graph(4), C, 1.0, 0.05)
    with pytest.raises(ValueError, match=r"^resolution 0\.001 needs 2001\^3 grid points$"):
        grid_oracle_n3(complete_graph(3), C, 1.0, 0.001)
    with pytest.raises(InfeasibleBalanceError, match="^grid contains no feasible point$"):
        grid_oracle_n3(complete_graph(3), 0.5, 1.0, 0.3)


def test_grid_oracle_agrees_with_solvers_on_k3():
    g = complete_graph(3)
    res = 0.02
    grid = grid_oracle_n3(g, C, 2.0, res)
    _, rep = solve_sdp(g, C)
    assert abs(rep.value - grid) <= 3 * res
    grid1 = grid_oracle_n3(g, C, 1.0, res)
    _, rep1 = solve_concave(g, C, 1.0, ConcaveOptions(starts=2, seed=0))
    assert abs(rep1.value - grid1) <= 3 * res


def test_solve_concave_extreme_exponents_smoke():
    g = cycle_graph(4)
    _, alpha = exact_balanced_separator(g, C)
    for p in (0.2, 1.9):
        _, rep = solve_concave(g, C, p, ConcaveOptions(starts=2, seed=0))
        assert rep.value <= alpha + 1e-5


def test_solve_concave_deterministic():
    g = gnp_graph(7, 0.5, 13)
    _, r1 = solve_concave(g, C, 1.0, ConcaveOptions(starts=3, seed=4))
    _, r2 = solve_concave(g, C, 1.0, ConcaveOptions(starts=3, seed=4))
    assert abs(r1.value - r2.value) <= 1e-12
