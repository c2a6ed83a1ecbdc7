import numpy as np
import pytest

from sepkit.corpus import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    petersen_graph,
)
from sepkit.embeddings import (
    Embedding,
    GramForm,
    RelaxationParams,
    check_feasibility,
    cut_to_embedding,
    embedding_from_gram,
    gram_from_embedding,
    objective_gradient,
    z_from_gram,
    zform_spread_requirement,
)
from sepkit.graphs import Cut, Graph, exact_balanced_separator
from sepkit.sdp import Z_TOL, solve_sdp
from sepkit import solver_core as core

C = 0.25


def solve_from_orthonormal(g):
    """The p = 2 core run as solve_sdp runs it, but from the orthonormal
    start (identity Gram) that solve_sdp takes only above the oracle cap."""
    z0 = 1.0 - np.eye(g.n)
    return core.minimize_linear_zform(
        objective_gradient(g, z0, 2.0), 2.0, zform_spread_requirement(g.n, C),
        z0, tol=Z_TOL, seed=0,
    )


def test_linear_subproblem_hand_cases_two_vertices():
    # single variable z01; spread forces z01 >= 2c(1-c)*4 = 1.5, PSD caps at 2
    rhs = 1.5
    z0 = np.array([[0.0, 2.0], [2.0, 0.0]])
    up = np.array([[0.0, 0.5], [0.5, 0.0]])
    res = core.minimize_linear_zform(up, 1.0, rhs, z0, seed=1)
    assert res.z[0, 1] == pytest.approx(1.5, abs=1e-6)
    res = core.minimize_linear_zform(-up, 1.0, rhs, z0, seed=1)
    assert res.z[0, 1] == pytest.approx(2.0, abs=1e-6)
    res = core.minimize_linear_zform(np.zeros((2, 2)), 1.0, rhs, z0, seed=1)
    assert core.spread_sum(res.z) - rhs >= -1e-6
    assert -1e-9 <= res.z[0, 1] <= 2.0 + 1e-9


def known_value_cases():
    # optimal p=2 values derived by hand from spread-tight configurations
    return [
        (complete_graph(3), 1.6875),
        (path_graph(3), 0.84375),
        (complete_graph(4), 3.0),
        (cycle_graph(6), 1.5),
    ]


@pytest.mark.parametrize("g,expected", known_value_cases())
def test_sdp_reaches_known_optima(g, expected):
    _, report = solve_sdp(g, C, seed=0)
    assert report.value == pytest.approx(expected, abs=2e-3)


def test_sdp_sound_against_oracle():
    for g in [cycle_graph(4), complete_graph(4), complete_graph(5),
              complete_bipartite(3, 3), petersen_graph(), gnp_graph(8, 0.5, 4)]:
        _, alpha = exact_balanced_separator(g, C)
        _, report = solve_sdp(g, C, seed=0)
        assert report.value <= alpha + 1e-5


def test_sdp_single_edge_n2():
    g = Graph(2, ((0, 1),))
    _, report = solve_sdp(g, C, seed=0)
    # balance forces |S| = 1, so the cut value is 1; spread makes the true
    # relaxation value 0.75
    assert report.value <= 1.0 + 1e-6
    assert report.value == pytest.approx(0.75, abs=1e-3)


def test_sdp_returned_gram_is_feasible():
    g = petersen_graph()
    x, report = solve_sdp(g, C, seed=3)
    # the factored embedding, read back as Z = 1 - X with its diagonal
    e = embedding_from_gram(x)
    rep = check_feasibility(
        1.0 - gram_from_embedding(e).matrix, RelaxationParams(2.0, C), Z_TOL, Z_TOL
    )
    assert rep.feasible
    assert report.residuals.feasible


def test_sdp_never_above_warm_start():
    for seed in range(3):
        g = gnp_graph(7, 0.5, seed + 20)
        _, alpha = exact_balanced_separator(g, C)
        _, report = solve_sdp(g, C, seed=seed)
        assert report.value <= alpha + 1e-9


def test_sdp_deterministic():
    g = cycle_graph(6)
    _, r1 = solve_sdp(g, C, seed=5)
    _, r2 = solve_sdp(g, C, seed=5)
    assert abs(r1.value - r2.value) <= 1e-12


def test_sdp_rejects_oversize():
    with pytest.raises(ValueError):
        solve_sdp(Graph(65), C)


def assert_scan_empty(z):
    violations, codes = core.scan_triangle_violations(z, 2.0, 1e-9)
    assert violations.size == codes.size == 0


def test_violated_triangles_clean_on_cut_and_identity():
    g = cycle_graph(4)
    x = gram_from_embedding(cut_to_embedding(g, Cut({0, 1})))
    assert_scan_empty(z_from_gram(x).matrix)
    assert_scan_empty(z_from_gram(GramForm(np.eye(4))).matrix)


def test_violated_triangles_detects_construction():
    # x01 = x12 = 0.9 with x02 = 0.7 makes d(0,2)^2 > d(0,1)^2 + d(1,2)^2
    x = np.array([[1.0, 0.9, 0.7], [0.9, 1.0, 0.9], [0.7, 0.9, 1.0]])
    violations, codes = core.scan_triangle_violations(z_from_gram(GramForm(x)).matrix, 2.0, 1e-9)
    assert len(codes)
    assert np.unravel_index(codes[0], (3, 3, 3)) == (0, 1, 2)
    # violation in Z units: 0.3 - 0.1 - 0.1
    assert violations[0] == pytest.approx(0.1, abs=1e-12)
    assert np.all(np.diff(violations) <= 0.0)


def test_violated_triangles_found_by_perturbation_search():
    """Perturb an equality configuration (antipodal pair plus orthogonal
    midpoint) until the scan reports a violation."""
    rng = np.random.default_rng(7)
    base = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    x0 = gram_from_embedding(cut_to_embedding(cycle_graph(3), Cut({0})))
    # distances 0/4 satisfy equality
    assert_scan_empty(z_from_gram(x0).matrix)
    for _ in range(200):
        v = base + 0.3 * rng.standard_normal(base.shape)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        x = gram_from_embedding(Embedding(v))
        if len(core.scan_triangle_violations(z_from_gram(x).matrix, 2.0, 1e-6)[1]):
            return
    raise AssertionError("perturbation search found no violation")


def test_sdp_orthonormal_warm_start():
    g = cycle_graph(4)
    _, from_cut = solve_sdp(g, C, seed=0)
    from_ortho = solve_from_orthonormal(g)
    assert from_ortho.value == pytest.approx(from_cut.value, abs=1e-3)


def test_sdp_orthonormal_start_can_begin_infeasible():
    # n=2: identity Gram misses the spread bound (1 < 1.5) and the solver
    # must work its way into the feasible region
    g = Graph(2, ((0, 1),))
    rep = solve_from_orthonormal(g)
    assert rep.value == pytest.approx(0.75, abs=1e-3)


def test_sdp_beyond_oracle_cap_uses_orthonormal_start():
    # n > 20 has no exact warm start; the solver still returns a feasible
    # point at the stated tolerances
    g = gnp_graph(24, 0.2, 7)
    x, rep = solve_sdp(g, C, seed=0)
    assert rep.residuals.feasible
    assert rep.value >= 0.0


def test_sdp_matches_conic_reference_solver():
    """Independent route: the same program through cvxpy/SCS (test-only
    dependency; skipped when absent)."""
    cp = pytest.importorskip("cvxpy")

    def reference_value(g, c):
        n = g.n
        x = cp.Variable((n, n), symmetric=True)
        cons = [x >> 0, cp.diag(x) == 1]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if len({i, j, k}) == 3:
                        cons.append(x[i, j] + x[j, k] - x[i, k] <= 1)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        cons.append(sum(1 - x[i, j] for i, j in pairs) >= 2 * c * (1 - c) * n * n)
        objective = cp.Minimize(sum((1 - x[i, j]) / 2 for i, j in g.edges))
        problem = cp.Problem(objective, cons)
        problem.solve(solver=cp.SCS, eps=1e-8)
        return problem.value

    for g in [complete_graph(3), cycle_graph(6), gnp_graph(7, 0.5, 2)]:
        ref = reference_value(g, C)
        _, rep = solve_sdp(g, C, seed=0)
        assert rep.value == pytest.approx(ref, abs=5e-5)
