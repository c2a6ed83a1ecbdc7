import numpy as np
import pytest

from sepkit.corpus import (
    acceptance_corpus,
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
    objective_z,
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
        1.0 - gram_from_embedding(e).matrix, RelaxationParams(2.0, C), Z_TOL
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
    assert objective_z(g, from_ortho.z, 2.0) == pytest.approx(from_cut.value, abs=1e-3)


def test_sdp_orthonormal_start_can_begin_infeasible():
    # n=2: identity Gram misses the spread bound (1 < 1.5) and the solver
    # must work its way into the feasible region
    g = Graph(2, ((0, 1),))
    res = solve_from_orthonormal(g)
    assert objective_z(g, res.z, 2.0) == pytest.approx(0.75, abs=1e-3)


def test_sdp_beyond_oracle_cap_uses_orthonormal_start():
    # n > 20 has no exact warm start; the solver still returns a feasible
    # point at the stated tolerances
    g = gnp_graph(24, 0.2, 7)
    x, rep = solve_sdp(g, C, seed=0)
    assert rep.residuals.feasible
    assert rep.value >= 0.0


def arv_program(g, c):
    """The p = 2 program in Gram form, built from its definition alone:
    minimize sum_{ij in E} (1 - x_ij)/2 = m/2 + <C, X> over X PSD, where
    <A_k, X> = 1 on the diagonal and <A_k, X> <= b_k for every triangle
    x_ij + x_jk - x_ik <= 1 (i < k, j apart from both) and for the spread
    sum_{i<j} x_ij <= n(n - 1)/2 - 2c(1 - c)n^2.  Returns (m/2, C, A, b),
    A holding each symmetric A_k flattened as a row, the n equalities first."""
    n = g.n
    eye = np.eye(n)
    rows = [np.outer(eye[i], eye[i]) for i in range(n)]
    for j in range(n):
        for i in range(n):
            for k in range(i + 1, n):
                if j not in (i, k):
                    a = np.outer(eye[i], eye[j] - eye[k]) + np.outer(eye[j], eye[k])
                    rows.append((a + a.T) / 2.0)
    rows.append((1.0 - eye) / 2.0)
    b = np.ones(len(rows))
    b[-1] = n * (n - 1) / 2.0 - 2.0 * c * (1.0 - c) * n * n
    c_mat = np.zeros((n, n))
    for i, j in g.edges:
        c_mat[i, j] = c_mat[j, i] = -0.25
    return len(g.edges) / 2.0, c_mat, np.array([r.ravel() for r in rows]), b


def step_to_boundary(inv_factor, d):
    """Largest a with x + a d PSD, for inv_factor = L^-1 and x = L L^T."""
    low = np.linalg.eigvalsh(inv_factor @ d @ inv_factor.T)[0]
    return -1.0 / low if low < 0.0 else np.inf


def ratio_to_boundary(s, ds):
    """Largest a with s + a ds >= 0, for s > 0."""
    neg = ds < 0.0
    return float(np.min(-s[neg] / ds[neg])) if neg.any() else np.inf


def ipm_reference(g, c, tol=1e-9, max_iter=50):
    """The p = 2 optimum by a primal-dual interior-point method: the HKM
    direction with Mehrotra's predictor-corrector (Helmberg, Rendl,
    Vanderbei and Wolkowicz, SIAM J. Optim. 1996) on `arv_program`, each
    inequality with a slack s >= 0 and dual slack t >= 0, from the
    infeasible start X = Z = I.  Returns (primal, dual, iterations), where
    dual is a weak-duality bound that holds for any multipliers y: with
    y_k <= 0 on the inequalities, tr X = n and X PSD give
    m/2 + <C, X> >= m/2 + b^T y + n min(0, lambda_min(C - A^T y))."""
    const, c_mat, a_mat, b = arv_program(g, c)
    n, m = g.n, len(b)
    x, z, y = np.eye(n), np.eye(n), np.zeros(m)
    s, t = np.ones(m - n), np.ones(m - n)
    for it in range(max_iter):
        rp = b - a_mat @ x.ravel()
        rp[n:] -= s
        rd = c_mat - (a_mat.T @ y).reshape(n, n) - z
        rt = -y[n:] - t
        pobj, dobj = np.vdot(c_mat, x), b @ y
        err = max(np.linalg.norm(rp) / (1.0 + np.linalg.norm(b)),
                  (np.linalg.norm(rd) + np.linalg.norm(rt)) / (1.0 + np.linalg.norm(c_mat)),
                  abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)))
        if err < tol:
            break
        mu = (np.vdot(x, z) + s @ t) / m
        lx = np.linalg.cholesky(x)
        lxi, lzi = np.linalg.inv(lx), np.linalg.inv(np.linalg.cholesky(z))
        zi = lzi.T @ lzi
        # Schur complement A (X kron Z^-1) A^T + diag(0, s/t), formed as a
        # Gram matrix so that it stays PSD in floating point; it turns
        # singular as the many tight triangles make the optimum degenerate,
        # so it is solved on its range after a diagonal scaling
        half = a_mat @ np.kron(lx, lzi.T)
        schur = half @ half.T
        schur[n:, n:] += np.diag(s / t)
        scale = 1.0 / np.sqrt(np.diag(schur))
        w, q = np.linalg.eigh(schur * scale * scale[:, None])
        q = q[:, w > 1e-13 * w[-1]] / np.sqrt(w[w > 1e-13 * w[-1]])

        def direction(target, cross_x, cross_s):
            """Newton step toward XZ = target I, s t = target, with the
            corrector's second-order terms."""
            rx = target * zi - x - x @ rd @ zi - cross_x
            rs = target / t - s - s / t * rt - cross_s
            rhs = rp - a_mat @ rx.ravel()
            rhs[n:] -= rs
            dy = scale * (q @ (q.T @ (scale * rhs)))
            aty = (a_mat.T @ dy).reshape(n, n)
            dx = rx + x @ aty @ zi
            return (dx + dx.T) / 2.0, dy, rd - aty, rs + s / t * dy[n:], rt - dy[n:]

        def steps(dx, dz, ds, dt, gamma):
            return (min(1.0, gamma * min(step_to_boundary(lxi, dx), ratio_to_boundary(s, ds))),
                    min(1.0, gamma * min(step_to_boundary(lzi, dz), ratio_to_boundary(t, dt))))

        dx, dy, dz, ds, dt = direction(0.0, 0.0, 0.0)
        ap, ad = steps(dx, dz, ds, dt, 1.0)
        mu_aff = (np.vdot(x + ap * dx, z + ad * dz) + (s + ap * ds) @ (t + ad * dt)) / m
        dx, dy, dz, ds, dt = direction((mu_aff / mu) ** 3 * mu, dx @ dz @ zi, ds * dt / t)
        ap, ad = steps(dx, dz, ds, dt, 0.95)
        x, s = x + ap * dx, s + ap * ds
        y, z, t = y + ad * dy, z + ad * dz, t + ad * dt
    y[n:] = np.minimum(y[n:], 0.0)
    low = np.linalg.eigvalsh(c_mat - (a_mat.T @ y).reshape(n, n))[0]
    return const + np.vdot(c_mat, x), const + b @ y + n * min(0.0, low), it


def test_sdp_matches_the_interior_point_reference():
    """solve_sdp's value against an independent route to the same optimum,
    on every acceptance corpus graph (n <= 10): the interior-point solve
    converges, its dual bound stays at or below alpha, and the AL's value
    lies within 1e-6 of that bound.  The reference shares no code with the
    solver's constraints (`zform_spread_requirement`, the triangle scan)."""
    for name, g in acceptance_corpus():
        primal, dual, _ = ipm_reference(g, C)
        assert abs(primal - dual) <= 1e-8, name
        _, alpha = exact_balanced_separator(g, C)
        assert dual <= alpha, name
        _, report = solve_sdp(g, C, seed=0)
        assert abs(report.value - dual) <= 1e-6, (name, report.value, dual)
