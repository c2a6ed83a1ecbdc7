import os
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from sepkit import solver_core as core
from sepkit.corpus import acceptance_corpus, cycle_graph
from sepkit.embeddings import objective_gradient, zform_spread_requirement
from sepkit.sdp import cut_z_matrix, solve_sdp


def test_factor_correlation_unit_rows_full_width():
    rng = np.random.default_rng(1)
    s = np.array([1.0, 1.0, -1.0, -1.0])
    x = np.outer(s, s)  # rank one
    v = core.factor_correlation(x, rng=rng)
    assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
    assert v.shape == (4, 4)
    assert np.linalg.matrix_rank(v, tol=1e-8) == 4  # jitter restores width


def triples_of(codes, n):
    """The (i, j, k) triples of scan codes, as a list of tuples."""
    return list(zip(*(a.tolist() for a in np.unravel_index(codes, (n, n, n)))))


def triple_codes(tri, n):
    """Scan codes (i n + j) n + k of an array of (i, j, k) rows."""
    return np.ravel_multi_index(np.asarray(tri, dtype=np.int64).reshape(-1, 3).T, (n, n, n))


def test_scan_canonicalizes_and_sorts():
    z = np.zeros((4, 4))
    # w = z at p = 2; make (0, 1, 3) violated more than (0, 2, 3)
    z[0, 3] = z[3, 0] = 1.8
    z[0, 1] = z[1, 0] = 0.2
    z[1, 3] = z[3, 1] = 0.2
    z[0, 2] = z[2, 0] = 0.5
    z[2, 3] = z[3, 2] = 0.5
    violations, codes = core.scan_triangle_violations(z, 2.0, 1e-9)
    found = triples_of(codes, 4)
    assert found[:2] == [(0, 1, 3), (0, 2, 3)]
    assert all(i < k for i, _, k in found)
    assert violations[0] == pytest.approx(1.4)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((0.5, 1.0, 1.5, 2.0)),
    tol=st.sampled_from((0.0, 1e-9, 1e-6, 0.1)),
    data=st.data(),
)
def test_scan_agrees_with_max_violation(p, tol, data):
    # the solver decides feasibility from the scan alone, so the scan must be
    # empty exactly when the maximum is within tol, and lead with the maximum
    n = data.draw(st.integers(3, 7))
    a = data.draw(arrays(np.float64, (n, n), elements=st.floats(0.0, 1.0)))
    z = a + a.T
    violations, _ = core.scan_triangle_violations(z, p, tol)
    worst = core.max_triangle_violation_z(z, p)
    assert bool(len(violations)) == (worst > tol)
    if len(violations):
        assert violations[0] == worst


def slab_scan_reference(z, p, tol):
    """The triangle scan and maximum as n slabs, one per middle vertex j,
    with a tuple per violated triple: (sorted [(violation, i, j, k)], max)."""
    n = z.shape[0]
    if n < 3:
        return [], 0.0
    w = core.power_matrix(z, p)
    np.fill_diagonal(w, 0.0)
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    found, worst = [], []
    for j in range(n):
        slab = np.where(upper, w - w[:, j][:, None] - w[j, :][None, :], 0.0)
        worst.append(float(slab.max()))
        ii, kk = np.nonzero(slab > tol)
        for i, k in zip(ii.tolist(), kk.tolist()):
            if i != j and k != j:
                found.append((float(slab[i, k]), i, j, k))
    found.sort(key=lambda t: (-t[0], t[1], t[2], t[3]))
    return found, max(worst)


def assert_scan_matches_reference(z, p, tol):
    found, worst = slab_scan_reference(z, p, tol)
    violations, codes = core.scan_triangle_violations(z, p, tol)
    assert violations.tobytes() == np.array([t[0] for t in found]).tobytes()
    assert triples_of(codes, z.shape[0]) == [t[1:] for t in found]
    assert core.max_triangle_violation_z(z, p) == worst


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from((0.5, 1.0, 1.5, 2.0)),
    tol=st.sampled_from((0.0, 1e-9, 1e-6, 0.1)),
    data=st.data(),
)
@example(p=2.0, tol=0.0, data=None)
def test_scan_matches_the_slab_reference(p, tol, data):
    # entries from a short list of exact values (ties, zeros and -1e-17 dust
    # that the power clips to 0) mixed with free draws; the diagonal is drawn
    # too, and the scan must zero it
    if data is None:  # an all-zero z: every triple holds with equality
        z = np.zeros((5, 5))
    else:
        n = data.draw(st.integers(1, 12))
        entries = st.one_of(st.sampled_from((0.0, -1e-17, 0.25, 0.5, 1.0, 2.0)),
                            st.floats(0.0, 2.0))
        a = data.draw(arrays(np.float64, (n, n), elements=entries))
        z = np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)
    assert_scan_matches_reference(z, p, tol)


@pytest.mark.parametrize("p", (0.5, 1.0, 1.5, 2.0))
def test_scan_matches_the_slab_reference_at_64_vertices(p):
    rng = np.random.default_rng(int(4 * p))
    z = core.z_of_factor(core.normalize_rows(rng.standard_normal((64, 8))))
    z[z < 0.3] = -1e-17  # near pairs as dust, many tied at zero weight
    assert_scan_matches_reference(z, p, 1e-9)


def test_round_cap_marks_result_unconverged():
    g = cycle_graph(8)
    z0 = cut_z_matrix(g, {0, 1, 2, 3})
    args = (objective_gradient(g, z0, 2.0), 2.0, zform_spread_requirement(g.n, 0.25), z0)
    capped = core.minimize_linear_zform(*args, max_rounds=2)
    assert capped.rounds == 2
    assert not capped.converged
    settled = core.minimize_linear_zform(*args)
    assert settled.rounds < 80
    assert settled.converged


@pytest.mark.parametrize("name, p", [("gnp8_seed4", 0.5), ("K5", 1.5)])
def test_resumed_subproblem_settles_at_the_cold_value(name, p):
    # given the codes of its own returned state, with the same C and z0, a
    # solve starts with every triangle it needed active: nothing is left to
    # find.  The codes alone: multipliers tuned at the returned point start
    # this one off course
    g = dict(acceptance_corpus())[name]
    z0 = 1.0 - solve_sdp(g, 0.25)[0].matrix  # an interior start, as the multistart's last
    c_mat = objective_gradient(g, z0, p)
    args = (c_mat, p, zform_spread_requirement(g.n, 0.25), z0)
    cold = core.minimize_linear_zform(*args)
    assert len(cold.state.codes) == cold.active_triangles > 0
    warm = core.minimize_linear_zform(*args, state=core.ALState.cold(cold.state.codes))
    assert warm.converged
    assert warm.rounds <= 5
    assert np.array_equal(warm.state.codes[: cold.active_triangles], cold.state.codes)
    cold_value = float(np.vdot(c_mat, cold.z))
    assert abs(float(np.vdot(c_mat, warm.z)) - cold_value) <= 1e-6 * (1.0 + abs(cold_value))


@pytest.mark.parametrize("name, p", [("gnp8_seed4", 0.5), ("K5", 1.5), ("C8", 1.0)])
def test_full_state_at_its_own_point_settles_in_three_rounds(name, p):
    # the whole state, multipliers and penalty too, given back with the
    # point it returned: the first round already stays there, and two more
    # confirm it, the fewest rounds the convergence test allows
    g = dict(acceptance_corpus())[name]
    z0 = 1.0 - solve_sdp(g, 0.25)[0].matrix
    c_mat = objective_gradient(g, z0, p)
    rhs = zform_spread_requirement(g.n, 0.25)
    cold = core.minimize_linear_zform(c_mat, p, rhs, z0)
    state = cold.state
    assert len(state.nu) == len(state.codes)
    assert state.mu > 0.0 or state.nu.any()  # more than the cold duals
    warm = core.minimize_linear_zform(c_mat, p, rhs, cold.z, state=state)
    assert warm.converged and warm.rounds == 3
    cold_value = float(np.vdot(c_mat, cold.z))
    assert abs(float(np.vdot(c_mat, warm.z)) - cold_value) <= 1e-6 * (1.0 + abs(cold_value))


def test_infeasible_spread_raises_nonconverged():
    # spread demand above the geometric maximum sum of z entries
    c_mat = np.zeros((3, 3))
    with pytest.raises(core.NonconvergedError, match="no feasible iterate"):
        core.minimize_linear_zform(
            c_mat, 2.0, rhs=50.0, z0=np.zeros((3, 3)), max_rounds=5
        )


def test_power_matrix_clips_negative_dust():
    z = np.array([[0.0, -1e-15], [-1e-15, 0.0]])
    w = core.power_matrix(z, 1.0)
    assert np.all(w >= 0.0)


@pytest.mark.parametrize("p", (0.5, 1.0, 1.5, 2.0))
def test_kernel_and_scan_read_one_triangle_value_on_negative_dust(p):
    # z_ij a few ulps below 0, as 1 - x_ij lands when x_ij rounds above 1:
    # the AL kernel and the scan both read w = max(z, 0)^{p/2}
    z = np.zeros((3, 3))
    z[0, 2] = z[2, 0] = z[1, 2] = z[2, 1] = 3e-16
    z[0, 1] = z[1, 0] = -1e-16
    flat = core.triangle_flat_indices(triple_codes([(0, 1, 2)], 3), 3)
    h, _ = core._triangle_terms(z, flat, p)
    assert h[0] == core._violation_cube(z, p)[0, 1, 2]


# triples sharing pairs within and across blocks: (0, 2) is the (i, k) pair of
# the first two and the (i, j) pair of the last, (0, 1) is an (i, j) pair
# twice, and (1, 2) is a (j, k) pair and an (i, k) pair
SHARED_TRIPLES = ((0, 1, 2), (0, 3, 2), (0, 1, 4), (1, 4, 2), (2, 3, 5), (0, 2, 6))


def al_value_reference(z, c_mat, rhs, p, mu, rho, tri, nu):
    """The augmented Lagrangian at Z, one term at a time."""
    n = z.shape[0]
    val = float(np.vdot(c_mat, z))
    s = sum(z[a, b] for a in range(n) for b in range(a + 1, n)) - rhs
    act = max(0.0, mu - rho * s)
    val += (act * act - mu * mu) / (2.0 * rho)
    for (i, j, k), nu_t in zip(tri, nu):
        h = z[i, k] ** (p / 2) - z[i, j] ** (p / 2) - z[j, k] ** (p / 2)
        coef = max(0.0, nu_t + rho * h)
        val += (coef * coef - nu_t * nu_t) / (2.0 * rho)
    return val


@pytest.mark.parametrize("p", (0.5, 1.5, 2.0))
@pytest.mark.parametrize("d", (7, 5), ids=("d=n", "d=n-2"))
def test_al_objective_gradient_matches_finite_differences(p, d):
    # the gradient in w covers the row normalization and the tangent
    # projection as well as the augmented Lagrangian itself
    n = 7
    rng = np.random.default_rng(3)
    w = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, (n, 1))
    c_mat = core.symmetrize(rng.standard_normal((n, n)))
    np.fill_diagonal(c_mat, 0.0)
    tri = np.array(SHARED_TRIPLES)
    flat = core.triangle_flat_indices(triple_codes(tri, n), n)
    nu = np.linspace(10.0, 12.0, len(tri))
    mu, rho = 0.5, 2.0
    rhs = 40.0  # above any spread of 7 unit vectors, so the spread term acts
    z = core.z_of_factor(core.normalize_rows(w))
    assert mu - rho * (core.spread_sum(z) - rhs) > 0.0
    h, _ = core._triangle_terms(z, flat, p)
    assert np.all(nu + rho * h > 0.0)  # every triangle term acts
    fun = core._al_objective(c_mat, rhs, p, mu, rho, flat, nu, n, d)

    def value(x):
        return fun(x.ravel())[0]

    val, grad = fun(w.ravel())
    reference = al_value_reference(z, c_mat, rhs, p, mu, rho, tri, nu)
    assert val == pytest.approx(reference, rel=1e-12)
    eps = 1e-6
    fd = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        step = np.zeros_like(w)
        step[idx] = eps
        fd[idx] = (value(w + step) - value(w - step)) / (2.0 * eps)
    np.testing.assert_allclose(
        grad.reshape(n, d), fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max()
    )


def al_objective_unfused(c_mat, rhs, p, mu, rho, flat, nu, n, d):
    """The augmented-Lagrangian objective as three steps once computed it:
    normalize the rows of w, take the value and ambient gradient at the
    unit-row factor, then project onto the tangent space and divide by the
    row norms."""

    def fun(w_flat):
        w = w_flat.reshape(n, d)
        norms = np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        v = w / norms
        x = v @ v.T
        z = 1.0 - (x + x.T) / 2.0
        np.fill_diagonal(z, 0.0)
        val = float(np.vdot(c_mat, z))
        s = float(np.sum(np.triu(z, k=1))) - rhs
        act_s = max(0.0, mu - rho * s)
        val += (act_s * act_s - mu * mu) / (2.0 * rho)
        m = c_mat
        if act_s != 0.0:
            m = m + (-act_s) * 0.5 * (1.0 - np.eye(n))
        if len(flat):
            half = p / 2.0
            g = z.ravel()[flat].reshape(3, -1)
            pw = np.maximum(g, 0.0) ** half
            h = pw[0] - pw[1] - pw[2]
            if half == 1.0:
                dw = 1.0
            else:
                dw = half * np.maximum(g, core.Z_FLOOR) ** (half - 1.0)
            coef = np.maximum(0.0, nu + rho * h)
            val += float(np.sum(coef * coef - nu * nu)) / (2.0 * rho)
            if np.any(coef != 0.0):
                signs = np.array([[0.5], [-0.5], [-0.5]])
                weights = (signs * coef * dw).ravel()
                add = np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)
                m = m + add + add.T
        grad = -2.0 * (m @ v)
        inner = np.sum(grad * v, axis=1, keepdims=True)
        return val, ((grad - inner * v) / norms).ravel()

    return fun


@pytest.mark.parametrize("p", (0.5, 1.0, 1.5, 2.0))
@pytest.mark.parametrize("spread_acts", (False, True), ids=("spread-idle", "spread-acts"))
@pytest.mark.parametrize("triangles", ("none", "acting", "idle"))
def test_al_objective_is_bit_identical_to_the_unfused_steps(p, spread_acts, triangles):
    for n in list(range(3, 13)) + [24, 64]:
        for d in (n, n - 2):
            rng = np.random.default_rng([n, d, int(4 * p), spread_acts, len(triangles)])
            c_mat = core.symmetrize(rng.standard_normal((n, n)))
            w = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, (n, 1))
            w[0] = 0.0  # a zero row keeps its norm at 1
            z = core.z_of_factor(core.normalize_rows(w))
            mu, rho = 0.7, 2.0
            rhs = n * n if spread_acts else 0.0
            triples = np.array(
                [t for t in permutations(range(n), 3) if t[0] < t[2]], dtype=np.int64
            )
            if triangles == "idle":
                # triples whose constraint holds strictly, with zero
                # multipliers: every term is max(0, rho h) = 0
                flat = core.triangle_flat_indices(triple_codes(triples, n), n)
                h, _ = core._triangle_terms(z, flat, p)
                triples = triples[h < 0.0]
                assert len(triples)
            size = 0 if triangles == "none" else min(n, len(triples))
            picked = rng.choice(len(triples), size=size, replace=False)
            tri = triples[picked].reshape(-1, 3)
            flat = core.triangle_flat_indices(triple_codes(tri, n), n)
            nu = rng.uniform(0.0, 10.0, len(tri)) if triangles == "acting" else np.zeros(len(tri))
            if triangles != "none":
                h, _ = core._triangle_terms(z, flat, p)
                assert np.any(nu + rho * h > 0.0) == (triangles == "acting")
            assert (mu - rho * (core.spread_sum(z) - rhs) > 0.0) == spread_acts
            args = (c_mat, rhs, p, mu, rho, flat, nu, n, d)
            fused = core._al_objective(*args)
            unfused = al_objective_unfused(*args)
            for x in (w, rng.standard_normal((n, d))):
                val, grad = fused(x.ravel())
                ref_val, ref_grad = unfused(x.ravel())
                assert val == ref_val
                assert grad.tobytes() == ref_grad.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_factor_gram_is_bit_symmetric(data, seed):
    # z_of_factor skips symmetrizing U U^T: numpy computes it with BLAS syrk,
    # which mirrors one triangle, for any C-contiguous factor with unit rows
    n = data.draw(st.integers(1, 70))
    d = data.draw(st.integers(1, n))
    u = core.normalize_rows(np.random.default_rng(seed).standard_normal((n, d)))
    assert u.flags.c_contiguous
    x = u @ u.T
    assert x.tobytes() == np.ascontiguousarray(x.T).tobytes()
    z = 1.0 - core.symmetrize(x)
    np.fill_diagonal(z, 0.0)
    assert core.z_of_factor(u).tobytes() == z.tobytes()


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 70), seed=st.integers(0, 2**32 - 1))
def test_spread_sum_is_the_strict_upper_triangle_sum(n, seed):
    # entries over sixteen orders of magnitude, so any change in the order of
    # the additions shows in the last bits
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8.0, 8.0, (n, n))
    z = a + a.T
    assert core.spread_sum(z) == float(np.sum(np.triu(z, k=1)))


def test_cached_masks_are_read_only():
    with pytest.raises(ValueError):
        core._strict_upper(5)[0, 1] = False
    with pytest.raises(ValueError):
        core._off_triangle_cells(5)[0, 1, 2] = True


def counted(fun):
    """fun, with a count of its calls in `.calls`."""

    def wrapped(x):
        wrapped.calls += 1
        return fun(x)

    wrapped.calls = 0
    return wrapped


def assert_matches_scipy_lbfgsb(fun, x0, budget):
    """`core.lbfgs` against `scipy.optimize.minimize(method="L-BFGS-B")` at
    the options it reproduces, each with the start evaluated separately as
    `_al_round` does: the same x bits, value, evaluation count and status,
    and one call fewer for `lbfgs`."""
    f = counted(fun)
    f0, g0 = f(x0)
    x, val, nfev, status = core.lbfgs(f, x0, f0, g0, budget)
    ours = f.calls
    f.calls = 0
    f(x0)
    res = minimize(
        f,
        x0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": budget, "maxfun": 4 * budget, "ftol": 1e-14, "gtol": 1e-8},
    )
    assert x.tobytes() == res.x.tobytes()
    assert val == res.fun
    assert (nfev, status) == (res.nfev, res.status)
    assert (ours, f.calls) == (nfev, nfev + 1)
    return status


@pytest.mark.parametrize("p", (0.5, 1.0, 1.5, 2.0))
@pytest.mark.parametrize("with_triangles", (False, True), ids=("spread", "triangles"))
def test_lbfgs_loop_matches_scipy_minimize(p, with_triangles):
    # budgets 1-3 stop at the iteration cap (status 1); 120 converges
    statuses = set()
    for n in range(3, 13):
        rng = np.random.default_rng([n, int(4 * p), with_triangles])
        c_mat = core.symmetrize(rng.standard_normal((n, n)))
        z = core.symmetrize((1.0 - np.eye(n)) * rng.uniform(0.2, 1.5, (n, n)))
        # n distinct active triples (i, j, k), i < k, with multipliers large
        # enough that their terms act at the start
        triples = [t for t in permutations(range(n), 3) if t[0] < t[2]]
        picked = rng.choice(len(triples), size=n if with_triangles else 0, replace=False)
        tri = np.array([triples[t] for t in picked], dtype=np.int64).reshape(-1, 3)
        flat = core.triangle_flat_indices(triple_codes(tri, n), n)
        nu = rng.uniform(1.0, 3.0, len(tri))
        v = core.factor_correlation(1.0 - 0.5 * z, rng)
        rhs = 0.6 * n * (n - 1) / 2.0
        rho = 2.0
        if with_triangles:
            h, _ = core._triangle_terms(core.z_of_factor(v), flat, p)
            assert np.any(nu + rho * h > 0.0)
        fun = core._al_objective(c_mat, rhs, p, 0.3, rho, flat, nu, n, n)
        for budget in (1, 2, 3, 120):
            statuses.add(assert_matches_scipy_lbfgsb(fun, v.ravel(), budget))
    assert statuses == {0, 1}


@pytest.mark.parametrize(
    "fun, budget, status",
    [
        # an ascent "gradient" ends in ABNORMAL: status 2, or 1 once past maxfun
        (lambda x: (float(x @ x), -2.0 * x), 10, 2),
        (lambda x: (float(x @ x), -2.0 * x), 2, 1),
        # unbounded below: the evaluation cap (task 502) stops it, and at
        # budget 5 an iteration ends with exactly maxfun = 20 evaluations
        (lambda x: (float(x.sum()), np.ones_like(x)), 5, 1),
        # a gradient 1000x too large: line searches use all maxls = 20 steps
        (lambda x: (float(np.exp(x).sum()), 1e3 * np.exp(x)), 10, 1),
        (lambda x: (1.0, np.zeros_like(x)), 5, 0),
    ],
    ids=("abnormal", "abnormal-past-maxfun", "evaluation-cap", "line-search-steps", "flat"),
)
def test_lbfgs_loop_matches_scipy_minimize_at_every_stop(fun, budget, status):
    assert assert_matches_scipy_lbfgsb(fun, np.linspace(-1.0, 1.0, 6), budget) == status


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(script, *path):
    """Run script in a fresh interpreter with path, then sepkit, on the
    import path; its stdout, after checking that it exited cleanly."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([*map(str, path), str(SRC)]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=False)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_solvers_run_without_importing_scipy_optimize():
    # setulb comes from its extension file, not through scipy.optimize's
    # package __init__, and a later `import scipy.optimize` reuses that module
    alone = run_python(
        "import sys\n"
        "import sepkit.cli\n"
        "from sepkit import solver_core\n"
        "from sepkit.concave import solve_concave\n"
        "from sepkit.corpus import cycle_graph\n"
        "from sepkit.sdp import solve_sdp\n"
        "_, report = solve_sdp(cycle_graph(6), 0.25)\n"
        "solve_concave(cycle_graph(6), 0.25, 1.0)\n"
        "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize was imported'\n"
        "import scipy.optimize\n"
        "assert sys.modules['scipy.optimize._lbfgsb'].setulb is solver_core.setulb\n"
        "print(repr(report.value))\n"
    )
    after_scipy = run_python(
        "import scipy.optimize\n"
        "from sepkit import solver_core\n"
        "from sepkit.corpus import cycle_graph\n"
        "from sepkit.sdp import solve_sdp\n"
        "assert solver_core.setulb is scipy.optimize._lbfgsb.setulb\n"
        "print(repr(solve_sdp(cycle_graph(6), 0.25)[1].value))\n"
    )
    assert alone == after_scipy


def test_missing_lbfgsb_extension_names_the_directory(tmp_path):
    # a scipy package without the compiled routine: the import fails at once
    # and says where it looked, rather than falling back to another import
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    out = run_python(
        "try:\n"
        "    import sepkit.solver_core\n"
        "except ImportError as err:\n"
        "    print(err)\n",
        tmp_path,
    )
    where = tmp_path / "scipy" / "optimize"
    assert out.strip() == f"no scipy.optimize._lbfgsb extension in {where}"
