"""Shared first-order machinery: minimize a linear functional <C, Z> over the
convex feasible region in Z-space at exponent p.

The region is the intersection of
  * correlation structure: X = 1 - Z is PSD with unit diagonal,
  * the spread bound sum_{i<j} z_ij >= rhs,
  * the power-triangle inequalities z_ik^{p/2} <= z_ij^{p/2} + z_jk^{p/2}.

The correlation structure is enforced exactly by optimizing over a factor
V with unit rows (X = V V^T), so the only soft constraints are spread and
the lazily-activated triangles, handled with an augmented Lagrangian.  The
p = 2 solver and the concave solver's linearized subproblem are both thin
wrappers around `minimize_linear_zform`.

Each augmented-Lagrangian round is one L-BFGS-B run, which `lbfgs` drives
through the C routine behind scipy's L-BFGS-B, the private
`scipy.optimize._lbfgsb.setulb` (its argument list is the one of scipy's C
port, from scipy 1.15 on).  `_load_setulb` loads that extension file
straight from scipy's `optimize` directory, skipping the package `__init__`
(linprog, scipy.linalg, scipy.sparse: about 0.45 s that sepkit never
uses); it is the same compiled routine, so every iterate is bit-identical,
and the scipy floor and the parity test against `scipy.optimize.minimize`
are unchanged.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy


def _load_setulb():
    """scipy's `setulb`, from the module already imported if there is one,
    else from the `_lbfgsb` extension file without its package `__init__`.
    The loaded module goes into sys.modules under its own name, so a later
    `import scipy.optimize` reuses it rather than loading a second copy (the
    package then lacks the attribute, but `from . import _lbfgsb` finds it)."""
    name = "scipy.optimize._lbfgsb"
    module = sys.modules.get(name)
    if module is None:
        where = str(Path(scipy.__file__).parent / "optimize")
        spec = importlib.machinery.PathFinder.find_spec(name, [where])
        if spec is None:
            raise ImportError(f"no {name} extension in {where}", name=name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.setulb


setulb = _load_setulb()

Z_FLOOR = 1e-8  # gradient guard: d(z^{p/2})/dz blows up at z = 0 for p < 2
JITTER = 1e-4  # factor jitter at the warm start (see factor_correlation)
INNER_STEPS = 120  # L-BFGS iterations per augmented-Lagrangian round
MIN_NEW_TRIANGLES = 4  # a round activates up to max(n, this) new triangles
MAX_EVALS = 50000  # function evaluations per minimize_linear_zform call
# L-BFGS-B settings: scipy's defaults, with ftol = 1e-14 and gtol = 1e-8
LBFGS_MEMORY = 10
LBFGS_FACTR = 1e-14 / np.finfo(float).eps
LBFGS_PGTOL = 1e-8
LBFGS_MAXLS = 20


class NonconvergedError(RuntimeError):
    """Solver hit its iteration budget without a feasible point."""


@dataclass(frozen=True)
class ALState:
    """What a resumed `minimize_linear_zform` reads of the solve before it:
    the codes of its active triples (see scan_triangle_violations), in
    activation order.  Successive linearization solves one region with a new
    C at each step, so the triangles one step needed are those the next step
    meets first."""

    codes: np.ndarray


@dataclass
class CoreResult:
    z: np.ndarray
    iterations: int
    rounds: int
    active_triangles: int
    converged: bool  # False when the loop stopped at max_rounds or MAX_EVALS
    state: ALState  # pass to the next solve over the same region to resume


def symmetrize(a):
    return (a + a.T) / 2.0


def factor_correlation(x, rng):
    """Unit-row factor V of a correlation-ish matrix, jittered to full width.

    The jitter matters: a rank-deficient factor (e.g. a +/-1 cut matrix) has
    zero gradient in the missing directions and would lock the search into the
    starting subspace.
    """
    n = x.shape[0]
    w, q = np.linalg.eigh(symmetrize(x))
    w = np.maximum(w, 0.0)
    v = q * np.sqrt(w)[None, :]
    v = v + JITTER * rng.standard_normal((n, n)) / np.sqrt(n)
    return normalize_rows(v)


def normalize_rows(v):
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return v / norms


def z_of_factor(v):
    """Z = 1 - V V^T with a zero diagonal, for a C-contiguous factor v.
    numpy runs v @ v.T as BLAS syrk, which computes one triangle and mirrors
    it, so Z is exactly symmetric as it stands."""
    n = v.shape[0]
    z = 1.0 - v @ v.T
    z.ravel()[:: n + 1] = 0.0
    return z


@lru_cache(maxsize=32)
def _strict_upper(n):
    """Read-only n x n mask of the pairs i < j, built once per n."""
    idx = np.arange(n)
    mask = idx[:, None] < idx[None, :]
    mask.flags.writeable = False
    return mask


def spread_sum(z):
    """sum_{i<j} z_ij; the same sum, in the same order, as np.triu(z, k=1)."""
    mask = _strict_upper(z.shape[0]).ravel()
    return float(np.add.reduce(np.where(mask, z.ravel(), 0.0)))


def power_matrix(z, p):
    """max(z, 0)^{p/2}: the one w that the scan, the AL kernel and objective_z read."""
    half = p / 2.0
    if half == 1.0:
        return np.maximum(z, 0.0)
    return np.maximum(z, 0.0) ** half


@lru_cache(maxsize=32)
def _off_triangle_cells(n):
    """Read-only n x n x n mask of the cells (i, j, k) that the triangle scan
    skips, built once per n: i >= k, or j equal to i or k.  (i, j, k) and
    (k, j, i) are one inequality whose two cells can differ in the last bit;
    reading each once keeps the scan and the maximum consistent."""
    i, j, k = np.ogrid[:n, :n, :n]
    mask = (i >= k) | (i == j) | (j == k)
    mask.flags.writeable = False
    return mask


def _violation_cube(z, p):
    """v[i, j, k] = w_ik - w_ij - w_jk for w = z^{p/2} with a zero diagonal,
    the power-triangle violation of a symmetric z at every triple (i, j, k),
    and 0 at the cells of `_off_triangle_cells`: one exact n^3 pass at every
    n.  It allocates one n^3 buffer and works in it: at n = 64 each further
    2 MB temporary cost as much again as the arithmetic."""
    w = power_matrix(z, p)
    np.fill_diagonal(w, 0.0)
    v = w[:, None, :] - w[:, :, None]
    v -= w[None, :, :]
    np.copyto(v, 0.0, where=_off_triangle_cells(w.shape[0]))
    return v


def scan_triangle_violations(z, p, tol):
    """Every triple violating the power-triangle inequality by more than tol,
    as (violations, codes): the violation of each, and its triple (i, j, k),
    i < k, as the code (i n + j) n + k, sorted by decreasing violation, ties
    by code.

    For tol >= 0 the scan is non-empty exactly when
    max_triangle_violation_z(z, p) > tol, and its first entry is that maximum.
    """
    v = _violation_cube(z, p).ravel()
    codes = np.flatnonzero(v > tol)
    violations = v[codes]
    order = np.lexsort((codes, -violations))
    return violations[order], codes[order]


def max_triangle_violation_z(z, p):
    """Largest power-triangle violation of a symmetric z; 0 when none is."""
    if z.shape[0] < 3:
        return 0.0
    return float(_violation_cube(z, p).max())


def triangle_flat_indices(codes, n):
    """Flat indices into an n x n Z of the pairs of each triple code
    (i n + j) n + k, in three blocks (i, k) | (i, j) | (j, k)."""
    ij, k = np.divmod(codes, n)
    i, j = np.divmod(ij, n)
    return np.concatenate([i * n + k, ij, j * n + k])


# signs of the three blocks in h = w_ik - w_ij - w_jk, halved for the two
# mirror entries of each pair
_BLOCK_SIGNS = np.array([[0.5], [-0.5], [-0.5]])


def _triangle_terms(z, flat, p):
    """Constraint values h_t of the active triples, from `power_matrix`, and
    as a 3 x T block the z-derivatives of w at their (i, k), (i, j), (j, k)."""
    half = p / 2.0
    g = z.take(flat).reshape(3, -1)
    w = power_matrix(g, p)
    h = w[0] - w[1] - w[2]
    if half == 1.0:
        return h, 1.0
    return h, half * np.maximum(g, Z_FLOOR) ** (half - 1.0)


def lbfgs(fun, x0, f0, g0, max_iter):
    """Minimize fun, which returns (value, gradient), from x0 with unbounded
    L-BFGS-B; f0 and g0 are fun's value and gradient at x0, already known.

    This is scipy's `_minimize_lbfgsb` loop at the LBFGS_* settings, with
    maxiter = max_iter and maxfun = 4 * max_iter, without the `minimize`
    wrapper: as in scipy's ScalarFunction, x0 counts as one evaluation and a
    requested x equal to the last one evaluated reuses its value.  fun must
    not write to its argument.  Returns (x, f, nfev, status), status being
    scipy's: 0 converged, 1 iteration or evaluation cap, 2 any other stop."""
    n = x0.size
    m = LBFGS_MEMORY
    max_fun = 4 * max_iter
    x = np.array(x0, dtype=np.float64)
    x_seen, f_seen, g_seen = x.copy(), f0, g0
    f = np.array(0.0)
    g = np.zeros(n)
    no_bound = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    nfev = 1
    nit = 0
    while True:
        # a float64 copy, as in scipy: setulb writes g when a line search
        # fails, and g_seen must keep fun's gradient
        g = g.astype(np.float64)
        setulb(m, x, no_bound, no_bound, nbd, f, g, LBFGS_FACTR, LBFGS_PGTOL,
               wa, iwa, task, lsave, isave, dsave, LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # FG: wants value and gradient at x
            if not (x == x_seen).all():
                x_seen = x.copy()
                f_seen, g_seen = fun(x_seen)
                nfev += 1
            f, g = f_seen, g_seen
        elif task[0] == 1:  # NEW_X: an iteration finished
            nit += 1
            if nit >= max_iter:
                task[:] = (5, 504)  # STOP: iteration cap
            elif nfev > max_fun:
                task[:] = (5, 502)  # STOP: evaluation cap
        else:
            break
    if task[0] == 4:  # CONVERGENCE
        status = 0
    elif nfev > max_fun or nit >= max_iter:
        status = 1
    else:
        status = 2
    return x, f, nfev, status


def _al_objective(c_mat, rhs, p, mu, rho, flat, nu, n, d):
    """The augmented Lagrangian as a function of a flat n x d factor w, with
    the unit-row constraint folded in by normalizing rows inside; returns
    (value, gradient).  flat holds the active triples as
    `triangle_flat_indices` gives them.  What stays fixed for the round is
    built here, once, so each evaluation is one pass over the formula."""
    diag = slice(None, None, n + 1)
    c_diag = c_mat.diagonal()
    mu_sq = mu * mu
    nu_sq = nu * nu
    two_rho = 2.0 * rho

    def fun(w_flat):
        w = w_flat.reshape(n, d)
        # np.linalg.norm's own formula, without its dispatch
        norms = np.sqrt(np.add.reduce(w * w, axis=1, keepdims=True))
        norms[norms == 0.0] = 1.0
        u = w / norms
        z = z_of_factor(u)
        val = float(np.vdot(c_mat, z))
        s = spread_sum(z) - rhs
        # inequality s >= 0 with multiplier mu
        act_s = max(0.0, mu - rho * s)
        val += (act_s * act_s - mu_sq) / two_rho
        m = c_mat  # dF/dZ
        if act_s != 0.0:
            # C - act_s (J - I) / 2; c_mat comes from `symmetrize`, so m is
            # C-contiguous and m.ravel() is a view
            m = c_mat - act_s * 0.5
            m.ravel()[diag] = c_diag
        if len(flat):
            h, dw = _triangle_terms(z, flat, p)
            coef = np.maximum(0.0, nu + rho * h)
            val += float(np.add.reduce(coef * coef - nu_sq)) / two_rho
            if coef.any():
                # one scatter, adding each block in turn from 0.0
                weights = (_BLOCK_SIGNS * coef * dw).ravel()
                add = np.bincount(flat, weights=weights, minlength=n * n).reshape(n, n)
                m = m + add + add.T
        # Z = 1 - U U^T, so dF/dU = -2 (dF/dZ) U; project that onto the
        # unit-row tangent space and carry it back through the normalization
        g = -2.0 * (m @ u)
        g -= np.add.reduce(g * u, axis=1, keepdims=True) * u
        g /= norms
        return val, g.ravel()

    return fun


def _al_round(v, c_mat, rhs, p, mu, rho, flat, nu, max_evals):
    """One inner minimization of the augmented Lagrangian.

    Folding the unit-row constraint into the objective makes the problem
    unconstrained, and `lbfgs` does the line-search work with max_evals
    iterations, starting from the evaluation at v that also decides
    convergence.  Returns (v, evals used, converged flag)."""
    n, d = v.shape
    fun = _al_objective(c_mat, rhs, p, mu, rho, flat, nu, n, d)
    x0 = v.ravel()
    val0, grad0 = fun(x0)
    x, val, nfev, status = lbfgs(fun, x0, val0, grad0, max_evals)
    v_new = normalize_rows(x.reshape(n, d))
    converged = status == 0 or (val0 - val <= 1e-11 * (1.0 + abs(val)))
    return v_new, nfev, converged


def minimize_linear_zform(
    c_mat,
    p,
    rhs,
    z0,
    *,
    tol=1e-6,
    seed=0,
    max_rounds=80,
    state=None,
):
    """Minimize <C, Z> over the exponent-p feasible region, warm-started at
    the n x n matrix z0.

    Returns the best feasible iterate seen (z0 itself counts when feasible);
    raises NonconvergedError if no iterate ever satisfied the constraints
    within tol.  The result is marked unconverged when the loop stopped at
    max_rounds or MAX_EVALS instead of settling on a stable feasible value.

    state, an `ALState` from an earlier solve over the same region (same p
    and rhs), resumes from it: its triples start active, and the factor
    starts at z0 itself.  Without one the solve starts cold: no active
    triples, and a factor blended toward the orthonormal pattern.
    The multipliers and the penalty start afresh either way.
    """
    z0 = np.asarray(z0, dtype=float)
    n = z0.shape[0]
    c_mat = symmetrize(np.asarray(c_mat, dtype=float))
    rng = np.random.default_rng(seed)
    batch = max(n, MIN_NEW_TRIANGLES)
    # rescale the objective so step sizes and penalties are scale-free
    cscale = float(np.linalg.norm(c_mat))
    c_unit = c_mat / cscale if cscale > 0.0 else c_mat

    best = None  # (value, z)
    if spread_sum(z0) - rhs >= -tol and max_triangle_violation_z(z0, p) <= tol:
        best = (float(np.vdot(c_mat, z0)), z0.copy())

    # active triples, kept across rounds: their codes (see
    # scan_triangle_violations) and one multiplier each; flat, their indices
    # into Z, follows from the codes
    if state is None:
        # Start strictly inside: exact cut matrices are antipodal
        # configurations, which are critical points of any linear objective
        # on the sphere manifold; blending toward the orthonormal pattern
        # breaks the saddle.
        z_start = 0.7 * z0 + 0.3 * (1.0 - np.eye(n))
        active = np.zeros(0, dtype=np.int64)
    else:
        z_start = z0
        active = state.codes
    v = factor_correlation(1.0 - z_start, rng)
    mu = 0.0
    nu = np.zeros(len(active))
    flat = triangle_flat_indices(active, n)
    rho = 1.0
    used = 0
    rounds = 0
    converged = False
    prev_infeas = np.inf
    prev_val = np.inf
    stable = 0
    feas_streak = 0
    while used < MAX_EVALS and rounds < max_rounds:
        rounds += 1
        budget = min(INNER_STEPS, MAX_EVALS - used)
        v, took, pgd_conv = _al_round(v, c_unit, rhs, p, mu, rho, flat, nu, budget)
        used += took
        z = z_of_factor(v)
        slack = spread_sum(z) - rhs
        # one triangle pass per round: the scan is empty exactly when the
        # largest violation is within tol, and otherwise leads with it
        violations, codes = scan_triangle_violations(z, p, tol)
        infeas = max(0.0, -slack) + (float(violations[0]) if len(codes) else 0.0)
        feasible_now = slack >= -tol and not len(codes)
        val_now = float(np.vdot(c_mat, z))
        if feasible_now and (best is None or val_now < best[0]):
            best = (val_now, z.copy())
        if (
            pgd_conv
            and feasible_now
            and abs(prev_val - val_now) <= tol * (1.0 + abs(val_now))
        ):
            stable += 1
            if stable >= 2:
                converged = True
                break
        else:
            stable = 0
        prev_val = val_now if feasible_now else prev_val
        # multiplier updates
        mu = max(0.0, mu - rho * slack)
        if len(flat):
            h, _ = _triangle_terms(z, flat, p)
            nu = np.maximum(0.0, nu + rho * h)
        # activate worst new triangles
        fresh = codes[~np.isin(codes, active)][:batch]
        if len(fresh):
            active = np.concatenate([active, fresh])
            flat = triangle_flat_indices(active, n)
            nu = np.concatenate([nu, np.zeros(len(fresh))])
        # two-sided penalty adaptation: grow on stalls, shrink once feasible so
        # the quadratic wall does not choke tangent progress along the boundary
        if infeas <= tol:
            feas_streak += 1
            if feas_streak >= 2:
                rho = max(rho * 0.5, 1.0)
        else:
            feas_streak = 0
            if infeas > 0.9 * prev_infeas:
                rho = min(rho * 2.0, 1e8)
        prev_infeas = max(infeas, 1e-300)

    if best is None:
        raise NonconvergedError(f"no feasible iterate within tol={tol} after {used} steps")
    return CoreResult(
        z=best[1],
        iterations=used,
        rounds=rounds,
        active_triangles=len(nu),
        converged=converged,
        state=ALState(active),
    )
