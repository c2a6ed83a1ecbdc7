"""Concave minimization for exponents 0 < p < 2.

In Z-form the objective (1/2^(p/2)) sum_edges z_ij^(p/2) is concave while the
feasible region stays convex, so the global minimum sits at an extreme point.
The solver runs multistart successive linearization: each step minimizes the
tangent plane over the feasible region (via the shared first-order core) and
moves there outright, which can only decrease a concave objective.  Descent
steps use a loose feasibility tolerance; the returned point always comes from
a tight solve.  `solve_relaxation` is the one entry point for every
exponent: it sends p = 2 to the SDP solver and returns a Gram matrix either way.

Also hosts the desk verifications of concavity: closed-form Hessian of
f(x, y) = (x^(1/q) + y^(1/q))^q, its factored quadratic form, the sampling
check against finite differences, and an exhaustive n = 3 grid oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver_core as core
from .embeddings import (
    GramForm,
    RelaxationParams,
    ZForm,
    gram_from_z,
    objective_gradient,
    objective_z,
    zform_spread_requirement,
)
from .graphs import (
    Graph,
    InfeasibleBalanceError,
    balanced_size_range,
    lex_rank,
    mask_members,
    require_balanced_sizes,
    subset_cut_table,
)
from .sdp import SolveReport, cut_z_matrix, solve_report, solve_sdp

CONCAVE_N_CAP = 24
STARTS = 4  # default multistart width of every p < 2 solve


@dataclass(frozen=True)
class ConcaveOptions:
    starts: int = STARTS
    seed: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")


@dataclass(frozen=True)
class ConcavityReport:
    max_eigenvalue: float
    max_fd_relative_error: float
    max_quadform_relative_error: float
    passed: bool


def _cut_start_members(g: Graph, c: float, starts: int, rng):
    """Deterministic list of cut member-sets to seed the multistart: the best
    balanced cut first, then a seeded sample of the others (canonical side
    contains vertex 0, so complements collapse).  Within the reach of
    `subset_cut_table` the pool is every such cut by value, then `lex_rank`:
    its first is the oracle's cut, whose complement is a minimum cut too, so
    it holds vertex 0.  Beyond that reach the cuts are drawn at random."""
    sizes = balanced_size_range(g.n, c)
    table = subset_cut_table(g)
    if table is not None:
        set_sizes, values = table
        keep = (set_sizes >= sizes.start) & (set_sizes < sizes.stop)
        masks = 2 * np.flatnonzero(keep[1::2]) + 1  # the masks holding vertex 0
        key = values[masks].astype(np.int64) * (1 << g.n) + lex_rank(masks, g.n)
        pool = masks[np.argsort(key)]
        idx = rng.choice(len(pool) - 1, size=min(starts - 1, len(pool) - 1), replace=False)
        return [set(mask_members(m, g.n)) for m in np.append(pool[0], pool[1:][np.sort(idx)])]
    picks = []
    while len(picks) < starts:
        k = int(rng.integers(sizes.start, sizes.stop))
        members = set(rng.choice(g.n, size=k, replace=False).tolist())
        if 0 not in members:
            members = set(range(g.n)) - members
        if members not in picks:
            picks.append(members)
    return picks


TIGHT_TOL = 1e-6
LOOSE_TOL = 1e-3
INNER_TOL = 1e-5  # a linearization step that gains less than this stops a loop
MAX_OUTER = 30  # linearization steps per loop


def _descend(g, c, p, z_start, f_start, seed):
    """Successive linearization from one start.

    Loose subproblems steer the search into a basin cheaply; the final answer
    always comes from the tight loop, so the point handed back is feasible at
    solver precision, no worse than the start, and one more tight step cannot
    improve it by INNER_TOL.  Returns (z, value, iterations, certified,
    converged), where converged says that every subproblem converged.
    """
    rhs = zform_spread_requirement(g.n, c)
    iterations = 0
    converged = True
    state = None  # the AL state of the last step; the first step starts cold

    def subproblem(z, feas_tol):
        """One linearized step from z, resumed from the step before it: its
        multipliers and penalty too when both steps are tight, else only its
        active triangles."""
        nonlocal iterations, converged, state
        grad = objective_gradient(g, z, p)
        result = core.minimize_linear_zform(
            grad, p, rhs, z, tol=feas_tol, seed=seed, state=state
        )
        state = result.state if feas_tol == TIGHT_TOL else core.ALState.cold(result.state.codes)
        iterations += result.iterations
        converged = converged and result.converged
        return result.z, objective_z(g, result.z, p)

    def linearize(z, f, feas_tol):
        """Step until a step gains less than INNER_TOL, at most MAX_OUTER
        steps; returns (z, f, settled)."""
        for _ in range(MAX_OUTER):
            znew, fnew = subproblem(z, feas_tol)
            if f - fnew < INNER_TOL:
                return z, f, True
            z, f = znew, fnew
        return z, f, False

    # loose exploration
    z, f, _ = linearize(z_start, f_start, LOOSE_TOL)

    # tight landing: anchor at a point that is feasible at solver precision
    # and no worse than the start
    z1, f1 = subproblem(z, TIGHT_TOL)
    if f1 > f_start:
        # back to the start: the landing's duals were tuned at another point
        z1, f1 = z_start, f_start
        state = core.ALState.cold(state.codes)
    if z1.tobytes() == z.tobytes():
        # the landing stayed put, or fell back to the start it never left:
        # the tight loop's first step would repeat it and stop there
        return z1, f1, iterations, True, converged

    # tight descent to a linearization fixed point
    z, f, certified = linearize(z1, f1, TIGHT_TOL)
    return z, f, iterations, certified, converged


def solve_concave(
    g: Graph,
    c: float,
    p: float,
    opts: ConcaveOptions = ConcaveOptions(),
    sdp_gram: GramForm | None = None,
):
    """Multistart linearization descent for 0 < p < 2; returns (ZForm, SolveReport).

    Start list: up to max(opts.starts - 1, 1) balanced-cut matrices (the
    best cut plus a seeded sample of others, complements deduplicated),
    then, when opts.starts >= 2, the Z of the p = 2 solution as the last
    start; so starts = 1 is the best cut alone.  That solution is sdp_gram
    when given, which must be `solve_sdp(g, c, seed=opts.seed)`'s Gram
    matrix; otherwise it is solved here.  The reported value never exceeds
    the value at any start; ties across starts resolve to the earliest one.
    Invalid (p, c) or balance raises before any work, as in `solve_sdp`.
    """
    require_balanced_sizes(g.n, c)
    RelaxationParams(p, c)  # rejects p outside (0, 2]
    if not p < 2.0:
        raise ValueError(f"solve_concave needs p < 2, got {p}")
    if g.n > CONCAVE_N_CAP:
        raise ValueError(f"n={g.n} beyond the desk-scale cap {CONCAVE_N_CAP}")
    rng = np.random.default_rng(opts.seed)
    members = _cut_start_members(g, c, max(opts.starts - 1, 1), rng)
    starts = [cut_z_matrix(g, m) for m in members]
    if opts.starts >= 2:
        if sdp_gram is None:
            sdp_gram, _ = solve_sdp(g, c, seed=opts.seed)
        starts.append(1.0 - sdp_gram.matrix)

    best = None
    total_iter = 0
    certified = converged = False
    for z0 in starts:
        z, f, iters, cert, conv = _descend(g, c, p, z0, objective_z(g, z0, p), opts.seed)
        total_iter += iters
        if best is None or f < best[0] - 1e-15:
            best = (f, z)
            certified, converged = cert, conv
    if not certified:
        raise core.NonconvergedError(f"no linearization fixed point within MAX_OUTER={MAX_OUTER}")
    zform = ZForm(best[1])
    report = solve_report(g, zform.matrix, p, c, TIGHT_TOL, total_iter, converged)
    return zform, report


def solve_relaxation(
    g: Graph,
    c: float,
    p: float,
    *,
    seed: int = 0,
    starts: int = STARTS,
    sdp: tuple[GramForm, SolveReport] | None = None,
) -> tuple[GramForm, SolveReport]:
    """Solve the exponent-p program for any 0 < p <= 2; returns (GramForm,
    SolveReport).

    p = 2 runs `solve_sdp`; every other p runs `solve_concave` with `starts`
    and converts its Z to the Gram matrix, so every exponent hands back the
    same kind of matrix.  sdp, when given, is `solve_sdp(g, c, seed=seed)`
    already solved: it is the answer at p = 2 and the p = 2 start below it.
    Rejects starts < 1 at every p; the solver it dispatches to checks (p, c)
    and balance before any work.
    """
    opts = ConcaveOptions(starts=starts, seed=seed)  # validates starts
    if p == 2.0:
        return solve_sdp(g, c, seed=seed) if sdp is None else sdp
    z, report = solve_concave(g, c, p, opts, None if sdp is None else sdp[0])
    return gram_from_z(z), report


def hessian_f(x: float, y: float, q: float) -> np.ndarray:
    """Closed-form Hessian of f(x, y) = (x^(1/q) + y^(1/q))^q for x, y > 0,
    as a symmetric 2 x 2 array.

    Negative semidefinite for q > 1, which is what makes the power-triangle
    region convex.
    """
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"second derivatives need x, y > 0, got ({x}, {y})")
    if q <= 1.0:
        raise ValueError(f"exponent q must exceed 1, got {q}")
    k = (q - 1.0) / q
    f_xx = -k * (1.0 + (y / x) ** (1.0 / q)) ** (q - 2.0) * y ** (1.0 / q) * x ** (
        -(q + 1.0) / q
    )
    f_yy = -k * (1.0 + (x / y) ** (1.0 / q)) ** (q - 2.0) * x ** (1.0 / q) * y ** (
        -(q + 1.0) / q
    )
    f_xy = k * (x ** (-1.0 / q) + y ** (-1.0 / q)) ** (q - 2.0) * (x * y) ** (
        -1.0 / q
    )
    return np.array([[f_xx, f_xy], [f_xy, f_yy]])


def hessian_quadratic_form(x: float, y: float, q: float, alpha: float, beta: float):
    """Factored value of [alpha, beta] H [alpha, beta]^T:

        -((q-1)/q) * (x^(1/q) + y^(1/q))^(q-2) * (alpha*y - beta*x)^2
                   / (xy)^((2q-1)/q)

    always nonpositive, which certifies concavity.
    """
    s = x ** (1.0 / q) + y ** (1.0 / q)
    k = (q - 1.0) / q
    return -k * s ** (q - 2.0) * (alpha * y - beta * x) ** 2 / (x * y) ** (
        (2.0 * q - 1.0) / q
    )


def _f_power(x, y, q):
    return (x ** (1.0 / q) + y ** (1.0 / q)) ** q


def _fd_hessian(x, y, q):
    hx = 1e-3 * x
    hy = 1e-3 * y
    f = _f_power
    f_xx = (f(x + hx, y, q) - 2.0 * f(x, y, q) + f(x - hx, y, q)) / hx**2
    f_yy = (f(x, y + hy, q) - 2.0 * f(x, y, q) + f(x, y - hy, q)) / hy**2
    f_xy = (
        f(x + hx, y + hy, q)
        - f(x + hx, y - hy, q)
        - f(x - hx, y + hy, q)
        + f(x - hx, y - hy, q)
    ) / (4.0 * hx * hy)
    return np.array([[f_xx, f_xy], [f_xy, f_yy]])


# check_concavity's pass thresholds: largest Hessian eigenvalue, and relative
# errors against central differences and against the factored quadratic form
EIG_TOL = 1e-8
FD_REL_TOL = 1e-4
QUAD_REL_TOL = 1e-6


def check_concavity(q: float, samples: int = 1000, seed: int = 0) -> ConcavityReport:
    """Sample (x, y) in (0, 2]^2 and verify, at every point, that the closed
    forms are negative semidefinite, match central finite differences, and
    match the factored quadratic form."""
    if q <= 1.0:
        raise ValueError(f"concavity check needs q > 1, got {q}")
    rng = np.random.default_rng(seed)
    max_eig = -np.inf
    max_fd = 0.0
    max_quad = 0.0
    for _ in range(samples):
        x, y = rng.uniform(1e-3, 2.0, size=2)
        h = hessian_f(x, y, q)
        eig = float(np.linalg.eigvalsh(h)[1])
        fd = _fd_hessian(x, y, q)
        fd_err = float(
            np.max(np.abs(h - fd) / np.maximum(np.abs(h), 1e-12))
        )
        alpha, beta = rng.uniform(-1.0, 1.0, size=2)
        quad_direct = float(np.array([alpha, beta]) @ h @ np.array([alpha, beta]))
        quad_factored = hessian_quadratic_form(x, y, q, alpha, beta)
        denom = max(abs(quad_direct), abs(quad_factored), 1e-12)
        quad_err = abs(quad_direct - quad_factored) / denom
        max_eig = max(max_eig, eig)
        max_fd = max(max_fd, fd_err)
        max_quad = max(max_quad, quad_err)
    return ConcavityReport(
        max_eigenvalue=max_eig,
        max_fd_relative_error=max_fd,
        max_quadform_relative_error=max_quad,
        passed=max_eig <= EIG_TOL and max_fd <= FD_REL_TOL and max_quad <= QUAD_REL_TOL,
    )


def grid_oracle_n3(g: Graph, c: float, p: float, resolution: float = 0.02) -> float:
    """Exhaustive minimum of the Z-form objective for n = 3 over a regular
    grid of (z01, z02, z12) in [0, 2]^3, keeping points that satisfy the
    power-triangle inequalities, the spread bound, and 1 - Z PSD (checked by
    principal minors).  Independent of the descent machinery."""
    if g.n != 3:
        raise ValueError(f"grid oracle is specific to n=3, got n={g.n}")
    if resolution <= 0.0:
        raise ValueError("resolution must be positive")
    steps = int(round(2.0 / resolution))
    if steps > 500:
        raise ValueError(f"resolution {resolution} needs {steps + 1}^3 grid points")
    axis = np.linspace(0.0, 2.0, steps + 1)
    z01, z02, z12 = np.meshgrid(axis, axis, axis, indexing="ij", sparse=True)
    half = p / 2.0
    w01, w02, w12 = z01**half, z02**half, z12**half
    eps = 1e-9
    feas = (
        (w02 <= w01 + w12 + eps)
        & (w01 <= w02 + w12 + eps)
        & (w12 <= w01 + w02 + eps)
        & (z01 + z02 + z12 >= zform_spread_requirement(3, c) - eps)
    )
    # principal minors of 1 - Z with unit diagonal
    a, b, d = 1.0 - z01, 1.0 - z02, 1.0 - z12
    det = 1.0 + 2.0 * a * b * d - a * a - b * b - d * d
    feas &= (np.abs(a) <= 1.0 + eps) & (np.abs(b) <= 1.0 + eps) & (np.abs(d) <= 1.0 + eps)
    feas &= det >= -eps
    if not np.any(feas):
        raise InfeasibleBalanceError("grid contains no feasible point")
    scale = 1.0 / 2.0**half
    obj = np.zeros_like(feas, dtype=float)
    for i, j in g.edges:
        key = {(0, 1): w01, (0, 2): w02, (1, 2): w12}[(i, j)]
        obj = obj + scale * key
    return float(np.min(np.where(feas, obj, np.inf)))
