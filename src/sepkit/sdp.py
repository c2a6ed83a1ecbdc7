"""The p = 2 relaxation at desk scale.

Solves  min (1/4) sum_{ij in E} ||v_i - v_j||^2  over unit vectors with the
squared-distance triangle inequalities and the spread bound, by running the
shared first-order core on the Z-form of the program.  Warm-started from the
best balanced cut (exact oracle) whenever the instance is small enough, and
the returned value is never worse than that warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import solver_core as core
from .embeddings import (
    FeasibilityReport,
    GramForm,
    RelaxationParams,
    check_feasibility,
    objective_gradient,
    objective_z,
    zform_spread_requirement,
)
from .graphs import Graph, exact_balanced_separator, require_balanced_sizes

SDP_N_CAP = 64
# core tolerance in Z units: z-space residuals are half the squared-distance
# residuals, so this honours 1e-6 in the vector form
Z_TOL = 1e-6 / 2.0


@dataclass(frozen=True)
class SolveReport:
    value: float
    residuals: FeasibilityReport
    iterations: int
    converged: bool  # False when a solver loop stopped at its round or step cap


def solve_report(g, z, p, c, tol, iterations, converged) -> SolveReport:
    """The report of a solve of g that returns the Z array z: the value
    `objective_z(g, z, p)` and one `check_feasibility` at tol."""
    residuals = check_feasibility(z, RelaxationParams(p, c), tol)
    return SolveReport(objective_z(g, z, p), residuals, iterations, converged)


def cut_z_matrix(g: Graph, members) -> np.ndarray:
    """Z of the +/-1 cut embedding: 0 within sides, 2 across."""
    signs = np.where(np.isin(np.arange(g.n), sorted(members)), 1.0, -1.0)
    z = 1.0 - np.outer(signs, signs)
    np.fill_diagonal(z, 0.0)
    return z


def warm_start_z(g: Graph, c: float) -> np.ndarray:
    """Z of the best balanced cut while the exact oracle can run; of the
    orthonormal embedding (identity Gram) above its reach."""
    exact = exact_balanced_separator(g, c)
    if exact is None:
        return 1.0 - np.eye(g.n)
    return cut_z_matrix(g, exact[0].members)


def solve_sdp(g: Graph, c: float, *, seed: int = 0):
    """Solve the p = 2 program; returns (GramForm, SolveReport).

    Raises InfeasibleBalanceError when no balanced subset size exists,
    ValueError for c outside (0, 1/2] or n above SDP_N_CAP, both before any
    work, and NonconvergedError when no feasible point was found within the
    iteration budget.
    """
    require_balanced_sizes(g.n, c)
    if g.n > SDP_N_CAP:
        raise ValueError(f"n={g.n} beyond the desk-scale cap {SDP_N_CAP}")
    z0 = warm_start_z(g, c)
    result = core.minimize_linear_zform(
        objective_gradient(g, z0, 2.0),
        2.0,
        zform_spread_requirement(g.n, c),
        z0,
        tol=Z_TOL,
        seed=seed,
    )
    report = solve_report(g, result.z, 2.0, c, Z_TOL, result.iterations, result.converged)
    return GramForm(1.0 - result.z), report
