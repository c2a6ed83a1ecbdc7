"""Correctness checks for benchmark outputs, written apart from sepkit.

Every check recomputes its quantity from the raw output with plain numpy and
returns an error string, or None when the output passes.  Nothing here calls
into sepkit, and nothing compares against stored outputs of an earlier run.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

PSD_TOL = 1e-7  # most negative eigenvalue of X allowed
DIAG_TOL = 1e-9
SPREAD_TOL = 1e-6  # z units; sepkit promises feasibility within 1e-6
TRIANGLE_TOL = 2e-6  # z^(p/2) units; twice the solver's promise, for rounding
VALUE_RTOL = 1e-9
SOUND_TOL = 1e-5  # value <= alpha + SOUND_TOL, as in the acceptance criterion


def balanced_sizes(n, c):
    """Sizes k with cn < k < (1-c)n, in exact arithmetic."""
    cf = Fraction(c)
    return [k for k in range(1, n) if cf * n < k < (1 - cf) * n]


def enumerate_min_balanced_cut(n, edges, c):
    """Minimum c-balanced cut by dynamic programming over all 2^n subsets.

    Vertex v joins every subset of the vertices below it:
    cut(S + v) = cut(S) + deg(v) - 2 |N(v) & S|.  The subset sizes double as
    the popcount table for |N(v) & S|.
    """
    if n > 22:
        raise ValueError(f"enumeration needs n <= 22, got {n}")
    deg = np.zeros(n, dtype=np.int32)
    lower = [0] * n  # neighbours below v as a bit mask
    for i, j in edges:
        deg[i] += 1
        deg[j] += 1
        lo, hi = min(i, j), max(i, j)
        lower[hi] |= 1 << lo
    cut = np.zeros(1, dtype=np.int32)
    size = np.zeros(1, dtype=np.int8)
    for v in range(n):
        shared = size[np.arange(len(cut)) & lower[v]]
        cut = np.concatenate([cut, cut + deg[v] - 2 * shared.astype(np.int32)])
        size = np.concatenate([size, size + 1])
    keep = np.isin(size, balanced_sizes(n, c))
    return int(cut[keep].min())


def upper_bound(n, edges, c):
    """The value no correct solve may exceed: the exact minimum balanced cut
    for n <= 20, else the orthonormal start's value m/2 (feasible for n >= 4)."""
    if n <= 20:
        return float(enumerate_min_balanced_cut(n, edges, c))
    return len(edges) / 2.0


def z_of_gram(x):
    z = 1.0 - np.asarray(x, dtype=float)
    np.fill_diagonal(z, 0.0)
    return z


def check_gram(x):
    x = np.asarray(x, dtype=float)
    if np.max(np.abs(x - x.T)) > DIAG_TOL:
        return "X is not symmetric"
    diag = float(np.max(np.abs(np.diag(x) - 1.0)))
    if diag > DIAG_TOL:
        return f"X diagonal off 1 by {diag:.3e}"
    low = float(np.linalg.eigvalsh(x)[0])
    if low < -PSD_TOL:
        return f"X has eigenvalue {low:.3e}"
    return None


def check_spread(z, c):
    n = z.shape[0]
    total = float(z.sum() - np.trace(z)) / 2.0
    need = 2.0 * c * (1.0 - c) * n * n
    if total < need - SPREAD_TOL:
        return f"spread {total:.9f} below {need:.9f}"
    return None


def max_triangle_violation(z, p):
    """max over all (i, j, k) of w_ik - w_ij - w_jk with w = z^(p/2); full scan."""
    w = np.maximum(z, 0.0) ** (p / 2.0)
    np.fill_diagonal(w, 0.0)
    worst = 0.0
    for i in range(w.shape[0]):
        # rows: j, columns: k
        worst = max(worst, float(np.max(w[i][None, :] - w[i][:, None] - w)))
    return worst


def check_triangles(z, p):
    worst = max_triangle_violation(z, p)
    if worst > TRIANGLE_TOL:
        return f"power-triangle violation {worst:.3e} at p={p}"
    return None


def recomputed_objective(z, edges, p):
    half = p / 2.0
    vals = np.array([max(float(z[i, j]), 0.0) for i, j in edges])
    return float(np.sum((vals / 2.0) ** half)) if len(vals) else 0.0


def check_objective(z, edges, p, value):
    mine = recomputed_objective(z, edges, p)
    if abs(mine - value) > VALUE_RTOL * (1.0 + abs(value)):
        return f"reported value {value!r} but Z gives {mine!r}"
    return None


def spectral_lower_bound(n, edges, c):
    """lambda_2(L) c (1-c) n: every PSD, unit-diagonal Z meeting the spread
    bound has p = 2 objective at least this, and (z/2)^(p/2) >= z/2 on [0, 2]
    carries it to every p < 2."""
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, i] += 1.0
        lap[j, j] += 1.0
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
    lam2 = float(np.linalg.eigvalsh(lap)[1])
    return max(lam2, 0.0) * c * (1.0 - c) * n


def check_bounds(n, edges, c, value, alpha):
    low = spectral_lower_bound(n, edges, c)
    if value < low - 1e-6 * (1.0 + low):
        return f"value {value:.9f} below the spectral bound {low:.9f}"
    if value > alpha + SOUND_TOL:
        return f"value {value:.9f} above the upper bound {alpha:.9f}"
    return None


def solve_errors(n, edges, c, p, x, value, alpha):
    """Every solve check on one relaxation output (X = 1 - Z and its value)."""
    z = z_of_gram(x)
    found = [
        check_gram(x),
        check_spread(z, c),
        check_triangles(z, p),
        check_objective(z, edges, p, value),
        check_bounds(n, edges, c, value, alpha),
    ]
    return [e for e in found if e]


def check_cut_record(n, edges, c, results, alpha):
    """A successful pipeline record: cut size from the edge list, c' = c/4
    balance, and the exact value against our own enumeration."""
    members = set(results["cut_members"])
    size = sum((i in members) != (j in members) for i, j in edges)
    if size != results["cut_size"]:
        return f"record cut_size {results['cut_size']} but the edges give {size}"
    k = len(members)
    if min(k, n - k) < (c / 4.0) * n:
        return f"cut sides {k}/{n - k} below c'n = {c / 4.0 * n}"
    if results["exact_value"] != alpha:
        return f"record exact_value {results['exact_value']} but enumeration gives {alpha}"
    return None


def self_test(c, solve, cut=None):
    """Feed the checks corrupted copies of real outputs; each must be rejected.

    solve is (graph, p, X, value) from one relaxation, cut is (graph, results)
    of one successful pipeline record or None.  Returns the corruptions that a
    check let through.
    """
    g, p, x, value = solve
    z = z_of_gram(x)
    escaped = []

    broken = z.copy()
    w01 = max(broken[0, 1], 0.0) ** (p / 2.0)
    w12 = max(broken[1, 2], 0.0) ** (p / 2.0)
    broken[0, 2] = broken[2, 0] = (w01 + w12 + 1e-3) ** (2.0 / p)
    if check_triangles(broken, p) is None:
        escaped.append("one triangle broken")

    need = 2.0 * c * (1.0 - c) * g.n * g.n
    short = z * (need - 1e-3) / (float(z.sum()) / 2.0)
    if check_spread(short, c) is None:
        escaped.append("spread short by 1e-3")

    if check_objective(z, g.edges, p, value + 1e-6) is None:
        escaped.append("value off by 1e-6")

    if cut is not None:
        g, results = cut
        off = dict(results, cut_size=results["cut_size"] + 1)
        if check_cut_record(g.n, g.edges, c, off, results["exact_value"]) is None:
            escaped.append("cut size off by one")
    return escaped
