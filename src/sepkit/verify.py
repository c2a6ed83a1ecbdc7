"""Property suites behind `sepkit verify`: concavity of the objective,
convexity of the feasible region, the Hessian closed forms, the projection
lemma, conversion roundtrips, and solver soundness against the exact oracle.

Each suite returns a SuiteResult so the CLI and the acceptance tests share one
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import solver_core as core
from .concave import check_concavity
from .corpus import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp_graph,
    path_graph,
    solve_corpus,
)
from .embeddings import (
    Embedding,
    RelaxationParams,
    check_feasibility,
    embedding_from_gram,
    gram_from_embedding,
    gram_from_z,
    objective_z,
    z_from_gram,
    zform_spread_requirement,
)
from .graphs import Graph, brute_force_cut_values
from .rounding import gaussian_projection_test
from .sdp import cut_z_matrix


@dataclass
class SuiteResult:
    name: str
    passed: bool
    lines: list = field(default_factory=list)

    def add(self, ok: bool, text: str):
        self.passed = self.passed and ok
        self.lines.append(("PASS " if ok else "FAIL ") + text)


def random_feasible_z(cut_mats, c: float, rng) -> np.ndarray:
    """A feasible Z at every exponent: a random convex combination of the
    balanced cut matrices cut_mats, occasionally blended toward the
    orthonormal pattern when that keeps the spread bound."""
    n = cut_mats[0].shape[0]
    k = int(rng.integers(2, 5))
    picks = rng.choice(len(cut_mats), size=min(k, len(cut_mats)), replace=False)
    weights = rng.random(len(picks))
    weights /= weights.sum()
    z = np.zeros((n, n))
    for w, idx in zip(weights, picks):
        z += w * cut_mats[idx]
    eye_blend = 1.0 - np.eye(n)
    lam = float(rng.uniform(0.0, 0.4))
    blended = (1.0 - lam) * z + lam * eye_blend
    if core.spread_sum(blended) >= zform_spread_requirement(n, c):
        z = blended
    return z


# sample counts of the suites, and the slack of the concavity and convexity
# comparisons
SEGMENT_SAMPLES = 1000
HESSIAN_SAMPLES = 100
PROJECTION_SAMPLES = 100_000
ROUNDTRIP_SAMPLES = 50
SLACK = 1e-9
SOUNDNESS_STARTS = 2  # multistart width of the quick soundness solves


def suite_concavity(seed: int = 0) -> SuiteResult:
    """objective_z is concave along segments between feasible points."""
    res = SuiteResult("concavity", True)
    g = cycle_graph(8)
    g = Graph(8, g.edges + ((0, 4), (1, 5), (2, 6)))
    cut_mats = [cut_z_matrix(g, set(m)) for m, _ in brute_force_cut_values(g, 0.25)]
    rng = np.random.default_rng(seed)
    for p in (0.5, 1.0, 1.5):
        worst = np.inf
        for _ in range(SEGMENT_SAMPLES):
            z1 = random_feasible_z(cut_mats, 0.25, rng)
            z2 = random_feasible_z(cut_mats, 0.25, rng)
            lam = float(rng.random())
            mix = lam * z1 + (1.0 - lam) * z2
            lhs = objective_z(g, mix, p)
            rhs = lam * objective_z(g, z1, p) + (1.0 - lam) * objective_z(g, z2, p)
            worst = min(worst, lhs - rhs)
        res.add(worst >= -SLACK, f"p={p}: min(obj(mix) - mix(obj)) = {worst:.3e} >= -{SLACK}")
    return res


def suite_convexity(seed: int = 0) -> SuiteResult:
    """Convex combinations of feasible points stay feasible: the PSD part
    (sum of PSD matrices) and the power-triangle region separately."""
    res = SuiteResult("convexity", True)
    g = cycle_graph(8)
    cut_mats = [cut_z_matrix(g, set(m)) for m, _ in brute_force_cut_values(g, 0.25)]
    rng = np.random.default_rng(seed)
    for p in (0.5, 1.0, 1.5):
        params = RelaxationParams(p, 0.25)
        ok = True
        worst_spread = worst_eig = np.inf
        worst_tri = 0.0
        for _ in range(SEGMENT_SAMPLES):
            z1 = random_feasible_z(cut_mats, 0.25, rng)
            z2 = random_feasible_z(cut_mats, 0.25, rng)
            lam = float(rng.random())
            mix = lam * z1 + (1.0 - lam) * z2
            # spread and triangles judged at SLACK in Z units, PSD at -SLACK
            rep = check_feasibility(mix, params, SLACK)
            ok = ok and rep.feasible and rep.min_eigenvalue >= -SLACK
            worst_spread = min(worst_spread, rep.spread_slack)
            worst_tri = max(worst_tri, rep.max_triangle_violation)
            worst_eig = min(worst_eig, rep.min_eigenvalue)
        res.add(
            ok,
            f"p={p}: spread slack {worst_spread:.1e}, triangle viol {worst_tri:.1e}, "
            f"min eig {worst_eig:.1e}",
        )
    return res


def suite_hessian(seed: int = 0) -> SuiteResult:
    res = SuiteResult("hessian", True)
    for q in (4.0 / 3.0, 2.0, 4.0):
        rep = check_concavity(q, samples=HESSIAN_SAMPLES, seed=seed)
        res.add(
            rep.passed,
            f"q={q:.4g}: max eig {rep.max_eigenvalue:.2e}, fd rel {rep.max_fd_relative_error:.2e}, "
            f"factored rel {rep.max_quadform_relative_error:.2e}",
        )
    return res


def binomial_slack(bound: float, samples: int) -> float:
    return 3.0 * math.sqrt(max(bound * (1.0 - bound), 1.0 / samples) / samples)


def suite_gaussian(seed: int = 0) -> SuiteResult:
    res = SuiteResult("gaussian", True)
    for d in (10, 100):
        for x in (0.05, 0.1, 0.3):
            r = gaussian_projection_test(d, x, PROJECTION_SAMPLES, seed)
            ok = r.empirical_low <= r.bound_low + binomial_slack(r.bound_low, PROJECTION_SAMPLES)
            res.add(ok, f"d={d} x={x}: Pr<= {r.empirical_low:.4f} vs 3x={r.bound_low:.2f}")
        for x in (1.0, 2.0, 3.0):
            r = gaussian_projection_test(d, x, PROJECTION_SAMPLES, seed)
            if r.bound_high is None:
                res.lines.append(f"SKIP d={d} x={x}: x > sqrt(d)/4, tail bound not applicable")
                continue
            ok = r.empirical_high <= r.bound_high + binomial_slack(r.bound_high, PROJECTION_SAMPLES)
            res.add(
                ok,
                f"d={d} x={x}: Pr>= {r.empirical_high:.4f} vs e^(-x^2/4)={r.bound_high:.4f}",
            )
    return res


def suite_roundtrip(seed: int = 0) -> SuiteResult:
    res = SuiteResult("roundtrip", True)
    rng = np.random.default_rng(seed)
    worst_gram = 0.0
    for _ in range(ROUNDTRIP_SAMPLES):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, n + 1))
        v = rng.standard_normal((n, d))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        e = Embedding(v)
        x = gram_from_embedding(e)
        e2 = embedding_from_gram(x)
        x2 = gram_from_embedding(e2)
        worst_gram = max(worst_gram, float(np.max(np.abs(x.matrix - x2.matrix))))
    res.add(worst_gram <= 1e-6, f"gram factor roundtrip: max deviation {worst_gram:.2e}")
    g = cycle_graph(4)
    z = z_from_gram(gram_from_embedding(Embedding(np.array([[1.0], [1.0], [-1.0], [-1.0]]))))
    back = z_from_gram(gram_from_z(z))
    res.add(
        bool(np.array_equal(back.matrix, z.matrix)),
        "z roundtrip exact on the cut matrix",
    )
    return res


def suite_soundness(seed: int = 0) -> SuiteResult:
    """Quick solver-vs-oracle check on a small corpus (the acceptance suite
    runs the full one)."""
    res = SuiteResult("soundness", True)
    graphs = [
        ("C4", cycle_graph(4)),
        ("P5", path_graph(5)),
        ("K4", complete_graph(4)),
        ("K33", complete_bipartite(3, 3)),
        ("gnp6", gnp_graph(6, 0.5, 0)),
    ]
    for name, _, alpha, p, _, rep in solve_corpus(
        graphs, 0.25, (0.5, 1.0, 1.5, 2.0), seed=seed, starts=SOUNDNESS_STARTS
    ):
        res.add(
            rep.value <= alpha + 1e-5,
            f"{name} p={p}: relaxation {rep.value:.4f} <= alpha {alpha}",
        )
    return res


SUITES = {
    "concavity": suite_concavity,
    "convexity": suite_convexity,
    "hessian": suite_hessian,
    "gaussian": suite_gaussian,
    "roundtrip": suite_roundtrip,
    "soundness": suite_soundness,
}


def run_suites(names, seed: int = 0):
    results = []
    for name in names:
        results.append(SUITES[name](seed=seed))
    return results
