"""Unit-vector embeddings of graph vertices and their Gram / Z matrix forms.

The relaxation family works with n unit vectors, their Gram matrix X of inner
products, and the distance-like change of variables Z = 1 - X.  Everything here
is pure and immutable; solvers build on these conversions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, Cut
from .solver_core import max_triangle_violation_z, power_matrix, spread_sum

TOL_UNIT = 1e-8
TOL_PSD = 1e-7
GRAD_FLOOR = 1e-4  # d(z^{p/2})/dz is unbounded at 0; cap the linearization slope


class NotPsdError(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


@dataclass(frozen=True)
class Embedding:
    """n points in R^d, one row per vertex."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vectors, dtype=float))
        object.__setattr__(self, "vectors", v)

    @property
    def n(self):
        return self.vectors.shape[0]

    @property
    def d(self):
        return self.vectors.shape[1]

    def distance_matrix(self):
        """Pairwise Euclidean distances, exact zeros on the diagonal."""
        v = self.vectors
        sq = np.sum(v * v, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (v @ v.T)
        np.fill_diagonal(d2, 0.0)
        return np.sqrt(np.maximum(d2, 0.0))

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "d": self.d, "vectors": self.vectors.tolist()},
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "Embedding":
        doc = json.loads(text)
        v = np.asarray(doc["vectors"], dtype=float)
        if v.shape != (doc["n"], doc["d"]):
            raise ValueError(
                f"vector array shape {v.shape} does not match n={doc['n']}, d={doc['d']}"
            )
        return Embedding(v)


@dataclass(frozen=True)
class RelaxationParams:
    """Exponent p, checked to lie in (0, 2], and balance fraction c, whose
    rule is `graphs.require_balanced_sizes`."""

    p: float
    c: float

    def __post_init__(self):
        if not (0.0 < self.p <= 2.0):
            raise ValueError(f"p must lie in (0, 2], got {self.p}")


def _check_square_symmetric(a, name, tol=1e-10):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if np.max(np.abs(a - a.T), initial=0.0) > tol:
        raise ValueError(f"{name} must be symmetric")
    return a


@dataclass(frozen=True)
class GramForm:
    """Symmetric matrix of pairwise inner products x_ij = <v_i, v_j>."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "matrix", _check_square_symmetric(self.matrix, "Gram matrix")
        )

    @property
    def n(self):
        return self.matrix.shape[0]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "matrix": self.matrix.tolist()}, sort_keys=True)


@dataclass(frozen=True)
class ZForm:
    """Matrix with z_ij = 1 - x_ij; zero diagonal, entries in [0, 2]."""

    matrix: np.ndarray

    def __post_init__(self):
        z = _check_square_symmetric(self.matrix, "Z matrix").copy()
        np.fill_diagonal(z, 0.0)
        object.__setattr__(self, "matrix", z)


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint residuals in vector units: the largest unit-norm deviation,
    the largest violation of ||v_i - v_k||^p <= ||v_i - v_j||^p +
    ||v_j - v_k||^p, the spread's margin over 4c(1-c)n^2, and the smallest
    eigenvalue of the Gram matrix X = 1 - Z."""

    max_unit_violation: float
    max_triangle_violation: float
    spread_slack: float
    min_eigenvalue: float
    feasible: bool


def cut_to_embedding(g: Graph, s: Cut) -> Embedding:
    """One-dimensional +/-1 embedding: members of s at +1, the rest at -1."""
    s.validate(g)
    v = -np.ones((g.n, 1))
    for i in s.members:
        v[i, 0] = 1.0
    return Embedding(v)


def objective(g: Graph, e: Embedding, p: float) -> float:
    """(1/2^p) * sum over edges of ||v_i - v_j||^p."""
    ea = g.edge_array()
    if len(ea) == 0:
        return 0.0
    diff = e.vectors[ea[:, 0]] - e.vectors[ea[:, 1]]
    dist = np.linalg.norm(diff, axis=1)
    return float(np.sum(dist**p) / 2.0**p)


def check_feasibility(z, params: RelaxationParams, tol):
    """Residuals of a Z matrix, judged in Z units, where the solvers enforce
    their tolerance: norms sqrt(1 - z_ii) within TOL_UNIT of 1 (an
    embedding's Z is 1 minus its Gram matrix, diagonal kept), and within tol
    both sum_{i<j} z_ij >= 2c(1-c)n^2 and z_ik^{p/2} <= z_ij^{p/2} + z_jk^{p/2}
    (an exact n^3 scan); no eigenvalue of X = 1 - Z below -TOL_PSD.

    Reported in vector units, where ||v_i - v_j||^2 = 2 z_ij: the spread
    slack times 2 and the triangle violation times 2^{p/2}.
    """
    z = np.asarray(z, dtype=float)
    unit = float(np.max(np.abs(np.sqrt(np.maximum(1.0 - np.diag(z), 0.0)) - 1.0)))
    tri = max_triangle_violation_z(z, params.p)
    slack = spread_sum(z) - zform_spread_requirement(z.shape[0], params.c)
    min_eig = float(np.linalg.eigvalsh(1.0 - z)[0])
    ok = (
        unit <= TOL_UNIT
        and tri <= tol
        and slack >= -tol
        and min_eig >= -TOL_PSD
    )
    return FeasibilityReport(unit, 2.0 ** (params.p / 2.0) * tri, 2.0 * slack, min_eig, ok)


def gram_from_embedding(e: Embedding) -> GramForm:
    v = e.vectors
    x = v @ v.T
    x = (x + x.T) / 2.0
    return GramForm(x)


def embedding_from_gram(x: GramForm) -> Embedding:
    """Factor X into unit-ish vectors: eigenvalues in [-TOL_PSD, 0) clip to
    zero, anything below -TOL_PSD is rejected; the ambient dimension is the
    numerical rank (relative cutoff), so meaningful small directions survive."""
    w, q = np.linalg.eigh(x.matrix)
    if w[0] < -TOL_PSD:
        raise NotPsdError(f"minimum eigenvalue {w[0]:.3e} below -{TOL_PSD:.1e}")
    rank_floor = x.n * np.finfo(float).eps * max(float(w[-1]), 1.0)
    keep = w > rank_floor
    v = q[:, keep] * np.sqrt(w[keep])
    if v.shape[1] == 0:
        v = np.zeros((x.n, 1))
    return Embedding(v)


def z_from_gram(x: GramForm) -> ZForm:
    return ZForm(1.0 - x.matrix)


def gram_from_z(z: ZForm) -> GramForm:
    x = 1.0 - z.matrix
    return GramForm(x)


def objective_z(g: Graph, z: np.ndarray, p: float) -> float:
    """(1/2^(p/2)) * sum over edges of max(z_ij, 0)^(p/2) for an n x n Z
    array; equals the vector-form objective whenever z derives from an
    embedding.  Rejects an edge entry below -1e-9."""
    ea = g.edge_array()
    if len(ea) == 0:
        return 0.0
    vals = z[ea[:, 0], ea[:, 1]]
    if np.min(vals, initial=0.0) < -1e-9:
        raise ValueError(f"negative z entry {vals.min():.3e} outside tolerance")
    return float(np.sum(power_matrix(vals, p)) / 2.0 ** (p / 2.0))


def objective_gradient(g: Graph, z: np.ndarray, p: float):
    """Entrywise gradient of objective_z as a symmetric matrix (half weight
    per mirror entry), with the slope capped near z = 0.  At p = 2 it is the
    constant linear objective: 1/4 per mirror entry of each edge."""
    n = z.shape[0]
    grad = np.zeros((n, n))
    scale = (p / 2.0) / 2.0 ** (p / 2.0)
    for i, j in g.edges:
        coef = scale * max(float(z[i, j]), GRAD_FLOOR) ** (p / 2.0 - 1.0)
        grad[i, j] += coef / 2.0
        grad[j, i] += coef / 2.0
    return grad


def zform_spread_requirement(n: int, c: float) -> float:
    # Sum_{i<j} z_ij >= 2c(1-c)n^2, the Z-side equivalent of the vector bound
    # (z_ij is half the squared distance for unit vectors).
    return 2.0 * c * (1.0 - c) * n * n
