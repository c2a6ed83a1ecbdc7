"""Projection rounding: split an embedding along a random direction, delete
close cross pairs, and turn the separated sets into a balanced-ish cut via a
random distance threshold.  Also the Monte-Carlo check of the random-projection
tail bounds that the separation analysis leans on.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import Embedding, RelaxationParams, objective
from .graphs import Cut, Graph, cut_size, exact_balanced_separator, require_balanced_sizes


class RoundingError(RuntimeError):
    """The produced region violated a structural guarantee (S inside, T outside)."""


@dataclass(frozen=True)
class SetFindResult:
    success: bool
    s_side: tuple
    t_side: tuple
    halted: bool  # stopped at the size check before deletion
    deleted_pairs: tuple


def delta_target(n: int, p: float) -> float:
    """Separation target (ln n)^(-(1 + p/2)/3)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return math.log(n) ** (-(1.0 + p / 2.0) / 3.0)


def random_unit_vector(d: int, rng) -> np.ndarray:
    u = rng.standard_normal(d)
    return u / math.sqrt(u.dot(u))  # np.linalg.norm's own 1-D formula


def modified_set_find(
    e: Embedding,
    dist: np.ndarray,
    rng,
    *,
    delta: float,
    c_prime: float,
    sigma: float = 1.0,
    direction=None,
) -> SetFindResult:
    """One projection round, ARV's SET-FIND split around the origin: S' holds
    the projections >= sigma/(2 sqrt(d)) and T' those <= -sigma/(2 sqrt(d)).
    Then greedy pairwise deletion of cross pairs at distance dist[i, j] <=
    delta, where dist holds ||v_i - v_j||^p (`pipeline` builds it once per
    run).

    `direction` forces the projection direction (used by the deterministic
    fixtures); otherwise a uniform random unit vector is drawn from rng.
    Success means both sides still hold at least c'n vectors after deletion.
    """
    n, d = e.n, e.d
    u = np.asarray(direction, dtype=float) if direction is not None else random_unit_vector(d, rng)
    proj = e.vectors @ u
    margin = sigma / (2.0 * math.sqrt(d))
    s_prime = (proj >= margin).nonzero()[0].tolist()
    t_prime = (proj <= -margin).nonzero()[0].tolist()
    threshold = 2.0 * c_prime * n
    if len(s_prime) <= threshold or len(t_prime) <= threshold:
        return SetFindResult(
            success=False,
            s_side=tuple(s_prime),
            t_side=tuple(t_prime),
            halted=True,
            deleted_pairs=(),
        )
    alive_s = dict.fromkeys(s_prime, True)
    alive_t = dict.fromkeys(t_prime, True)
    deleted = []
    for i in s_prime:
        for j in t_prime:
            if alive_t[j] and dist[i, j] <= delta:
                alive_s[i] = alive_t[j] = False
                deleted.append((i, j))
                break
    s_side = tuple(i for i in s_prime if alive_s[i])
    t_side = tuple(j for j in t_prime if alive_t[j])
    return SetFindResult(
        success=len(s_side) >= c_prime * n and len(t_side) >= c_prime * n,
        s_side=s_side,
        t_side=t_side,
        halted=False,
        deleted_pairs=tuple(deleted),
    )


def check_separated(e: Embedding, s_side, t_side, p: float, delta: float):
    """True iff every cross pair is at ||.||^p distance >= delta; also returns
    the closest pair (None when a side is empty)."""
    if not s_side or not t_side:
        return True, None
    dist = e.distance_matrix() ** p
    block = dist[np.ix_(list(s_side), list(t_side))]
    k = np.unravel_index(np.argmin(block), block.shape)
    worst = (s_side[k[0]], t_side[k[1]])
    return bool(block[k] >= delta), worst


def produce_cut(g: Graph, dist: np.ndarray, s_side, t_side, delta: float, rng) -> Cut:
    """Threshold cut: weight each edge ij with dist[i, j] = ||v_i - v_j||^p and
    take V_r, the vertices within shortest-path distance r of the S side, for
    r uniform in [0, delta).

    Weights are unnormalized so that the power-triangle inequality makes every
    S-to-T path at least delta long; unreachable vertices count as infinitely
    far and land outside.  Raises RoundingError if T still intersects V_r.
    """
    if not s_side or not t_side:
        raise ValueError("both sides of the separation must be nonempty")
    adjacency = [[] for _ in range(g.n)]
    for i, j in g.edges:
        w = float(dist[i, j])
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    length = [math.inf] * g.n
    heap = []
    for s in s_side:
        length[s] = 0.0
        heapq.heappush(heap, (0.0, s))
    while heap:
        d0, v = heapq.heappop(heap)
        if d0 > length[v]:
            continue
        for w, wt in adjacency[v]:
            nd = d0 + wt
            if nd < length[w]:
                length[w] = nd
                heapq.heappush(heap, (nd, w))
    r = float(rng.uniform(0.0, delta))
    members = {v for v in range(g.n) if length[v] <= r}
    if not set(s_side) <= members:
        raise RoundingError("S side escaped the threshold region")
    if members & set(t_side):
        raise RoundingError(
            "T side entered the threshold region; separation or feasibility "
            "of the embedding must have been violated"
        )
    return Cut(members)


@dataclass(frozen=True)
class PipelineReport:
    relaxation_value: float
    cut_members: tuple | None
    cut_size: int | None
    balance: float | None
    ratio: float | None
    attempts: int
    succeeded: bool
    delta: float
    exact_value: int | None
    p: float
    c: float
    seed: int


@dataclass(frozen=True)
class PipelineOptions:
    """Settings of one pipeline run, checked here as they enter.  delta=None
    means delta_target(n, p); the set-find balance c' is always c/4."""

    delta: float | None = None
    sigma: float = 1.0
    retries: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.delta is not None and not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.retries < 1:
            raise ValueError(f"retries must be >= 1, got {self.retries}")


def attempt_rng(seed: int, attempt: int):
    """Independent, reproducible stream for one set-find attempt."""
    return np.random.default_rng([seed, 7_919, attempt])


def pipeline(
    g: Graph,
    c: float,
    p: float,
    opts: PipelineOptions = PipelineOptions(),
    *,
    embedding: Embedding,
    relaxation_value: float | None = None,
) -> PipelineReport:
    """Round the given embedding of g with repeated set-find attempts, and
    report the produced cut against the relaxation and the exact optimum.

    The embedding is a solver's output (`concave.solve_relaxation`, then
    `embeddings.embedding_from_gram`) or a stored copy of one; it must have
    one finite vector per vertex of g.  The relaxation value defaults to the
    embedding's own objective at exponent p; a given one that is negative,
    NaN or infinite is rejected.  c, balance and p are checked before any
    work, as the solvers check them.
    """
    require_balanced_sizes(g.n, c)
    RelaxationParams(p, c)
    if embedding.n != g.n:
        raise ValueError(f"embedding has {embedding.n} vectors, graph has {g.n} vertices")
    if not np.isfinite(embedding.vectors).all():
        raise ValueError("embedding vectors must all be finite")
    if relaxation_value is None:
        relaxation_value = objective(g, embedding, p)
    elif not 0.0 <= relaxation_value < math.inf:
        raise ValueError(f"relaxation value must be finite and >= 0, got {relaxation_value}")
    delta = opts.delta if opts.delta is not None else delta_target(g.n, p)

    oracle = exact_balanced_separator(g, c)  # None above the oracle's reach
    exact = None if oracle is None else oracle[1]

    dist = embedding.distance_matrix() ** p
    cut, attempts = None, opts.retries
    for attempt in range(opts.retries):
        rng = attempt_rng(opts.seed, attempt)
        found = modified_set_find(
            embedding, dist, rng, delta=delta, c_prime=c / 4.0, sigma=opts.sigma
        )
        if found.success:
            cut = produce_cut(g, dist, found.s_side, found.t_side, delta, rng)
            attempts = attempt + 1
            break

    members = size = balance = ratio = None
    if cut is not None:
        members = cut.sorted_members()
        size = cut_size(g, cut)
        k = len(members)
        balance = min(k, g.n - k) / g.n
        denom = max(relaxation_value, exact) if exact is not None else relaxation_value
        ratio = size / denom if denom > 0 else (math.inf if size > 0 else 1.0)
    return PipelineReport(
        relaxation_value=relaxation_value,
        cut_members=members,
        cut_size=size,
        balance=balance,
        ratio=ratio,
        attempts=attempts,
        succeeded=cut is not None,
        delta=delta,
        exact_value=exact,
        p=p,
        c=c,
        seed=opts.seed,
    )


@dataclass(frozen=True)
class ProjectionTestResult:
    empirical_low: float  # Pr{|<v,u>| <= x / sqrt(d)}
    empirical_high: float  # Pr{|<v,u>| >= x / sqrt(d)}
    bound_low: float | None  # 3x, valid for x < 1
    bound_high: float | None  # e^{-x^2/4}, valid for x <= sqrt(d)/4


def gaussian_projection_test(
    d: int, x: float, samples: int = 100_000, seed: int = 0
) -> ProjectionTestResult:
    """Monte-Carlo estimate of both projection probabilities for a fixed
    unit vector v in R^d against uniform random unit directions u.  The
    vector's length cancels: |<v,u>| <= x l/sqrt(d) exactly when
    |<v/l,u>| <= x/sqrt(d).  Bounds outside their validity range come back
    as None."""
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    if samples < 10_000:
        raise ValueError("need at least 10^4 samples for a meaningful estimate")
    if not x >= 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((samples, d))
    norms = np.linalg.norm(u, axis=1)
    dots = np.abs(u[:, 0] / norms)
    thr = x / math.sqrt(d)
    emp_low = float(np.mean(dots <= thr))
    emp_high = float(np.mean(dots >= thr))
    bound_low = 3.0 * x if x < 1.0 else None
    bound_high = math.exp(-x * x / 4.0) if 0.0 < x <= math.sqrt(d) / 4.0 else None
    return ProjectionTestResult(
        empirical_low=emp_low,
        empirical_high=emp_high,
        bound_low=bound_low,
        bound_high=bound_high,
    )
