"""Deterministic graph builders for experiments and the acceptance corpus,
and the one loop that solves a corpus across an exponent grid."""

from __future__ import annotations

import numpy as np

from .concave import STARTS, solve_relaxation
from .graphs import Graph, exact_balanced_separator
from .sdp import solve_sdp


def cycle_graph(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def path_graph(n: int) -> Graph:
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def complete_graph(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, tuple(edges))


def induced_subgraph(g: Graph, vertices) -> Graph:
    keep = sorted(set(vertices))
    index = {v: k for k, v in enumerate(keep)}
    edges = tuple(
        (index[i], index[j]) for i, j in g.edges if i in index and j in index
    )
    return Graph(len(keep), edges)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return Graph(n, edges)


def acceptance_corpus():
    """The fixed soundness corpus: named small graphs, Petersen pieces, and ten
    seeded G(n, 1/2) samples with n cycling over 6, 8, 10."""
    pet = petersen_graph()
    named = [
        ("C4", cycle_graph(4)),
        ("C6", cycle_graph(6)),
        ("C8", cycle_graph(8)),
        ("P5", path_graph(5)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("K33", complete_bipartite(3, 3)),
        ("petersen8", induced_subgraph(pet, range(8))),
        ("petersen9", induced_subgraph(pet, range(9))),
        ("petersen10", pet),
    ]
    sizes = [6, 8, 10]
    for k in range(10):
        n = sizes[k % 3]
        named.append((f"gnp{n}_seed{k}", gnp_graph(n, 0.5, seed=k)))
    return named


def solve_corpus(graphs, c: float, exponents, *, seed: int = 0, starts: int = STARTS):
    """Solve every (name, graph) at every exponent in order.

    Yields (name, g, alpha, p, x, report): alpha is the exact c-balanced
    optimum, computed once per graph (None beyond the oracle's reach), and
    (x, report) is `solve_relaxation(g, c, p, seed=seed, starts=starts)`.
    The p = 2 program is solved once per graph, before its exponents, and
    handed to every solve of that graph: each p < 2 multistart starts from
    it, and gets the bits it would get by solving it again.
    """
    for name, g in graphs:
        exact = exact_balanced_separator(g, c)
        alpha = None if exact is None else exact[1]
        sdp = solve_sdp(g, c, seed=seed)
        for p in exponents:
            x, report = solve_relaxation(g, c, p, seed=seed, starts=starts, sdp=sdp)
            yield name, g, alpha, p, x, report
