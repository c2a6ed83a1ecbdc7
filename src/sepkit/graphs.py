"""Undirected simple graphs, cuts, and the exact balanced-separator oracle."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

BRUTE_FORCE_CAP = 20


class GraphParseError(ValueError):
    """Malformed edge-list or DIMACS input."""


class InfeasibleBalanceError(ValueError):
    """No subset size satisfies cn < |S| < (1-c)n."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a canonical edge tuple."""

    n: int
    edges: tuple = field(default=())

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        canon = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop ({i},{i}) not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i},{j}) out of range for n={self.n}")
            canon.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self):
        return len(self.edges)

    def edge_array(self):
        """Edges as an (m, 2) int array; (0, 2) when there are none."""
        if not self.edges:
            return np.zeros((0, 2), dtype=np.int64)
        return np.asarray(self.edges, dtype=np.int64)


@dataclass(frozen=True)
class Cut:
    """A vertex subset; the complement side is implied."""

    members: frozenset

    def __init__(self, members):
        object.__setattr__(self, "members", frozenset(members))

    def sorted_members(self):
        return tuple(sorted(self.members))

    def validate(self, g: Graph):
        for v in self.members:
            if not (0 <= v < g.n):
                raise ValueError(f"cut member {v} out of range for n={g.n}")


def _ints(fields, lineno, what):
    """The fields as ints; GraphParseError "line {lineno}: {what}" when one
    is not an integer."""
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise GraphParseError(f"line {lineno}: {what}") from None


def load_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then "i j" lines.

    '#' lines are comments. The declared edge count is advisory; duplicate
    edges collapse. Errors name the offending 1-based line number.
    """
    lines = text.splitlines()
    header = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphParseError(f"line {lineno}: header must be 'n m', got {raw!r}")
            n, m = _ints(parts, lineno, "header must be two integers")
            if n < 1 or m < 0:
                raise GraphParseError(f"line {lineno}: need n >= 1 and m >= 0")
            header = (n, m)
            continue
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: edge line must be 'i j', got {raw!r}")
        i, j = _ints(parts, lineno, "edge endpoints must be integers")
        n = header[0]
        if not (0 <= i < n and 0 <= j < n):
            bad = i if not (0 <= i < n) else j
            raise GraphParseError(f"line {lineno}: vertex {bad} out of range [0, {n})")
        if i == j:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {i}")
        edges.append((i, j))
    if header is None:
        raise GraphParseError("empty input: missing 'n m' header")
    return Graph(header[0], tuple(edges))


def dump_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{i} {j}" for i, j in g.edges]
    return "\n".join(lines) + "\n"


def load_dimacs(text: str) -> Graph:
    """Parse DIMACS ('c' comments, 'p edge n m', 'e i j' 1-based) into a Graph."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError(f"line {lineno}: second problem line")
            if len(parts) < 4:
                raise GraphParseError(f"line {lineno}: malformed problem line {raw!r}")
            n, _ = _ints(parts[2:4], lineno, "'p edge n m' needs integers")
            if n < 1:
                raise GraphParseError(f"line {lineno}: vertex count must be positive, got {n}")
        elif parts[0] == "e":
            if n is None:
                raise GraphParseError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise GraphParseError(f"line {lineno}: edge line must be 'e i j'")
            i, j = (k - 1 for k in _ints(parts[1:], lineno, "edge endpoints must be integers"))
            if not (0 <= i < n and 0 <= j < n):
                raise GraphParseError(f"line {lineno}: vertex id out of range")
            if i == j:
                raise GraphParseError(f"line {lineno}: self-loop at vertex {i + 1}")
            edges.append((i, j))
        else:
            raise GraphParseError(f"line {lineno}: unrecognized line {raw!r}")
    if n is None:
        raise GraphParseError("missing 'p edge n m' line")
    return Graph(n, tuple(edges))


def cut_size(g: Graph, s: Cut) -> int:
    """Number of edges with exactly one endpoint in s."""
    s.validate(g)
    mem = s.members
    return sum((i in mem) != (j in mem) for i, j in g.edges)


def balanced_size_range(n: int, c) -> range:
    """Integer sizes s with cn < s < (1-c)n, computed in exact arithmetic."""
    cf = Fraction(c)
    lo_excl = cf * n
    hi_excl = (1 - cf) * n
    lo = int(lo_excl) + 1  # smallest integer strictly above lo_excl
    hi = int(hi_excl) - 1 if hi_excl.denominator == 1 else int(hi_excl)
    # clamp to proper nonempty subsets
    lo = max(lo, 1)
    hi = min(hi, n - 1)
    return range(lo, hi + 1)


def require_balanced_sizes(n: int, c) -> range:
    """The rule for c: ValueError unless c lies in (0, 1/2] (NaN and +-inf
    included), then `balanced_size_range(n, c)`, raising
    InfeasibleBalanceError when it is empty.  The exact oracle, every solver
    and the rounding pipeline check an instance with it before any work."""
    if not 0.0 < c <= 0.5:
        raise ValueError(f"c must lie in (0, 1/2], got {c}")
    sizes = balanced_size_range(n, c)
    if len(sizes) == 0:
        raise InfeasibleBalanceError(f"no size s with cn < s < (1-c)n for c={c}, n={n}")
    return sizes


def is_c_balanced(g: Graph, s: Cut, c) -> bool:
    """Strict balance test cn < |S| < (1-c)n, by `balanced_size_range`."""
    s.validate(g)
    return len(s.members) in balanced_size_range(g.n, c)


def cap_error(n):
    """The error for n beyond BRUTE_FORCE_CAP, as `sepkit exact` reports it."""
    return ValueError(f"n={n} exceeds the exact oracle's cap {BRUTE_FORCE_CAP}")


def subset_cut_table(g: Graph):
    """Size and cut value of every vertex subset, indexed by bitmask (bit v
    set when v is a member); returns (sizes, values) as two arrays of length
    2^n, or None when n exceeds BRUTE_FORCE_CAP: the one test of the reach of
    the oracle, `brute_force_cut_values` and the concave start pool.

    Built one vertex at a time: the table over {0..v-1} doubles, the upper
    half holding the subsets that gain v.  When v joins a subset m, the cut
    gains the lower neighbours of v outside m; when v stays out, it gains
    the lower neighbours inside m.
    """
    if g.n > BRUTE_FORCE_CAP:
        return None
    lower = [[] for _ in range(g.n)]
    for i, j in g.edges:
        lower[j].append(i)
    sizes = np.zeros(1, dtype=np.uint8)
    values = np.zeros(1, dtype=np.int32)
    for v in range(g.n):
        masks = np.arange(1 << v, dtype=np.int32)
        inside = np.zeros(1 << v, dtype=np.int32)
        for u in lower[v]:
            inside += (masks >> u) & 1
        sizes = np.concatenate([sizes, sizes + 1])
        values = np.concatenate([values + inside, values + (len(lower[v]) - inside)])
    return sizes, values


def lex_rank(masks, n):
    """Position of each nonempty subset of {0..n-1}, given by an int64 array
    of bitmasks, in the order of sorted member tuples (the empty tuple is 0):
    the one order of balanced cuts.  Before S = {a_1 < ... < a_k} come its k
    proper prefixes and, for each non-member t < a_k, the 2^(n-1-t) subsets
    that agree with S below t and hold t; with r the mask reversed within n
    bits, that is |S| + 2^n - r - (r & -r)."""
    bits = (np.arange(256)[:, None] >> np.arange(8)) & 1  # of every byte
    popcount, reverse = bits.sum(axis=1), bits @ (1 << np.arange(7, -1, -1))
    size = rev = 0
    for shift in range(0, n, 8):
        byte = (masks >> shift) & 255
        size = size + np.take(popcount, byte)
        rev = rev << 8 | np.take(reverse, byte)
    rev >>= -n % 8  # reversed within whole bytes, then within n bits
    return size + (1 << n) - rev - (rev & -rev)


def mask_members(mask, n):
    """Sorted member tuple of a subset of {0..n-1} given by bitmask."""
    return tuple(v for v in range(n) if mask >> v & 1)


def exact_balanced_separator(g: Graph, c):
    """Exhaustive minimum c-balanced cut; ties broken by lexicographically
    smallest member set.  Returns (Cut, value), or None beyond the reach of
    `subset_cut_table`.  The instance is checked first, at every n."""
    sizes = require_balanced_sizes(g.n, c)
    table = subset_cut_table(g)
    if table is None:
        return None
    set_sizes, values = table
    keep = (set_sizes >= sizes.start) & (set_sizes < sizes.stop)
    best = int(values[keep].min())
    winners = np.flatnonzero(keep & (values == best))
    return Cut(mask_members(winners[np.argmin(lex_rank(winners, g.n))], g.n)), best


def brute_force_cut_values(g: Graph, c):
    """All (members, value) pairs over c-balanced subsets, by size and then
    lexicographically, read from `subset_cut_table`; `cap_error` beyond its
    reach.  Used to draw feasible points in the verify suites."""
    table = subset_cut_table(g)
    if table is None:
        raise cap_error(g.n)
    set_sizes, values = table
    sizes = balanced_size_range(g.n, c)
    masks = np.flatnonzero((set_sizes >= sizes.start) & (set_sizes < sizes.stop))
    masks = masks[np.lexsort((lex_rank(masks, g.n), set_sizes[masks]))]
    return [(mask_members(m, g.n), int(values[m])) for m in masks]
