from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepkit.graphs import (
    BRUTE_FORCE_CAP,
    Cut,
    Graph,
    GraphParseError,
    InfeasibleBalanceError,
    balanced_size_range,
    cut_size,
    exact_balanced_separator,
    is_c_balanced,
    load_dimacs,
    load_graph,
    subset_cut_table,
)
from sepkit.corpus import complete_graph, cycle_graph, gnp_graph, path_graph


def test_load_c4():
    g = load_graph("4 4\n0 1\n1 2\n2 3\n3 0")
    assert g.n == 4
    assert g.m == 4
    assert (0, 3) in g.edges


def test_load_collapses_duplicates():
    g = load_graph("2 1\n0 1\n0 1")
    assert g.m == 1


def test_load_ignores_comments_and_blank_lines():
    g = load_graph("# cycle\n3 2\n\n0 1\n# middle\n1 2\n")
    assert g.m == 2


def test_load_out_of_range_names_line():
    with pytest.raises(GraphParseError, match="line 2.*5"):
        load_graph("3 1\n0 5")


def test_load_self_loop_rejected():
    with pytest.raises(GraphParseError, match="self-loop"):
        load_graph("3 1\n1 1")


def test_load_malformed_line():
    with pytest.raises(GraphParseError, match="line 2"):
        load_graph("3 1\n0 1 2")


def test_load_missing_header():
    with pytest.raises(GraphParseError):
        load_graph("# nothing\n")


@pytest.mark.parametrize(
    "text, message",
    [
        # a second problem line neither shrinks n under an earlier edge ...
        ("p edge 5 1\ne 4 5\np edge 3 0", "line 3: second problem line"),
        # ... nor silently adds vertices
        ("p edge 3 1\ne 1 2\np edge 5 0", "line 3: second problem line"),
        ("c empty\np edge 0 0", "line 2: vertex count must be positive, got 0"),
        ("c short\np edge 3", "line 2: malformed problem line 'p edge 3'"),
        ("e 1 2\np edge 3 1", "line 1: edge before problem line"),
        ("p edge 3 1\ne 1 2 3", "line 2: edge line must be 'e i j'"),
        ("p edge 3 1\n\ne 2 2", "line 3: self-loop at vertex 2"),
        ("p edge 3 1\nx 1 2", "line 2: unrecognized line 'x 1 2'"),
        ("c only comments\n", "missing 'p edge n m' line"),
    ],
    ids=("second-p-smaller", "second-p-larger", "zero-vertices", "short-p", "edge-before-p",
         "edge-fields", "self-loop", "unrecognized", "no-p"),
)
def test_load_dimacs_problem_line_errors_name_the_line(text, message):
    with pytest.raises(GraphParseError, match=f"^{message}$"):
        load_dimacs(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("# n m\n3 1 2\n0 1", "line 2: header must be 'n m', got '3 1 2'"),
        ("3 x\n0 1", "line 1: header must be two integers"),
        ("0 0", "line 1: need n >= 1 and m >= 0"),
        ("3 -1", "line 1: need n >= 1 and m >= 0"),
        ("3 1\n\n0 b", "line 3: edge endpoints must be integers"),
    ],
    ids=("header-fields", "header-not-int", "zero-vertices", "negative-edges", "edge-not-int"),
)
def test_load_graph_errors_name_the_line(text, message):
    with pytest.raises(GraphParseError, match=f"^{message}$"):
        load_graph(text)


def test_cut_size_examples():
    c4 = cycle_graph(4)
    assert cut_size(c4, Cut({0, 1})) == 2
    assert cut_size(c4, Cut(set())) == 0
    assert cut_size(c4, Cut({0, 2})) == 4


graphs = st.integers(2, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] != e[1]
            )
        ),
    )
)


@given(graphs, st.data())
@settings(max_examples=200, deadline=None)
def test_cut_size_symmetric_under_complement(gn, data):
    n, edges = gn
    g = Graph(n, tuple(edges))
    members = data.draw(st.sets(st.integers(0, n - 1)))
    s = Cut(members)
    assert cut_size(g, s) == cut_size(g, Cut(set(range(n)) - members))


def test_balance_boundaries_strict():
    g = cycle_graph(4)
    assert is_c_balanced(g, Cut({0, 1}), 0.25)
    assert not is_c_balanced(g, Cut({0}), 0.25)
    assert not is_c_balanced(g, Cut({0, 1, 2}), 0.25)


def test_balanced_size_range_examples():
    assert list(balanced_size_range(4, 0.25)) == [2]
    assert list(balanced_size_range(3, 0.25)) == [1, 2]
    assert list(balanced_size_range(2, 0.6)) == []


def naive_min_balanced_cut(g, c):
    """Reference oracle: pure-Python enumeration, independent of the bitmask
    implementation under test."""
    best = None
    for k in balanced_size_range(g.n, c):
        for sub in combinations(range(g.n), k):
            v = cut_size(g, Cut(sub))
            key = (v, sub)
            if best is None or key < best:
                best = key
    return best


def test_exact_c4():
    cut, value = exact_balanced_separator(cycle_graph(4), 0.25)
    assert value == 2
    assert is_c_balanced(cycle_graph(4), cut, 0.25)


def test_exact_k4():
    _, value = exact_balanced_separator(complete_graph(4), 0.25)
    assert value == 4


def test_exact_p3():
    _, value = exact_balanced_separator(path_graph(3), 0.25)
    assert value == 1


@given(graphs)
@settings(max_examples=100, deadline=None)
def test_exact_matches_naive_enumeration(gn):
    n, edges = gn
    g = Graph(n, tuple(edges))
    if len(balanced_size_range(n, 0.25)) == 0:
        return
    cut, value = exact_balanced_separator(g, 0.25)
    best_value, best_members = naive_min_balanced_cut(g, 0.25)
    assert value == best_value
    assert cut.sorted_members() == best_members  # lexicographic tie-break
    assert is_c_balanced(g, cut, 0.25)


@pytest.mark.parametrize("n, seed", [(16, 0), (18, 1)])
def test_subset_cut_table_matches_cut_size(n, seed):
    # beyond the hypothesis sizes: sampled bitmasks against the set-based count
    g = gnp_graph(n, 0.3, seed)
    sizes, values = subset_cut_table(g)
    assert len(sizes) == len(values) == 1 << n
    rng = np.random.default_rng(seed)
    for mask in [0, (1 << n) - 1] + rng.integers(0, 1 << n, size=2000).tolist():
        members = [v for v in range(n) if mask >> v & 1]
        assert sizes[mask] == len(members)
        assert values[mask] == cut_size(g, Cut(members))


def test_exact_infeasible_balance():
    # c = 1/2 is a valid fraction that leaves no size strictly inside (n/2, n/2)
    with pytest.raises(InfeasibleBalanceError):
        exact_balanced_separator(Graph(2, ((0, 1),)), 0.5)


def test_exact_cap():
    # beyond its reach the oracle answers None; the instance is still checked
    g = Graph(BRUTE_FORCE_CAP + 1)
    assert exact_balanced_separator(g, 0.25) is None
    with pytest.raises(ValueError, match="c must lie"):
        exact_balanced_separator(g, 0.0)
    assert exact_balanced_separator(cycle_graph(BRUTE_FORCE_CAP), 0.25)[1] == 2


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError, match="^vertex count must be positive, got 0$"):
        Graph(0)
    with pytest.raises(ValueError, match="^cut member 3 out of range for n=3$"):
        cut_size(Graph(3, ((0, 1),)), Cut({0, 3}))
