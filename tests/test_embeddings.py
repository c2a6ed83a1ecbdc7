import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepkit import solver_core as core
from sepkit.corpus import cycle_graph, gnp_graph, path_graph
from sepkit.embeddings import (
    Embedding,
    GramForm,
    NotPsdError,
    RelaxationParams,
    ZForm,
    check_feasibility,
    cut_to_embedding,
    embedding_from_gram,
    gram_from_embedding,
    gram_from_z,
    objective,
    objective_gradient,
    objective_z,
    z_from_gram,
)
from sepkit.graphs import Cut, Graph, brute_force_cut_values
from sepkit.sdp import cut_z_matrix

P_GRID = (0.5, 1.0, 1.5, 2.0)
TOL = 1e-8  # triangle and spread tolerance of the embedding checks, in Z units


def check_embedding(e, params):
    """check_feasibility of an embedding's Z = 1 - X, diagonal kept, so the
    report reads the vector norms."""
    return check_feasibility(1.0 - gram_from_embedding(e).matrix, params, TOL)


def random_unit_vectors(n, d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_relaxation_params_validation():
    RelaxationParams(1.0, 0.25)
    with pytest.raises(ValueError):
        RelaxationParams(2.5, 0.25)
    with pytest.raises(ValueError):
        RelaxationParams(0.0, 0.25)


def test_cut_to_embedding():
    g = cycle_graph(4)
    e = cut_to_embedding(g, Cut({0, 1}))
    assert e.d == 1
    assert e.vectors[:, 0].tolist() == [1.0, 1.0, -1.0, -1.0]
    e_full = cut_to_embedding(g, Cut(range(4)))
    assert e_full.vectors[:, 0].tolist() == [1.0] * 4
    p3 = path_graph(3)
    assert cut_to_embedding(p3, Cut({1})).vectors[:, 0].tolist() == [-1.0, 1.0, -1.0]


def test_objective_on_cut_embedding_counts_crossing_edges():
    g = cycle_graph(4)
    e = cut_to_embedding(g, Cut({0, 1}))
    for p in P_GRID:
        assert objective(g, e, p) == pytest.approx(2.0, abs=1e-12)


def test_objective_single_edge_cases():
    g = Graph(2, ((0, 1),))
    antipodal = Embedding(np.array([[1.0], [-1.0]]))
    assert objective(g, antipodal, 1.0) == pytest.approx(1.0, abs=1e-12)
    same = Embedding(np.array([[1.0], [1.0]]))
    for p in P_GRID:
        assert objective(g, same, p) == 0.0


def test_balanced_cut_embedding_is_feasible():
    g = cycle_graph(8)
    params = RelaxationParams(1.0, 0.25)
    for members, _ in brute_force_cut_values(g, 0.25)[:20]:
        rep = check_embedding(cut_to_embedding(g, Cut(members)), params)
        assert rep.feasible
        assert rep.spread_slack >= 0.0


def test_scaled_vectors_unit_violation():
    params = RelaxationParams(1.0, 0.25)
    e = Embedding(0.5 * random_unit_vectors(5, 3, seed=1))
    rep = check_embedding(e, params)
    assert rep.max_unit_violation == pytest.approx(0.5)
    assert not rep.feasible


def test_p1_triangle_never_violated():
    # plain Euclidean triangle inequality, 1000 random triples
    params = RelaxationParams(1.0, 0.25)
    worst = 0.0
    for seed in range(1000):
        e = Embedding(random_unit_vectors(3, 3, seed))
        rep = check_embedding(e, params)
        worst = max(worst, rep.max_triangle_violation)
    assert worst <= 1e-12


def find_p2_violating_triple(seed=0, attempts=2000):
    """Random search for unit vectors feasible at p = 0.5 but not at p = 2.

    Going the other way is impossible: for p <= 1 the power triangle
    inequality follows from the Euclidean one by subadditivity.
    """
    rng = np.random.default_rng(seed)
    for _ in range(attempts):
        v = rng.standard_normal((3, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        e = Embedding(v)
        rep2 = check_embedding(e, RelaxationParams(2.0, 0.25))
        if rep2.max_triangle_violation > 1e-3:
            return e
    raise AssertionError("no violating triple found")


def test_triangle_check_is_exponent_specific():
    e = find_p2_violating_triple()
    rep_half = check_embedding(e, RelaxationParams(0.5, 0.25))
    rep_two = check_embedding(e, RelaxationParams(2.0, 0.25))
    assert rep_half.max_triangle_violation <= 1e-12
    assert rep_two.max_triangle_violation > 1e-3


def test_triangle_check_is_exact_beyond_64_vertices():
    # 120 unit vectors: three on a circle at 30, 0 and -30 degrees, the rest
    # orthonormal to them and to each other.  At p = 2 the only violated
    # ordered triples are (0, 1, 2) and (2, 1, 0): the obtuse angle at vertex 1
    n = 120
    v = np.zeros((n, n - 1))
    for i, deg in enumerate((30.0, 0.0, -30.0)):
        v[i, :2] = np.cos(np.radians(deg)), np.sin(np.radians(deg))
    v[3:, 2:] = np.eye(n - 3)
    _, codes = core.scan_triangle_violations(1.0 - v @ v.T, 2.0, 1e-9)
    assert codes.tolist() == [np.ravel_multi_index((0, 1, 2), (n, n, n))]
    # squared-distance violation -2 <v0 - v1, v2 - v1>
    s, c = np.sin(np.radians(30.0)), np.cos(np.radians(30.0))
    expected = 2.0 * (s * s - (1.0 - c) ** 2)
    rep = check_embedding(Embedding(v), RelaxationParams(2.0, 0.25))
    assert rep.max_triangle_violation == pytest.approx(expected, abs=1e-9)
    assert not rep.feasible


def test_z_report_flags_each_broken_constraint():
    # a cut Z is feasible; each broken constraint family is named, in vector
    # units (spread slack x2, triangle violation x2^{p/2})
    params = RelaxationParams(1.5, 0.25)
    cut = cut_z_matrix(cycle_graph(4), {0, 1})
    rep = check_feasibility(cut, params, 1e-6)
    assert rep.feasible
    assert rep.spread_slack == pytest.approx(2.0 * (8.0 - 6.0))

    # spread: halving the cut Z keeps X = 1 - Z a PSD block of ones and
    # every power triangle, but the pair sum drops from 8 to 4 < 6
    rep = check_feasibility(cut / 2.0, params, 1e-6)
    assert not rep.feasible
    assert rep.spread_slack == pytest.approx(2.0 * (4.0 - 6.0))
    assert rep.max_triangle_violation <= 1e-12
    assert rep.min_eigenvalue >= -1e-12

    # power triangle: turn vertex 1 to 60 degrees and vertex 2 to 120, so
    # ||v0 - v2||^2 = 3 and ||v0 - v1||^2 = ||v1 - v2||^2 = 1
    angles = np.radians([0.0, 60.0, 120.0, 180.0])
    v = np.column_stack([np.cos(angles), np.sin(angles)])
    bent = z_from_gram(gram_from_embedding(Embedding(v))).matrix
    rep = check_feasibility(bent, params, 1e-6)
    assert not rep.feasible
    assert rep.max_triangle_violation == pytest.approx(3.0**0.75 - 2.0, abs=1e-12)
    assert rep.spread_slack == pytest.approx(2.0 * (6.5 - 6.0), abs=1e-12)
    assert rep.min_eigenvalue >= -1e-12

    # PSD: make all four vertices pairwise antipodal; triangles and spread
    # still hold, but X = 2I - J has the eigenvalue -2
    apart = 2.0 * (1.0 - np.eye(4))
    rep = check_feasibility(apart, params, 1e-6)
    assert not rep.feasible
    assert rep.min_eigenvalue == pytest.approx(-2.0)
    assert rep.max_triangle_violation <= 1e-12
    assert rep.spread_slack == pytest.approx(2.0 * (12.0 - 6.0))


def test_gram_from_embedding_blocks():
    g = cycle_graph(4)
    x = gram_from_embedding(cut_to_embedding(g, Cut({0, 1})))
    assert x.matrix[0, 1] == 1.0
    assert x.matrix[2, 3] == 1.0
    assert x.matrix[0, 2] == -1.0
    ortho = Embedding(np.eye(3))
    assert np.array_equal(gram_from_embedding(ortho).matrix, np.eye(3))
    single = Embedding(np.array([[1.0]]))
    assert gram_from_embedding(single).matrix.tolist() == [[1.0]]


def test_embedding_from_gram_identity_and_ones():
    e = embedding_from_gram(GramForm(np.eye(3)))
    assert np.allclose(e.vectors @ e.vectors.T, np.eye(3), atol=1e-12)
    e1 = embedding_from_gram(GramForm(np.ones((4, 4))))
    assert e1.d == 1
    assert np.allclose(e1.vectors @ e1.vectors.T, np.ones((4, 4)), atol=1e-12)
    # rank 0: one zero coordinate per vertex, not an n x 0 array
    e0 = embedding_from_gram(GramForm(np.zeros((3, 3))))
    assert e0.vectors.shape == (3, 1)
    assert not e0.vectors.any()


def test_embedding_from_gram_rejects_indefinite():
    x = np.eye(3)
    x[0, 1] = x[1, 0] = 2.0  # eigenvalue -1
    with pytest.raises(NotPsdError):
        embedding_from_gram(GramForm(x))


@given(st.integers(2, 8), st.integers(1, 8), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_gram_roundtrip_preserves_inner_products(n, d, seed):
    v = random_unit_vectors(n, min(d, n), seed)
    x = gram_from_embedding(Embedding(v))
    e2 = embedding_from_gram(x)
    x2 = gram_from_embedding(e2)
    assert np.max(np.abs(x.matrix - x2.matrix)) <= 1e-6


def test_z_conversion_examples():
    z = z_from_gram(GramForm(np.eye(3)))
    assert np.array_equal(z.matrix, np.ones((3, 3)) - np.eye(3))
    g = cycle_graph(4)
    xcut = gram_from_embedding(cut_to_embedding(g, Cut({0, 1})))
    zcut = z_from_gram(xcut)
    assert zcut.matrix[0, 1] == 0.0
    assert zcut.matrix[0, 2] == 2.0
    # involution is exact on these matrices
    assert np.array_equal(gram_from_z(zcut).matrix, xcut.matrix)
    assert np.array_equal(
        gram_from_z(z_from_gram(GramForm(np.eye(3)))).matrix, np.eye(3)
    )


ASYMMETRIC = [[0.0, 1.0], [0.5, 0.0]]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Embedding.from_json('{"n": 3, "d": 1, "vectors": [[1.0], [-1.0]]}'),
         r"vector array shape \(2, 1\) does not match n=3, d=1"),
        (lambda: GramForm(np.ones((2, 3))), r"Gram matrix must be square, got shape \(2, 3\)"),
        (lambda: GramForm(np.ones(3)), r"Gram matrix must be square, got shape \(3,\)"),
        (lambda: GramForm(ASYMMETRIC), "Gram matrix must be symmetric"),
        (lambda: ZForm(np.zeros((3, 2))), r"Z matrix must be square, got shape \(3, 2\)"),
        (lambda: ZForm(ASYMMETRIC), "Z matrix must be symmetric"),
    ],
    ids=("embedding-shape", "gram-not-square", "gram-vector", "gram-asymmetric",
         "z-not-square", "z-asymmetric"),
)
def test_forms_reject_malformed_input(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_zform_forces_zero_diagonal():
    z = ZForm(np.array([[0.5, 1.0], [1.0, 0.5]]))
    assert z.matrix[0, 0] == 0.0
    assert z.matrix[1, 1] == 0.0


def test_objective_z_examples():
    g = cycle_graph(4)
    zcut = z_from_gram(gram_from_embedding(cut_to_embedding(g, Cut({0, 1}))))
    for p in P_GRID:
        assert objective_z(g, zcut.matrix, p) == pytest.approx(2.0, abs=1e-12)
    assert objective_z(g, np.zeros((4, 4)), 1.0) == 0.0
    single = Graph(2, ((0, 1),))
    z2 = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert objective_z(single, z2, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_objective_z_rejects_negative_entries():
    g = Graph(2, ((0, 1),))
    z = np.array([[0.0, -0.5], [-0.5, 0.0]])
    with pytest.raises(ValueError):
        objective_z(g, z, 1.0)


def test_objective_gradient_at_p2_is_the_linear_objective():
    # at p = 2 the gradient is the same at every z, 1/4 per mirror entry of
    # each edge, and <C, Z> is objective_z: the program solve_sdp minimizes
    g = gnp_graph(8, 0.5, 3)
    grads = []
    for seed in range(3):
        z = z_from_gram(gram_from_embedding(Embedding(random_unit_vectors(8, 4, seed)))).matrix
        c_mat = objective_gradient(g, z, 2.0)
        assert np.sum(c_mat * z) == pytest.approx(objective_z(g, z, 2.0), abs=1e-12)
        grads.append(c_mat)
    assert all(np.array_equal(grads[0], c_mat) for c_mat in grads)
    assert np.count_nonzero(grads[0]) == 2 * g.m
    assert set(np.unique(grads[0])) == {0.0, 0.25}


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_objective_equivalence_vector_vs_z(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    g = gnp_graph(n, 0.6, seed)
    e = Embedding(random_unit_vectors(n, n, seed + 1))
    z = z_from_gram(gram_from_embedding(e))
    for p in P_GRID:
        assert abs(objective(g, e, p) - objective_z(g, z.matrix, p)) <= 1e-8


def test_serialization_roundtrips():
    e = Embedding(random_unit_vectors(4, 3, seed=2))
    e2 = Embedding.from_json(e.to_json())
    assert np.array_equal(e.vectors, e2.vectors)
    x = gram_from_embedding(e)
    assert json.loads(x.to_json()) == {"n": 4, "matrix": x.matrix.tolist()}
