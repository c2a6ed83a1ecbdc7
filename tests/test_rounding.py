import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sepkit.concave import solve_relaxation
from sepkit.corpus import cycle_graph, gnp_graph
from sepkit.embeddings import Embedding, cut_to_embedding, embedding_from_gram
from sepkit.graphs import Cut, Graph, InfeasibleBalanceError
from sepkit.rounding import (
    PipelineOptions,
    RoundingError,
    SetFindResult,
    attempt_rng,
    check_separated,
    delta_target,
    gaussian_projection_test,
    modified_set_find,
    pipeline,
    produce_cut,
    random_unit_vector,
)

ANTIPODAL = Embedding(np.array([[1.0]] * 4 + [[-1.0]] * 4))
FIXTURE_PARAMS = {"delta": 1.0, "sigma": 0.5, "c_prime": 1 / 8}
# set-find and produce_cut read ||v_i - v_j||^p; every table here is at p = 1
ANTIPODAL_DIST = ANTIPODAL.distance_matrix()


def test_delta_target_examples():
    assert delta_target(2981, 1.0) == pytest.approx(8.0**-0.5, abs=2e-6)
    assert delta_target(2981, 2.0) == pytest.approx(8.0 ** (-2 / 3), abs=2e-6)
    with pytest.raises(ValueError):
        delta_target(1, 1.0)


def test_delta_target_strictly_decreasing_in_n_and_p():
    ns = [4, 10, 100, 10_000, 1_000_000]
    ps = [0.25, 0.5, 1.0, 1.5, 2.0]
    for p in ps:
        vals = [delta_target(n, p) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))
    for n in ns:
        vals = [delta_target(n, p) for p in ps]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_set_find_fixture_antipodal_success():
    res = modified_set_find(
        ANTIPODAL, ANTIPODAL_DIST, np.random.default_rng(0), **FIXTURE_PARAMS, direction=[1.0]
    )
    assert res.success
    assert res.s_side == (0, 1, 2, 3)
    assert res.t_side == (4, 5, 6, 7)
    assert res.deleted_pairs == ()


def test_set_find_fixture_identical_vectors_fail():
    # every projection is 1, above the origin's margin: T' is empty
    e = Embedding(np.ones((8, 1)))
    res = modified_set_find(
        e, e.distance_matrix(), np.random.default_rng(0), **FIXTURE_PARAMS, direction=[1.0]
    )
    assert not res.success
    assert res.halted
    assert res.s_side == tuple(range(8))
    assert res.t_side == ()


def test_set_find_splits_unequal_clusters_at_the_origin():
    # the +-1 cut embedding with sides 6 and 2, the p = 2 solution of
    # gnp8_seed4: a median split would centre on the larger side (median 1)
    # and leave S' empty
    e = Embedding(np.array([[1.0]] * 6 + [[-1.0]] * 2))
    res = modified_set_find(
        e, e.distance_matrix() ** 2, np.random.default_rng(0),
        delta=delta_target(8, 2.0), c_prime=1 / 16, sigma=1.0, direction=[1.0],
    )
    assert res.success
    assert res.s_side == (0, 1, 2, 3, 4, 5)
    assert res.t_side == (6, 7)
    assert res.deleted_pairs == ()


def test_set_find_fixture_overlarge_delta_deletes_everything():
    params = {**FIXTURE_PARAMS, "delta": 2.0 + 0.1}
    res = modified_set_find(
        ANTIPODAL, ANTIPODAL_DIST, np.random.default_rng(0), **params, direction=[1.0]
    )
    assert not res.success
    assert not res.halted
    assert res.s_side == ()
    assert res.t_side == ()
    assert len(res.deleted_pairs) == 4


def test_set_find_requires_explicit_thresholds():
    # delta and c_prime have no defaults: set-find never runs on a guess
    rng = np.random.default_rng(0)
    for kwargs in ({}, {"delta": 1.0}, {"c_prime": 1 / 8}):
        with pytest.raises(TypeError):
            modified_set_find(ANTIPODAL, ANTIPODAL_DIST, rng, **kwargs)
    # the pipeline's settings are checked where they enter
    for field, bad in (("delta", 0.0), ("delta", math.nan), ("delta", math.inf),
                       ("sigma", -1.0), ("sigma", math.nan), ("sigma", math.inf)):
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            PipelineOptions(**{field: bad})


def test_set_find_success_is_separated():
    rng_master = np.random.default_rng(42)
    params = {"delta": 0.5, "sigma": 1.0, "c_prime": 1 / 16}
    successes = 0
    for trial in range(500):
        n = int(rng_master.integers(6, 13))
        v = rng_master.standard_normal((n, n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        e = Embedding(v)
        res = modified_set_find(e, e.distance_matrix(), np.random.default_rng(trial), **params)
        if res.success:
            successes += 1
            ok, worst = check_separated(e, res.s_side, res.t_side, 1.0, params["delta"])
            assert ok, worst
            assert len(res.s_side) >= params["c_prime"] * n
            assert len(res.t_side) >= params["c_prime"] * n
    assert successes > 0


def reference_set_find(e, dist, rng, *, delta, c_prime, sigma=1.0, direction=None):
    """modified_set_find as written with per-index comprehensions and
    np.linalg.norm: the reference its results must match bit for bit."""
    n, d = e.n, e.d
    if direction is not None:
        u = np.asarray(direction, dtype=float)
    else:
        u = rng.standard_normal(d)
        u = u / np.linalg.norm(u)
    proj = e.vectors @ u
    margin = sigma / (2.0 * math.sqrt(d))
    s_prime = [i for i in range(n) if proj[i] >= margin]
    t_prime = [i for i in range(n) if proj[i] <= -margin]
    threshold = 2.0 * c_prime * n
    if len(s_prime) <= threshold or len(t_prime) <= threshold:
        return SetFindResult(False, tuple(s_prime), tuple(t_prime), True, ())
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
    success = len(s_side) >= c_prime * n and len(t_side) >= c_prime * n
    return SetFindResult(success, s_side, t_side, False, tuple(deleted))


@st.composite
def set_find_cases(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.integers(1, n))
    kind = draw(st.sampled_from(["random", "rounded", "clusters", "nan-row"]))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v = gen.standard_normal((n, d))
    if kind == "rounded":  # tied projections, on the margins too
        v = np.round(v)
    elif kind == "clusters":
        k = draw(st.integers(0, n))
        centre = gen.standard_normal(d)
        v = 0.05 * v + np.where(np.arange(n)[:, None] < k, centre, -centre)
    elif kind == "nan-row":
        v[draw(st.integers(0, n - 1))] = np.nan
    direction = None
    if draw(st.booleans()):
        direction = gen.standard_normal(d)
        if kind == "rounded":
            direction = np.round(direction)
    params = {
        "delta": draw(st.sampled_from([0.05, 0.5, 1.0, 2.0, 4.0])),
        "c_prime": draw(st.sampled_from([1 / 16, 1 / 8, 1 / 4])),
        "sigma": draw(st.sampled_from([0.1, 0.5, 1.0, 2.0])),
    }
    p = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return Embedding(v), p, direction, params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=400, deadline=None)
@given(set_find_cases())
def test_set_find_matches_reference_bit_for_bit(case):
    e, p, direction, params, seed = case
    dist = e.distance_matrix() ** p
    got = modified_set_find(e, dist, np.random.default_rng(seed), direction=direction, **params)
    want = reference_set_find(e, dist, np.random.default_rng(seed), direction=direction, **params)
    assert got == want
    indices = got.s_side + got.t_side + sum(got.deleted_pairs, ())
    assert all(type(i) is int for i in indices)
    u = random_unit_vector(e.d, np.random.default_rng(seed))
    ref = np.random.default_rng(seed).standard_normal(e.d)
    assert u.tobytes() == (ref / np.linalg.norm(ref)).tobytes()


def test_check_separated_examples():
    ok, worst = check_separated(ANTIPODAL, (0, 1, 2, 3), (4, 5, 6, 7), 1.0, 2.0)
    assert ok
    assert worst == (0, 4)
    ok, _ = check_separated(ANTIPODAL, (0, 1, 2, 3), (4, 5, 6, 7), 1.0, 2.01)
    assert not ok
    ok, worst = check_separated(ANTIPODAL, (0, 1), (), 1.0, 99.0)
    assert ok and worst is None


def test_produce_cut_recovers_c4_cut():
    g = cycle_graph(4)
    e = cut_to_embedding(g, Cut({0, 1}))
    for seed in range(10):
        cut = produce_cut(g, e.distance_matrix(), (0, 1), (2, 3), 1.0, np.random.default_rng(seed))
        assert cut.sorted_members() == (0, 1)


def test_produce_cut_zero_radius_keeps_zero_distance_vertices():
    g = Graph(3, ((0, 1),))  # vertex 2 isolated
    e = Embedding(np.array([[1.0], [1.0], [-1.0]]))

    class ZeroRng:
        def uniform(self, lo, hi):
            return 0.0

    cut = produce_cut(g, e.distance_matrix(), (0,), (2,), 1.0, ZeroRng())
    # vertex 1 sits at distance 0 from vertex 0; the isolated vertex is
    # unreachable and stays outside
    assert cut.sorted_members() == (0, 1)


def test_produce_cut_isolated_vertex_excluded():
    g = Graph(4, ((0, 1), (1, 2)))
    e = Embedding(np.array([[1.0], [1.0], [1.0], [-1.0]]))
    cut = produce_cut(g, e.distance_matrix(), (0, 1, 2), (3,), 0.5, np.random.default_rng(0))
    assert cut.sorted_members() == (0, 1, 2)


def test_produce_cut_rejects_empty_side():
    g = cycle_graph(4)
    e = cut_to_embedding(g, Cut({0, 1}))
    with pytest.raises(ValueError):
        produce_cut(g, e.distance_matrix(), (0,), (), 1.0, np.random.default_rng(0))


def test_produce_cut_detects_bad_separation():
    # claim separation that the embedding does not deliver: T at distance 0
    g = Graph(2, ((0, 1),))
    e = Embedding(np.array([[1.0], [1.0]]))
    with pytest.raises(RoundingError):
        produce_cut(g, e.distance_matrix(), (0,), (1,), 1.0, np.random.default_rng(0))


def solved(g, c, p, seed):
    """pipeline's inputs as `sepkit pipeline` makes them without --embedding:
    the embedding and value of the solve at the rounding seed."""
    x, rep = solve_relaxation(g, c, p, seed=seed)
    return {"embedding": embedding_from_gram(x), "relaxation_value": rep.value}


def test_pipeline_c4_p2():
    g = cycle_graph(4)
    rep = pipeline(g, 0.25, 2.0, PipelineOptions(seed=11), **solved(g, 0.25, 2.0, 11))
    assert rep.succeeded
    n = 4
    c_prime = 0.25 / 4
    assert len(rep.cut_members) >= c_prime * n
    assert n - len(rep.cut_members) >= c_prime * n
    assert rep.ratio >= 1.0 - 1e-9  # every cut of a cycle has size >= alpha
    assert rep.exact_value == 2


def test_pipeline_c8_p1():
    g = cycle_graph(8)
    rep = pipeline(g, 0.25, 1.0, PipelineOptions(seed=3), **solved(g, 0.25, 1.0, 3))
    assert rep.succeeded
    assert rep.cut_size >= 2
    assert rep.ratio >= 1.0 - 1e-9
    assert math.isfinite(rep.ratio)


def test_pipeline_rounds_given_embedding_without_value():
    # the embedding is rounded as given and the value is its own objective,
    # not that of a fresh solve
    g = cycle_graph(8)
    e = cut_to_embedding(g, Cut({0, 1, 2, 3}))
    rep = pipeline(g, 0.25, 1.0, PipelineOptions(seed=3), embedding=e)
    assert rep.relaxation_value == pytest.approx(2.0, abs=1e-12)
    assert rep.succeeded
    assert rep.cut_members == (0, 1, 2, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pipeline_rejects_non_finite_embedding(bad):
    # a NaN coordinate would fail every attempt and report NaN as the value
    g = cycle_graph(8)
    v = cut_to_embedding(g, Cut({0, 1, 2, 3})).vectors.copy()
    v[5, 0] = bad
    with pytest.raises(ValueError, match="embedding vectors must all be finite"):
        pipeline(g, 0.25, 1.0, embedding=Embedding(v))


def test_pipeline_infeasible_balance():
    # c = 1/2 is a valid fraction that leaves no size strictly inside (n/2, n/2)
    with pytest.raises(InfeasibleBalanceError):
        pipeline(Graph(2, ((0, 1),)), 0.5, 1.0, embedding=Embedding(np.eye(2)))


def test_pipeline_failure_is_report_not_error():
    # sigma so large that no projection can pass the margin test
    opts = PipelineOptions(sigma=100.0, retries=3, seed=0)
    g = cycle_graph(6)
    rep = pipeline(g, 0.25, 2.0, opts, **solved(g, 0.25, 2.0, 0))
    assert not rep.succeeded
    assert rep.cut_members is None
    assert rep.attempts == 3


def test_pipeline_balance_propagation():
    for seed in range(5):
        g = gnp_graph(8, 0.5, seed + 40)
        rep = pipeline(g, 0.25, 2.0, PipelineOptions(seed=seed), **solved(g, 0.25, 2.0, seed))
        if rep.succeeded:
            k = len(rep.cut_members)
            assert min(k, g.n - k) >= (0.25 / 4) * g.n
            assert rep.balance == pytest.approx(min(k, g.n - k) / g.n)


def test_attempt_rng_streams_are_stable():
    a = attempt_rng(5, 0).standard_normal(3)
    b = attempt_rng(5, 0).standard_normal(3)
    c = attempt_rng(5, 1).standard_normal(3)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_projection_bounds():
    r = gaussian_projection_test(100, 0.1, 100_000, seed=0)
    assert r.empirical_low == pytest.approx(0.08, abs=0.02)
    assert r.empirical_low <= r.bound_low
    r = gaussian_projection_test(100, 2.0, 100_000, seed=0)
    assert r.empirical_high <= r.bound_high
    assert r.bound_high == pytest.approx(math.exp(-1.0))


def test_gaussian_projection_zero_width():
    r = gaussian_projection_test(50, 0.0, 10_000, seed=1)
    assert r.empirical_low == 0.0
    assert r.bound_low == 0.0
    assert r.bound_high is None  # x = 0 outside the tail bound's range


def test_gaussian_projection_validity_ranges():
    r = gaussian_projection_test(10, 3.0, 10_000, seed=0)
    assert r.bound_high is None  # 3 > sqrt(10)/4
    assert r.bound_low is None  # 3 >= 1
    r = gaussian_projection_test(100, 1.5, 10_000, seed=0)
    assert r.bound_low is None
    assert r.bound_high is not None
    with pytest.raises(ValueError):
        gaussian_projection_test(10, 0.5, 100)
    with pytest.raises(ValueError):
        gaussian_projection_test(0, 0.1, 10_000)
