"""Tests for the pluggable neighbor backends and their registry."""

import warnings

import numpy as np
import pytest

from repro.engine import (
    BlockedExactBackend,
    BruteForceBackend,
    LSHNeighborBackend,
    NeighborBackend,
    available_backends,
    make_backend,
)
from repro.exceptions import NotFittedError, ParameterError
from repro.knn import argsort_by_distance, top_k


# ----------------------------------------------------------------- registry
def test_registry_lists_the_three_backends():
    names = available_backends()
    for name in ("brute", "blocked", "lsh"):
        assert name in names


def test_make_backend_by_name_and_options():
    b = make_backend("blocked", metric="cosine", block_size=7)
    assert isinstance(b, BlockedExactBackend)
    assert b.metric == "cosine"
    assert b.block_size == 7


def test_make_backend_passthrough_instance():
    inst = BruteForceBackend()
    assert make_backend(inst) is inst
    with pytest.raises(ParameterError):
        make_backend(inst, metric="cosine")


def test_make_backend_unknown_name():
    with pytest.raises(ParameterError):
        make_backend("kdtree")


# ----------------------------------------------------------------- exact
@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
def test_brute_query_and_rank_match_reference(rng, metric):
    data = rng.standard_normal((60, 5))
    queries = rng.standard_normal((7, 5))
    backend = BruteForceBackend(metric=metric).fit(data)
    idx, dist = backend.query(queries, 9)
    ref_idx, ref_dist = top_k(queries, data, 9, metric=metric)
    np.testing.assert_array_equal(idx, ref_idx)
    np.testing.assert_allclose(dist, ref_dist)
    order = backend.rank(queries)
    ref_order, _ = argsort_by_distance(queries, data, metric=metric)
    np.testing.assert_array_equal(order, ref_order)


def test_blocked_matches_brute_across_block_boundaries(rng):
    data = rng.standard_normal((101, 4))
    queries = rng.standard_normal((9, 4))
    brute = BruteForceBackend().fit(data)
    blocked = BlockedExactBackend(block_size=17, query_block=4).fit(data)
    for k in (1, 5, 30, 150):
        bi, bd = brute.query(queries, k)
        ci, cd = blocked.query(queries, k)
        np.testing.assert_array_equal(bi, ci)
        np.testing.assert_allclose(bd, cd)
    np.testing.assert_array_equal(brute.rank(queries), blocked.rank(queries))


def test_blocked_tie_break_matches_brute():
    """Duplicated points straddling block boundaries keep index order."""
    base = np.arange(10, dtype=np.float64).reshape(-1, 1)
    data = np.vstack([base, base, base])  # 30 points, each distance x3
    queries = np.array([[2.5], [7.0]])
    brute = BruteForceBackend().fit(data)
    blocked = BlockedExactBackend(block_size=7, query_block=1).fit(data)
    # k=3 at 7.0 and k=12 at 2.5 end exactly on a tie run; the other
    # cases cut through one, and 30/40 rank every point
    for k in (1, 3, 4, 12, 29, 30, 40):
        bi, bd = brute.query(queries, k)
        ci, cd = blocked.query(queries, k)
        np.testing.assert_array_equal(bi, ci)
        np.testing.assert_array_equal(bd.view(np.int64), cd.view(np.int64))
    np.testing.assert_array_equal(brute.rank(queries), blocked.rank(queries))


def test_backend_requires_fit(rng):
    backend = BruteForceBackend()
    with pytest.raises(NotFittedError):
        backend.query(rng.standard_normal((2, 3)), 1)
    with pytest.raises(ParameterError):
        BruteForceBackend().fit(np.empty((0, 3)))


def test_blocked_validates_parameters():
    with pytest.raises(ParameterError):
        BlockedExactBackend(block_size=0)
    with pytest.raises(ParameterError):
        BlockedExactBackend(query_block=-1)


def test_exact_backends_share_cache_token(rng):
    data = rng.standard_normal((10, 2))
    a = BruteForceBackend().fit(data)
    b = BlockedExactBackend().fit(data)
    assert a.cache_token() == b.cache_token()
    assert BruteForceBackend(metric="cosine").cache_token() != a.cache_token()


# ----------------------------------------------------------------- lsh
def test_lsh_full_recall_params_match_exact(rng, full_recall_params):
    data = rng.standard_normal((40, 6))
    queries = rng.standard_normal((5, 6))
    backend = LSHNeighborBackend(params=full_recall_params(), seed=0).fit(data)
    idx, dist = backend.query(queries, 8)
    ref_idx, ref_dist = top_k(queries, data, 8)
    for j in range(5):
        np.testing.assert_array_equal(idx[j], ref_idx[j])
        np.testing.assert_allclose(dist[j], ref_dist[j], atol=1e-9)


def test_lsh_prepare_without_queries_builds_index(rng):
    data = rng.standard_normal((50, 4))
    backend = LSHNeighborBackend(seed=1, tune_with_queries=False).fit(data)
    backend.prepare(None, 5)
    assert backend.params is not None
    idx, _ = backend.query(rng.standard_normal((3, 4)), 5)
    assert len(idx) == 3


def test_lsh_rejects_full_ranking(rng):
    backend = LSHNeighborBackend(seed=0).fit(rng.standard_normal((20, 3)))
    assert not backend.supports_full_ranking
    with pytest.raises(ParameterError):
        backend.rank(rng.standard_normal((2, 3)))


def test_lsh_validates_delta():
    with pytest.raises(ParameterError):
        LSHNeighborBackend(delta=0.0)
    with pytest.raises(ParameterError):
        LSHNeighborBackend(delta=1.0)


def test_lsh_cache_token_reflects_tuning(rng, full_recall_params):
    data = rng.standard_normal((30, 3))
    a = LSHNeighborBackend(params=full_recall_params(), seed=0).fit(data)
    b = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(data)
    b.prepare(None, 3)
    assert a.cache_token() != b.cache_token()


def test_custom_backend_registration(rng):
    from repro.engine import register_backend

    class EchoBackend(BruteForceBackend):
        name = "echo-test"

    register_backend("echo-test", EchoBackend)
    try:
        built = make_backend("echo-test")
        assert isinstance(built, EchoBackend)
        assert isinstance(built, NeighborBackend)
    finally:
        from repro.engine.backends import _BACKEND_REGISTRY

        _BACKEND_REGISTRY.pop("echo-test", None)


# -------------------------------------------------- mutation (partial_fit/forget)
@pytest.mark.parametrize("name", ["brute", "blocked"])
def test_exact_backend_partial_fit_equals_refit(rng, name):
    data = rng.standard_normal((25, 4))
    extra = rng.standard_normal((3, 4))
    queries = rng.standard_normal((4, 4))
    mutated = make_backend(name).fit(data)
    assert mutated.supports_incremental_mutation
    mutated.partial_fit(extra)
    refit = make_backend(name).fit(np.vstack((data, extra)))
    np.testing.assert_array_equal(mutated.rank(queries), refit.rank(queries))
    mi, md = mutated.query(queries, 5)
    ri, rd = refit.query(queries, 5)
    np.testing.assert_array_equal(mi, ri)
    np.testing.assert_array_equal(md, rd)


@pytest.mark.parametrize("name", ["brute", "blocked"])
def test_exact_backend_forget_equals_refit(rng, name):
    data = rng.standard_normal((25, 4))
    queries = rng.standard_normal((4, 4))
    doomed = [0, 7, 24]
    mutated = make_backend(name).fit(data)
    mutated.forget(doomed)
    refit = make_backend(name).fit(np.delete(data, doomed, axis=0))
    assert mutated.n == 22
    np.testing.assert_array_equal(mutated.rank(queries), refit.rank(queries))


@pytest.mark.parametrize("name", ["brute", "blocked"])
def test_rank_with_distances_consistent(rng, name):
    data = rng.standard_normal((30, 3))
    queries = rng.standard_normal((6, 3))
    backend = make_backend(name).fit(data)
    order, dist = backend.rank_with_distances(queries)
    np.testing.assert_array_equal(order, backend.rank(queries))
    assert np.all(np.diff(dist, axis=1) >= 0)  # ascending rows
    # distances belong to the returned order
    brute_order, brute_dist = make_backend("brute").fit(data).rank_with_distances(queries)
    np.testing.assert_array_equal(order, brute_order)
    np.testing.assert_array_equal(dist, brute_dist)


def test_forget_validates_indices(rng):
    backend = make_backend("brute").fit(rng.standard_normal((10, 2)))
    with pytest.raises(ParameterError):
        backend.forget([10])
    with pytest.raises(ParameterError):
        backend.forget([-1])
    with pytest.raises(ParameterError):
        backend.forget([2, 2])
    with pytest.raises(ParameterError):
        backend.forget(np.arange(10))  # cannot empty the index
    backend.forget([])  # no-op
    assert backend.n == 10


def test_partial_fit_validates_width(rng):
    backend = make_backend("brute").fit(rng.standard_normal((10, 2)))
    with pytest.raises(ParameterError):
        backend.partial_fit(rng.standard_normal((2, 5)))
    backend.partial_fit(np.empty((0, 2)))  # no-op
    assert backend.n == 10


def test_lsh_small_mutations_update_in_place(rng, full_recall_params):
    """Bounded churn is absorbed into the existing buckets: no warning,
    no rebuild, and (with full-recall tables) exact-equivalent results."""
    data = rng.standard_normal((40, 3))
    backend = LSHNeighborBackend(params=full_recall_params(3), seed=0).fit(data)
    backend.prepare(None, 5)
    index_before = backend._index
    assert index_before is not None
    assert backend.supports_incremental_mutation
    queries = rng.standard_normal((3, 3))

    extra = rng.standard_normal((2, 3))
    backend.partial_fit(extra)  # 5% growth: in place, warning-free
    assert backend.n == 42
    assert backend._index is index_before  # same tables, new buckets
    idx, dist = backend.query(queries, 5)
    oracle = make_backend("brute").fit(np.vstack((data, extra)))
    oi, od = oracle.query(queries, 5)
    for j in range(queries.shape[0]):
        np.testing.assert_array_equal(idx[j], oi[j])
        np.testing.assert_allclose(dist[j], od[j], atol=1e-12)

    doomed = [0, 41]  # one incumbent, one newcomer
    backend.forget(doomed)  # tombstoned, warning-free
    assert backend.n == 40
    assert backend._index is index_before
    idx, _ = backend.query(queries, 5)
    oracle = make_backend("brute").fit(
        np.delete(np.vstack((data, extra)), doomed, axis=0)
    )
    oi, _ = oracle.query(queries, 5)
    for j in range(queries.shape[0]):
        np.testing.assert_array_equal(idx[j], oi[j])


def test_lsh_mutation_beyond_drift_warns_and_refits(rng):
    data = rng.standard_normal((40, 3))
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(data)
    backend.prepare(None, 3)
    assert backend._index is not None
    with pytest.warns(RuntimeWarning, match="full refit"):
        backend.partial_fit(rng.standard_normal((12, 3)))  # 30% > 25% drift
    assert backend.n == 52
    assert backend._index is None  # rebuilt lazily on next query
    idx, _ = backend.query(rng.standard_normal((1, 3)), 3)
    assert backend._index is not None
    with pytest.warns(RuntimeWarning, match="full refit"):
        backend.forget(list(range(14)))  # shrink past the tuned band
    assert backend.n == 38


def test_lsh_balanced_churn_is_compacted_by_refit(rng, full_recall_params):
    """Tombstones and appends both leave rows in the tables, so
    balanced add/remove churn must eventually trip the drift refit —
    otherwise the index grows without bound while n stays constant."""
    data = rng.standard_normal((40, 3))
    backend = LSHNeighborBackend(params=full_recall_params(3), seed=0).fit(data)
    backend.prepare(None, 3)
    refitted = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(12):
            backend.partial_fit(rng.standard_normal((2, 3)))
            backend.forget([0, 1])
            if any("full refit" in str(w.message) for w in caught):
                refitted = True
                break
    assert refitted, "internal index growth never triggered a compaction"
    assert backend.n == 40  # alive count untouched by the refit
    backend.prepare(None, 3)
    assert backend._index.n == 40  # rebuilt compact: tombstones reclaimed


def test_lsh_churn_changes_cache_token(rng, full_recall_params):
    data = rng.standard_normal((30, 3))
    backend = LSHNeighborBackend(params=full_recall_params(3), seed=0).fit(data)
    backend.prepare(None, 3)
    t0 = backend.cache_token()
    backend.partial_fit(rng.standard_normal((1, 3)))
    t1 = backend.cache_token()
    assert t0 != t1
    backend.forget([5])
    assert backend.cache_token() != t1
