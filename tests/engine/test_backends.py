"""Tests for the pluggable neighbor backends and their registry."""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.engine import (
    BlockedExactBackend,
    BruteForceBackend,
    LSHNeighborBackend,
    NeighborBackend,
    ValuationEngine,
    available_backends,
    make_backend,
)
from repro.engine import backends as backends_mod
from repro.engine.backends import SPLIT_FLOOR, usable_cores
from repro.exceptions import NotFittedError, ParameterError
from repro.knn import argsort_by_distance, top_k
from repro.monitor import Tracer


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


# ------------------------------------------------- row-split full ranking
def _tied(rng, n, q, d):
    """One-decimal features plus 2% duplicate rows: exact distance ties
    by the hundred, yet inexact products, so a block that summed in
    another order would show."""
    data = np.round(rng.standard_normal((n, d)), 1)
    data[rng.choice(n, n // 50)] = data[rng.choice(n, n // 50)]
    return data, np.round(rng.standard_normal((q, d)), 1)


def _market(rng, n, q, d):
    """Gaussian points with 2% duplicate training rows."""
    data = rng.standard_normal((n, d))
    data[rng.choice(n, n // 50)] = data[rng.choice(n, n // 50)]
    return data, rng.standard_normal((q, d))


def _expected_blocks(q, n, cores):
    return max(1, min(cores, q // max(2, -(-SPLIT_FLOOR // n))))


def _rankings(backend, queries):
    return backend.rank(queries), backend.rank_with_distances(queries)


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "manhattan"])
@pytest.mark.parametrize(
    "q, n",
    [(1, 6000), (2, SPLIT_FLOOR), (3, SPLIT_FLOOR), (63, 6000), (64, 6000),
     (64, 12000), (8, 40000), (16, 6000), (64, 1000)],
)
def test_split_rank_is_bit_identical_to_one_block(rng, monkeypatch, metric, q, n):
    data, queries = _tied(rng, n, q, 3)
    backend = BruteForceBackend(metric=metric).fit(data)
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: 1)
    serial = _rankings(backend, queries)
    assert backend.rank_blocks() == 1
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: 4)
    split = _rankings(backend, queries)
    blocks = _expected_blocks(q, n, 4)
    assert backend.rank_blocks() == blocks
    # market-exact (64x6000) and overload-burst (8x40000) split;
    # sharded-audit's 16x6000 shard legs do not
    counters = backend.stats()["counters"]
    splits = 2 if blocks > 1 else 0
    assert (counters["rank_splits"], counters["rank_split_declined"]) == (splits, 4 - splits)
    np.testing.assert_array_equal(split[0], serial[0])
    for got, want in zip(split[1], serial[1]):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    # the oracle's mergesort agrees, not only the serial packed-key sort
    np.testing.assert_array_equal(
        split[0], argsort_by_distance(queries, data, metric=metric)[0]
    )


def test_concurrent_rankings_never_split_past_the_cores(rng, monkeypatch):
    cores = 2
    data, _ = _market(rng, 6000, 1, 8)
    backend = BruteForceBackend().fit(data)
    batches = [_market(rng, 10, 64, 8)[1] for _ in range(8)]
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: 1)
    want = [backend.rank(x) for x in batches]

    real = backends_mod.get_metric("euclidean")
    lock = threading.Lock()
    running, peak = [0], [0]

    def counting(a, b, norms):
        # a block of a split ranking: on a helper, or on a caller that
        # split.  A splitting caller outlasts its helper, so the idle
        # helper could be claimed again while that caller still runs.
        name = threading.current_thread().name
        on_helper = name.startswith("repro-rank-")
        split = on_helper or backend.rank_blocks() > 1
        with lock:
            running[0] += split
            peak[0] = max(peak[0], running[0])
        try:
            if not on_helper:
                time.sleep(0.02 if split else 0.002 * (1 + int(name[7:]) % 4))
            return real(a, b, norms)
        finally:
            with lock:
                running[0] -= split

    monkeypatch.setattr(backends_mod, "get_metric", lambda name: counting)
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: cores)
    before = backend.stats()["counters"]
    got = [None] * len(batches)
    start = threading.Barrier(len(batches))

    def worker(i):
        start.wait()
        for _ in range(3):
            got[i] = backend.rank(batches[i])

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"caller-{i}")
        for i in range(len(batches))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    assert peak[0] <= cores
    after = backend.stats()["counters"]
    calls = sum(after[k] - before[k] for k in ("rank_splits", "rank_split_declined"))
    assert calls == 3 * len(batches)


def test_caller_ranks_alone_while_the_helper_is_busy(rng, monkeypatch):
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: 2)
    data, queries = _market(rng, 6000, 64, 8)
    backend = BruteForceBackend().fit(data)
    want = backend.rank(queries)
    assert backend.rank_blocks() == 2  # a free helper is used
    helpers = backends_mod._HELPERS
    (inbox,) = helpers.claim(1, 2)
    release = threading.Event()
    held = backends_mod._Block(release.wait)
    inbox.put(held)
    try:
        before = backend.stats()["counters"]["rank_split_declined"]
        np.testing.assert_array_equal(backend.rank(queries), want)
        assert backend.rank_blocks() == 1
        assert backend.stats()["counters"]["rank_split_declined"] == before + 1
    finally:
        release.set()
        assert held.done.wait(10)
    np.testing.assert_array_equal(backend.rank(queries), want)
    assert backend.rank_blocks() == 2


def test_no_split_while_another_ranking_holds_the_other_core(rng, monkeypatch):
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: 2)
    data, queries = _market(rng, 6000, 64, 8)
    backend = BruteForceBackend().fit(data)
    real = backends_mod.get_metric("euclidean")
    entered, release = threading.Event(), threading.Event()

    def parked(a, b, norms):
        if a.shape[0] == 4:  # the small ranking waits mid-flight
            entered.set()
            release.wait(10)
        return real(a, b, norms)

    monkeypatch.setattr(backends_mod, "get_metric", lambda name: parked)
    other = threading.Thread(target=backend.rank, args=(queries[:4],))
    other.start()
    try:
        assert entered.wait(10)
        backend.rank(queries)
        assert backend.rank_blocks() == 1  # the idle helper stays idle
    finally:
        release.set()
        other.join(10)
    assert not other.is_alive()
    backend.rank(queries)
    assert backend.rank_blocks() == 2


def test_helper_errors_reach_the_caller(rng, monkeypatch):
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: 2)
    backend = BruteForceBackend().fit(rng.standard_normal((6000, 4)))
    real = backends_mod.get_metric("euclidean")

    def failing_on_helpers(a, b, norms):
        if threading.current_thread().name.startswith("repro-rank-"):
            raise FloatingPointError("helper block failed")
        return real(a, b, norms)

    monkeypatch.setattr(backends_mod, "get_metric", lambda name: failing_on_helpers)
    with pytest.raises(FloatingPointError):
        backend.rank(rng.standard_normal((64, 4)))
    monkeypatch.setattr(backends_mod, "get_metric", lambda name: real)
    backend.rank(rng.standard_normal((64, 4)))  # the helper is idle again
    assert backend.rank_blocks() == 2


def test_usable_cores_follows_the_affinity_mask(rng, monkeypatch):
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cores() == 1
    x, y = rng.standard_normal((6000, 4)), rng.integers(0, 2, 6000)
    engine = ValuationEngine(x, y, 3)
    assert engine.n_workers == 1
    engine.value(rng.standard_normal((64, 4)), rng.integers(0, 2, 64))
    counters = engine.stats()["backend"]["counters"]
    assert counters["rank_splits"] == 0
    assert counters["rank_split_declined"] == 1


def test_engine_rank_span_records_blocks(rng, monkeypatch):
    monkeypatch.setattr(backends_mod, "usable_cores", lambda: 2)
    x, y = rng.standard_normal((6000, 8)), rng.integers(0, 2, 6000)
    engine = ValuationEngine(x, y, 3, cache=False).attach_tracer(Tracer())
    for q, blocks in ((64, 2), (8, 1)):
        res = engine.value(rng.standard_normal((q, 8)), rng.integers(0, 2, q))
        spans = [
            span
            for chunk in res.extra["trace"]["children"]
            for span in chunk["children"]
            if span["name"] == "backend.rank"
        ]
        assert [span["attributes"]["blocks"] for span in spans] == [blocks]


# ------------------------------------------------------- the norm memo
def test_norm_memo_follows_the_training_set_through_joins_and_leaves(rng):
    """Brute rank, query and the mc scan read row norms kept per data
    array; after every join and leave their answers equal a fresh
    engine's bit for bit."""
    data, queries = _market(rng, 3000, 6, 5)
    labels = rng.integers(0, 2, 3000)
    test_labels = rng.integers(0, 2, 6)
    engine = ValuationEngine(data, labels, 3, cache=False)

    def answers(e):
        rank = e.retrieve(queries)
        query = e.retrieve(queries, k=20)
        scan = e.distances(queries)
        mc = e.value(queries, test_labels, method="mc", n_permutations=3, seed=5)
        trunc = e.value(queries, test_labels, method="truncated", epsilon=0.25)
        return [*rank, *query, scan, mc.values, trunc.values]

    answers(engine)  # builds the memo on the initial training set
    for step in range(4):
        if step % 2 == 0:
            engine.add_points(rng.standard_normal((40, 5)), rng.integers(0, 2, 40))
        else:
            engine.remove_points(rng.choice(engine.n_train, 25, replace=False))
        fresh = ValuationEngine(engine.x_train.copy(), engine.y_train.copy(), 3, cache=False)
        for got, want in zip(answers(engine), answers(fresh)):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        index = engine.backend.search_index("euclidean")
        assert index.data is engine.backend.data


def test_mc_scan_on_an_lsh_engine_leaves_the_lsh_index_alone(rng):
    """The exact-search memo and the LSH index are kept apart: mc
    requests on an LSH engine, before and after its index is built and
    through a join and a leave, answer as a fresh engine's, and the LSH
    answers equal those of a twin engine that never ran mc."""
    data, queries = _market(rng, 2000, 6, 5)
    labels = rng.integers(0, 2, 2000)
    test_labels = rng.integers(0, 2, 6)
    options = {"backend_options": {"seed": 3}, "cache": False}
    engine = ValuationEngine(data, labels, 3, backend="lsh", **options)
    twin = ValuationEngine(data, labels, 3, backend="lsh", **options)

    def lsh(e):
        return e.value(queries, test_labels, method="lsh", epsilon=0.25).values

    def mc(e):
        return e.value(queries, test_labels, method="mc", n_permutations=3, seed=5).values

    def fresh_mc():
        fresh = ValuationEngine(engine.x_train.copy(), engine.y_train.copy(), 3, cache=False)
        return mc(fresh)

    def same(got, want):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    same(lsh(engine), lsh(twin))
    same(mc(engine), fresh_mc())  # the LSH index is built: mc must not read it
    same(mc(engine), fresh_mc())
    new_x, new_y = rng.standard_normal((40, 5)), rng.integers(0, 2, 40)
    gone = rng.choice(engine.n_train, 25, replace=False)
    for e in (engine, twin):
        e.add_points(new_x, new_y)
    same(mc(engine), fresh_mc())
    for e in (engine, twin):
        e.remove_points(gone)
    same(mc(engine), fresh_mc())
    same(lsh(engine), lsh(twin))
    same(mc(engine), fresh_mc())
    assert engine.backend.tombstone_ratio == twin.backend.tombstone_ratio


def test_norm_memo_is_built_at_first_use_not_at_fit(rng, monkeypatch):
    import repro.knn.search as search_mod

    calls = []
    real = search_mod.row_norms
    monkeypatch.setattr(
        search_mod, "row_norms", lambda data, metric: calls.append(1) or real(data, metric)
    )
    data, queries = _market(rng, 2000, 4, 3)
    backend = BruteForceBackend().fit(data)
    assert calls == []
    backend.query(queries, 5)
    backend.rank(queries)
    backend.rank_with_distances(queries)
    assert len(calls) == 1
    backend.partial_fit(rng.standard_normal((3, 3)))
    backend.query(queries, 5)
    assert len(calls) == 2
