"""The training set's cache identity: hashed once with a cache, chained on mutations.

An engine hashes its training set only when a cache will read the
hash, and a seller join or leave derives the next identity from the
change alone.  These tests pin what that rests on: no hashing without
a cache, O(change) hashing per mutation, chained identities that never
serve a stale ranking, equal histories that share entries, and
mutations that stack and delete rows exactly as ``numpy`` does.
"""

import numpy as np
import pytest

import repro.engine.cache as cache_module
import repro.engine.engine as engine_module
from repro.engine import RankCache, ShardRouter, ValuationEngine

K = 3


@pytest.fixture(scope="module")
def data():
    from repro.datasets import gaussian_blobs

    return gaussian_blobs(n_train=200, n_test=9, n_features=5, seed=13)


@pytest.fixture()
def hashed(monkeypatch):
    """Record the byte size of every array the engine fingerprints."""
    sizes = []
    real = cache_module.array_fingerprint

    def counting(arr):
        sizes.append(int(np.asarray(arr).nbytes))
        return real(arr)

    # directly, and through dataset_fingerprint
    monkeypatch.setattr(engine_module, "array_fingerprint", counting)
    monkeypatch.setattr(cache_module, "array_fingerprint", counting)
    return sizes


def _churn(server, data, rng):
    """One join and one leave, then a valuation of each request kind."""
    server.add_points(data.x_train[:4] + rng.normal(size=(4, 5)), data.y_train[:4])
    server.remove_points([0, 17, 150])
    for method, kw in (("exact", {}), ("truncated", {}), ("weighted", {"weights": "rank"})):
        server.value(data.x_test, data.y_test, method=method, **kw)


def test_no_cache_engine_never_hashes(data, hashed):
    engine = ValuationEngine(data.x_train, data.y_train, K, cache=False)
    _churn(engine, data, np.random.default_rng(0))
    assert hashed == []


def test_no_cache_router_never_hashes(data, hashed):
    with ShardRouter(data.x_train, data.y_train, K, n_shards=3, cache=False) as router:
        _churn(router, data, np.random.default_rng(0))
    assert hashed == []


def test_router_shards_alias_row_slices(data):
    with ShardRouter(data.x_train, data.y_train, K, n_shards=3, cache=False) as router:
        start = 0
        for shard in router.shards:
            x = shard.engine.x_train
            assert np.shares_memory(x, data.x_train)
            np.testing.assert_array_equal(x, data.x_train[start:start + x.shape[0]])
            start += x.shape[0]
        assert start == data.x_train.shape[0]


def test_join_hashes_only_the_appended_rows(data, hashed):
    n, d = data.x_train.shape
    engine = ValuationEngine(data.x_train, data.y_train, K)
    assert hashed == [n * d * 8]  # once, at construction
    hashed.clear()
    m = 6
    engine.add_points(data.x_train[:m] * 1.5, data.y_train[:m])
    assert 0 < sum(hashed) <= m * d * 8
    hashed.clear()
    engine.remove_points([3, 9])
    assert 0 < sum(hashed) <= 2 * 8


@pytest.mark.parametrize("backend", ["brute", "blocked"])
def test_chained_identity_serves_what_a_fresh_engine_computes(data, backend):
    rng = np.random.default_rng(21)
    engine = ValuationEngine(data.x_train, data.y_train, K, backend=backend)
    for step in range(6):
        if step % 2 == 0:
            m = int(rng.integers(1, 6))
            engine.add_points(
                rng.normal(size=(m, data.x_train.shape[1])),
                rng.integers(0, 2, size=m),
            )
        else:
            engine.remove_points(
                rng.choice(engine.n_train, size=int(rng.integers(1, 6)), replace=False)
            )
        fresh = ValuationEngine(
            engine.x_train.copy(), engine.y_train.copy(), K, backend=backend, cache=False
        )
        stats = engine.cache.stats
        misses = stats.misses
        for method, kw in (("exact", {}), ("truncated", {}), ("weighted", {"weights": "rank"})):
            want = fresh.value(data.x_test, data.y_test, method=method, **kw).values
            first = engine.value(data.x_test, data.y_test, method=method, **kw)
            if method == "exact":  # the first request after a mutation is cold
                assert stats.misses == misses + 1, step
            hits = stats.hits
            repeat = engine.value(data.x_test, data.y_test, method=method, **kw)
            assert stats.hits == hits + 1, (step, method)
            np.testing.assert_array_equal(first.values, want)
            np.testing.assert_array_equal(repeat.values, want)


def test_equal_histories_share_entries(data):
    shared = RankCache()
    a = ValuationEngine(data.x_train, data.y_train, K, cache=shared)
    b = ValuationEngine(data.x_train, data.y_train, K, cache=shared)
    for engine in (a, b):
        engine.add_points(data.x_train[:3] + 0.25, data.y_train[:3])
        engine.remove_points([5, 60])
    first = a.value(data.x_test, data.y_test)
    hits = shared.stats.hits
    second = b.value(data.x_test, data.y_test)
    assert shared.stats.hits == hits + 1
    np.testing.assert_array_equal(first.values, second.values)


def test_equal_sets_through_different_histories_miss(data):
    shared = RankCache()
    mutated = ValuationEngine(data.x_train, data.y_train, K, cache=shared)
    mutated.add_points(data.x_train[:3] + 0.25, data.y_train[:3])
    mutated.remove_points([200, 201, 202])  # back to the original rows
    np.testing.assert_array_equal(mutated.x_train, data.x_train)
    mutated.value(data.x_test, data.y_test)
    built = ValuationEngine(data.x_train, data.y_train, K, cache=shared)
    misses = shared.stats.misses
    built.value(data.x_test, data.y_test)
    assert shared.stats.misses == misses + 1


@pytest.mark.parametrize("backend", ["brute", "blocked", "lsh"])
def test_mutations_stack_and_delete_like_numpy(data, backend):
    options = {"seed": 4} if backend == "lsh" else None
    engine = ValuationEngine(
        data.x_train, data.y_train, K, backend=backend, backend_options=options
    )
    # a built LSH index takes the in-place insert and tombstone paths
    engine.value(data.x_test, data.y_test, method="lsh" if backend == "lsh" else "exact")
    before = engine.x_train.copy()
    x_new = data.x_train[:5] - 0.75
    engine.add_points(x_new, data.y_train[:5])
    np.testing.assert_array_equal(engine.x_train, np.vstack((before, x_new)))
    before = engine.x_train.copy()
    engine.remove_points([204, 0, 99])
    np.testing.assert_array_equal(engine.x_train, np.delete(before, [204, 0, 99], axis=0))
