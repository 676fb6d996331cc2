"""Query-batch contracts shared by the engine and the shard router.

* An empty batch is rejected at both front doors: a valuation is a
  mean over test points (eq 8), so there is nothing to answer.
* ``values`` does not depend on ``store_per_test``: the full-ranking
  path always sums per-test values through the kernel's column-sum
  entry point, and the stored matrix is only a by-product.
"""

import numpy as np
import pytest

from repro.engine import ShardRouter, ValuationEngine
from repro.exceptions import ParameterError

METHODS = ["exact", "truncated", "weighted", "mc"]


@pytest.fixture(scope="module")
def small():
    rng = np.random.default_rng(3)
    x_train = rng.normal(size=(30, 4))
    y_train = rng.integers(0, 2, size=30)
    return x_train, y_train


@pytest.fixture(scope="module")
def tie_heavy():
    """Every training point thrice: distance ties in every row."""
    rng = np.random.default_rng(7)
    base = rng.normal(size=(40, 5))
    x_train = np.vstack([base, base, base])
    y_train = np.asarray(rng.integers(0, 3, size=120))
    x_test = base[:11] + 0.01 * rng.normal(size=(11, 5))
    y_test = np.asarray(rng.integers(0, 3, size=11))
    return x_train, y_train, x_test, y_test


# --------------------------------------------------------- empty batches
@pytest.mark.parametrize("method", METHODS)
def test_engine_rejects_empty_batch(small, method):
    x_train, y_train = small
    engine = ValuationEngine(x_train, y_train, 3)
    with pytest.raises(ParameterError, match="empty"):
        engine.value(np.empty((0, 4)), np.empty(0, dtype=int), method=method)


@pytest.mark.parametrize("sharding", ["data"])
@pytest.mark.parametrize("method", METHODS)
def test_router_rejects_empty_batch(small, method, sharding):
    x_train, y_train = small
    with ShardRouter(x_train, y_train, 3, n_shards=2, sharding=sharding) as router:
        with pytest.raises(ParameterError, match="empty"):
            router.value(
                np.empty((0, 4)), np.empty(0, dtype=int), method=method
            )


# ------------------------------------------- values ignore store_per_test
def _both_flags(server, x_test, y_test, **kwargs):
    off = server.value(x_test, y_test, store_per_test=False, **kwargs)
    on = server.value(x_test, y_test, store_per_test=True, **kwargs)
    return off, on


RANKED = [
    pytest.param({"method": "exact"}, id="exact"),
    pytest.param({"method": "weighted", "weights": "rank"}, id="weighted"),
]


@pytest.mark.parametrize("kwargs", RANKED)
@pytest.mark.parametrize("chunk_size", [None, 5])
def test_engine_values_ignore_store_per_test(tie_heavy, chunk_size, kwargs):
    x_train, y_train, x_test, y_test = tie_heavy
    engine = ValuationEngine(
        x_train, y_train, 4, chunk_size=chunk_size, cache=False
    )
    off, on = _both_flags(engine, x_test, y_test, **kwargs)
    assert on.extra["n_chunks"] == (1 if chunk_size is None else 3)
    np.testing.assert_array_equal(on.values, off.values)
    assert "per_test" not in off.extra
    per_test = on.extra["per_test"]
    assert per_test.shape == (x_test.shape[0], x_train.shape[0])
    assert np.max(np.abs(per_test.mean(axis=0) - on.values)) <= 1e-12


@pytest.mark.parametrize("kwargs", RANKED)
def test_router_values_ignore_store_per_test(tie_heavy, kwargs):
    x_train, y_train, x_test, y_test = tie_heavy
    reference = ValuationEngine(x_train, y_train, 4).value(
        x_test, y_test, **kwargs
    )
    with ShardRouter(x_train, y_train, 4, n_shards=4) as router:
        off, on = _both_flags(router, x_test, y_test, **kwargs)
    np.testing.assert_array_equal(on.values, off.values)
    np.testing.assert_array_equal(off.values, reference.values)
    per_test = on.extra["per_test"]
    assert np.max(np.abs(per_test.mean(axis=0) - on.values)) <= 1e-12
