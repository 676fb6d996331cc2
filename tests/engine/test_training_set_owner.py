"""One owner of a training set: the engine, and the layers built on it.

* The engine adopts its backend's metric and refuses a conflicting
  explicit one, so the ranking, the Monte Carlo distance scan and
  ``extra["metric"]`` share one geometry; a data-sharded router
  reports what its shard engines resolved.
* ``IncrementalValuator`` and ``StreamingKNNShapley`` rank, value and
  mutate through an engine they hold, so they inherit its query and
  metric checks.
"""

import numpy as np
import pytest

from repro.core import StreamingKNNShapley
from repro.datasets import gaussian_blobs
from repro.engine import (
    BruteForceBackend,
    IncrementalValuator,
    ShardRouter,
    ValuationEngine,
)
from repro.exceptions import DataValidationError, ParameterError

K = 3
MC = {"method": "mc", "n_permutations": 40, "seed": 2}


@pytest.fixture(scope="module")
def data():
    return gaussian_blobs(n_train=90, n_test=5, n_features=5, seed=17)


# ----------------------------------------------------------- metric rule
def test_engine_adopts_the_backend_metric(data):
    by_option = ValuationEngine(
        data.x_train, data.y_train, K, backend_options={"metric": "cosine"}
    )
    explicit = ValuationEngine(data.x_train, data.y_train, K, metric="cosine")
    assert by_option.metric == "cosine"
    got = by_option.value(data.x_test, data.y_test, **MC)
    ref = explicit.value(data.x_test, data.y_test, **MC)
    assert got.extra["metric"] == "cosine"
    # the Monte Carlo rung scans distances in the metric it ranks in
    np.testing.assert_array_equal(got.values, ref.values)
    np.testing.assert_array_equal(
        by_option.value(data.x_test, data.y_test).values,
        explicit.value(data.x_test, data.y_test).values,
    )


def test_engine_adopts_a_prebuilt_backend_metric(data):
    engine = ValuationEngine(
        data.x_train, data.y_train, K, backend=BruteForceBackend(metric="cosine")
    )
    assert engine.metric == "cosine"


def test_router_reports_the_metric_its_shards_resolved(data):
    explicit = ValuationEngine(data.x_train, data.y_train, K, metric="cosine")
    with ShardRouter(
        data.x_train, data.y_train, K, n_shards=3,
        backend_options={"metric": "cosine"},
    ) as router:
        assert router.metric == "cosine"
        got = router.value(data.x_test, data.y_test, **MC)
    assert got.extra["metric"] == "cosine"
    ref = explicit.value(data.x_test, data.y_test, **MC)
    np.testing.assert_array_equal(got.values, ref.values)


def test_default_metric_stays_euclidean(data):
    assert ValuationEngine(data.x_train, data.y_train, K).metric == "euclidean"
    lsh = ValuationEngine(data.x_train, data.y_train, K, backend="lsh")
    assert lsh.metric == "euclidean"


@pytest.mark.parametrize("build", ["engine", "router"])
def test_a_conflicting_explicit_metric_raises(data, build):
    cls = ValuationEngine if build == "engine" else ShardRouter
    with pytest.raises(ParameterError, match="conflicts"):
        cls(
            data.x_train, data.y_train, K, metric="euclidean",
            backend_options={"metric": "cosine"},
        )
    with pytest.raises(ParameterError, match="conflicts"):
        cls(data.x_train, data.y_train, K, metric="cosine", backend="lsh")


# ------------------------------------------------- streaming accumulator
def test_streaming_refuses_a_nan_query(data):
    stream = StreamingKNNShapley(data.x_train, data.y_train, K)
    query = data.x_test[0].copy()
    query[1] = np.nan
    with pytest.raises(DataValidationError):
        stream.update(query, data.y_test[0])
    assert stream.n_queries == 0
    stream.update(data.x_test[0], data.y_test[0])
    assert np.all(np.isfinite(stream.values().values))


def test_streaming_lsh_refuses_a_non_l2_metric(data):
    with pytest.raises(ParameterError, match="conflicts"):
        StreamingKNNShapley(
            data.x_train, data.y_train, K, backend="lsh", metric="cosine", seed=0
        )
    stream = StreamingKNNShapley(data.x_train, data.y_train, K, backend="lsh", seed=0)
    assert stream.metric == "euclidean"


def test_streaming_mutates_through_its_engine(data):
    stream = StreamingKNNShapley(data.x_train, data.y_train, K)
    stream.update(data.x_test[0], data.y_test[0])
    stream.add_points(data.x_train[:2] + 0.1, data.y_train[:2])
    stream.remove_points([0])
    assert stream.engine.stats()["counters"]["mutations"] == 2
    assert stream.x_train is stream.engine.x_train
    assert stream.n_train == data.n_train + 1
    with pytest.raises(ParameterError):
        stream.remove_points([0, 0])
    assert stream.values().values.shape == (data.n_train + 1,)


# ------------------------------------------------- incremental valuator
def test_incremental_mutates_through_its_engine(data):
    v = IncrementalValuator(data.x_train, data.y_train, K).fit(
        data.x_test, data.y_test
    )
    before = v.values().values.copy()
    # the engine refuses the batch before the rank state is touched
    with pytest.raises(ParameterError):
        v.remove_points([1, data.n_train])
    assert v.n_train == data.n_train
    np.testing.assert_array_equal(v.values().values, before)
    v.add_points(data.x_train[:2] + 0.1, data.y_train[:2])
    assert v.engine.stats()["counters"]["mutations"] == 1
    assert v.x_train is v.engine.x_train
    assert v.backend is v.engine.backend
