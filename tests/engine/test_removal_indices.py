"""Every remove path refuses indices that ``numpy.delete`` refuses.

A float index must not be truncated to an integer (``2.7`` would
delete point 2) and a boolean list must not be read as the indices 0
and 1 (``[True]`` would delete point 1).  Each path raises
:class:`~repro.exceptions.ParameterError` and leaves the training set
as it was.
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
    ValuationService,
)
from repro.exceptions import ParameterError
from repro.types import as_removal_indices

BAD = [
    pytest.param([2.7], id="float"),
    pytest.param([True], id="bool"),
    pytest.param(np.array([1.0]), id="integral-float"),
]


@pytest.fixture(scope="module")
def data():
    return gaussian_blobs(n_train=12, n_test=2, n_features=3, seed=5)


def _backend(data):
    return BruteForceBackend().fit(data.x_train)


def _remove_on_backend(data, idx):
    backend = _backend(data)
    with pytest.raises(ParameterError):
        backend.forget(idx)
    return backend.data.shape[0]


def _remove_on_engine(data, idx):
    engine = ValuationEngine(data.x_train, data.y_train, 3)
    with pytest.raises(ParameterError):
        engine.remove_points(idx)
    return engine.n_train


def _remove_on_router(data, idx):
    with ShardRouter(data.x_train, data.y_train, k=3, n_shards=2) as router:
        with pytest.raises(ParameterError):
            router.remove_points(idx)
        return router.n_train


def _remove_on_service(data, idx):
    engine = ValuationEngine(data.x_train, data.y_train, 3)
    with ValuationService(engine, n_workers=1) as service:
        with pytest.raises(ParameterError):
            service.submit_remove(idx)
    return engine.n_train


def _remove_on_streaming(data, idx):
    stream = StreamingKNNShapley(data.x_train, data.y_train, 3)
    with pytest.raises(ParameterError):
        stream.remove_points(idx)
    return stream.n_train


def _remove_on_incremental(data, idx):
    valuator = IncrementalValuator(data.x_train, data.y_train, 3)
    valuator.fit(data.x_test, data.y_test)
    with pytest.raises(ParameterError):
        valuator.remove_points(idx)
    return valuator.n_train


@pytest.mark.parametrize("idx", BAD)
@pytest.mark.parametrize(
    "remove",
    [
        _remove_on_backend,
        _remove_on_engine,
        _remove_on_router,
        _remove_on_service,
        _remove_on_streaming,
        _remove_on_incremental,
    ],
    ids=lambda fn: fn.__name__.removeprefix("_remove_on_"),
)
def test_remove_path_rejects_non_integer_indices(data, remove, idx):
    assert remove(data, idx) == data.n_train


def test_as_removal_indices_accepts_integers_and_empty_batches():
    np.testing.assert_array_equal(as_removal_indices(3), [3])
    out = as_removal_indices(np.array([4, 1], dtype=np.uint8))
    assert out.dtype == np.intp
    np.testing.assert_array_equal(out, [4, 1])
    # np.asarray([]) is float64: an empty batch is still no batch
    assert as_removal_indices([]).shape == (0,)
