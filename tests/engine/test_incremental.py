"""Tests for the incremental valuation subsystem under dataset churn."""

import numpy as np
import pytest

from repro.core.exact import exact_knn_shapley_from_order
from repro.datasets import gaussian_blobs
from repro.engine import IncrementalValuator, make_backend
from repro.exceptions import NotFittedError, ParameterError

BACKENDS = ["brute", "blocked"]


@pytest.fixture(scope="module")
def data():
    return gaussian_blobs(n_train=150, n_test=9, n_classes=3, n_features=6, seed=7)


def full_values(x_train, y_train, x_test, y_test, k):
    """Reference: rank from scratch, run the full recursion."""
    order = make_backend("brute").fit(x_train).rank(x_test)
    values, _ = exact_knn_shapley_from_order(order, y_train, y_test, k)
    return values


def make_valuator(data, backend, k=4):
    options = (
        {"block_size": 64, "query_block": 4} if backend == "blocked" else None
    )
    v = IncrementalValuator(
        data.x_train, data.y_train, k, backend=backend, backend_options=options
    )
    return v.fit(data.x_test, data.y_test)


# ------------------------------------------------------------ add/remove
@pytest.mark.parametrize("backend", BACKENDS)
def test_add_points_matches_full_recompute(data, backend, rng):
    v = make_valuator(data, backend)
    x_new = rng.standard_normal((5, 6))
    y_new = rng.integers(0, 3, 5)
    idx = v.add_points(x_new, y_new)
    np.testing.assert_array_equal(idx, np.arange(150, 155))
    ref = full_values(
        np.vstack((data.x_train, x_new)),
        np.concatenate((data.y_train, y_new)),
        data.x_test,
        data.y_test,
        4,
    )
    np.testing.assert_allclose(v.values().values, ref, rtol=0, atol=1e-12)
    # the canonical resync is bit-identical to the from-scratch run
    np.testing.assert_array_equal(v.recompute().values, ref)


@pytest.mark.parametrize("backend", BACKENDS)
def test_remove_points_matches_full_recompute(data, backend):
    v = make_valuator(data, backend)
    doomed = [0, 17, 149, 80]
    v.remove_points(doomed)
    ref = full_values(
        np.delete(data.x_train, doomed, axis=0),
        np.delete(data.y_train, doomed),
        data.x_test,
        data.y_test,
        4,
    )
    assert v.n_train == 146
    np.testing.assert_allclose(v.values().values, ref, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(v.recompute().values, ref)


@pytest.mark.parametrize("backend", BACKENDS)
def test_interleaved_churn_stays_exact(data, backend, rng):
    """A long add/remove sequence tracks the reference throughout."""
    v = make_valuator(data, backend)
    x_train = data.x_train.copy()
    y_train = data.y_train.copy()
    for step in range(12):
        if x_train.shape[0] > 20 and step % 3 == 2:
            t = int(rng.integers(0, x_train.shape[0]))
            v.remove_points([t])
            x_train = np.delete(x_train, [t], axis=0)
            y_train = np.delete(y_train, [t])
        else:
            x_new = rng.standard_normal((1, 6))
            y_new = rng.integers(0, 3, 1)
            v.add_points(x_new, y_new)
            x_train = np.vstack((x_train, x_new))
            y_train = np.concatenate((y_train, y_new))
        ref = full_values(x_train, y_train, data.x_test, data.y_test, 4)
        np.testing.assert_allclose(v.values().values, ref, rtol=0, atol=1e-12)


# ------------------------------------------------------------ round trip
@pytest.mark.parametrize("backend", BACKENDS)
def test_add_then_remove_round_trip_is_bit_exact(data, backend, rng):
    """Adding points and removing them again restores the Shapley
    vector bit-for-bit (the rank state round-trips exactly)."""
    v = make_valuator(data, backend)
    before = v.recompute().values.copy()
    idx = v.add_points(rng.standard_normal((3, 6)), rng.integers(0, 3, 3))
    v.remove_points(idx)
    np.testing.assert_array_equal(v.recompute().values, before)
    # and the incrementally repaired vector stays inside the acceptance
    # bound without any resync
    np.testing.assert_allclose(v.values().values, before, rtol=0, atol=1e-12)


def test_remove_then_readd_duplicate_geometry(data):
    """Removing a point and re-adding identical coordinates restores the
    same values: the re-added point takes the tie-slot its index
    dictates, and matching labels make the valuation identical."""
    v = make_valuator(data, "brute")
    before = v.recompute().values.copy()
    x17, y17 = data.x_train[17].copy(), data.y_train[17]
    v.remove_points([17])
    v.add_points(x17, y17)
    after = v.recompute().values
    # the point now lives at index 149 (it re-entered last); its value
    # is unchanged, as is everyone else's
    np.testing.assert_allclose(after[-1], before[17], rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        np.delete(after, -1), np.delete(before, 17), rtol=0, atol=1e-15
    )


# ------------------------------------------------------------ edge cases
def test_duplicate_coordinates_tie_break(rng):
    """A new point duplicating an incumbent ranks after it (by index)."""
    x_train = rng.standard_normal((12, 3))
    y_train = rng.integers(0, 2, 12)
    v = IncrementalValuator(x_train, y_train, 2).fit(
        x_train[:4] + 0.3, y_train[:4]
    )
    v.add_points(x_train[5], 1 - y_train[5])  # exact duplicate, other label
    ref = full_values(
        np.vstack((x_train, x_train[5:6])),
        np.concatenate((y_train, [1 - y_train[5]])),
        x_train[:4] + 0.3,
        y_train[:4],
        2,
    )
    np.testing.assert_array_equal(v.recompute().values, ref)
    np.testing.assert_allclose(v.values().values, ref, rtol=0, atol=1e-12)


def test_k_geq_n_corner(rng):
    """Shrinking below K keeps the exact K >= N anchor semantics."""
    x_train = rng.standard_normal((6, 2))
    y_train = rng.integers(0, 2, 6)
    x_test = rng.standard_normal((3, 2))
    y_test = rng.integers(0, 2, 3)
    v = IncrementalValuator(x_train, y_train, 5).fit(x_test, y_test)
    v.remove_points([1, 4])  # n = 4 < k
    ref = full_values(
        np.delete(x_train, [1, 4], axis=0),
        np.delete(y_train, [1, 4]),
        x_test,
        y_test,
        5,
    )
    np.testing.assert_allclose(v.values().values, ref, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(v.recompute().values, ref)


def test_mutations_before_fit_then_fit(data, rng):
    """Mutations are legal pre-fit; fit then ranks the mutated set."""
    v = IncrementalValuator(data.x_train, data.y_train, 3)
    x_new = rng.standard_normal((2, 6))
    y_new = rng.integers(0, 3, 2)
    v.add_points(x_new, y_new)
    v.remove_points([0])
    with pytest.raises(NotFittedError):
        v.values()
    v.fit(data.x_test, data.y_test)
    ref = full_values(
        np.delete(np.vstack((data.x_train, x_new)), [0], axis=0),
        np.delete(np.concatenate((data.y_train, y_new)), [0]),
        data.x_test,
        data.y_test,
        3,
    )
    np.testing.assert_array_equal(v.values().values, ref)


def test_validation_errors(data, rng):
    v = make_valuator(data, "brute")
    with pytest.raises(ParameterError):
        v.add_points(rng.standard_normal((2, 9)), [0, 1])  # wrong width
    with pytest.raises(ParameterError):
        v.remove_points([999])
    with pytest.raises(ParameterError):
        v.remove_points([3, 3])
    with pytest.raises(ParameterError):
        v.remove_points(np.arange(v.n_train))  # cannot empty the set
    with pytest.raises(ParameterError):
        IncrementalValuator(data.x_train, data.y_train, 0)
    with pytest.raises(ParameterError):
        IncrementalValuator(data.x_train, data.y_train, 3, backend="lsh")


def test_remove_noop_and_counters(data):
    v = make_valuator(data, "brute")
    v.remove_points([])
    assert v.n_mutations == 0
    v.add_points(data.x_train[0], data.y_train[0])
    assert v.n_mutations == 1
    assert v.values().extra["n_mutations"] == 1
    assert v.values().extra["backend"] == "brute"


def test_backends_agree_bitwise_under_churn(data, rng):
    """Brute and blocked maintain identical state through mutations."""
    a = make_valuator(data, "brute")
    b = make_valuator(data, "blocked")
    moves_x = rng.standard_normal((4, 6))
    moves_y = rng.integers(0, 3, 4)
    for va in (a, b):
        va.add_points(moves_x, moves_y)
        va.remove_points([10, 151])
    np.testing.assert_array_equal(a.values().values, b.values().values)
    np.testing.assert_array_equal(a.recompute().values, b.recompute().values)


def test_metric_adopted_from_backend_and_conflicts_refused(rng):
    """The valuator scores new points in the backend's geometry; a
    conflicting explicit metric is an error, not silent corruption."""
    x_train = rng.standard_normal((40, 4))
    y_train = rng.integers(0, 2, 40)
    x_test = rng.standard_normal((6, 4))
    y_test = rng.integers(0, 2, 6)
    v = IncrementalValuator(
        x_train, y_train, 3, backend="brute", backend_options={"metric": "cosine"}
    ).fit(x_test, y_test)
    assert v.metric == "cosine"
    v.add_points(rng.standard_normal(4), 1)
    ref = make_backend("brute", metric="cosine").fit(v.x_train).rank(x_test)
    got, _ = exact_knn_shapley_from_order(ref, v.y_train, y_test, 3)
    np.testing.assert_array_equal(v.recompute().values, got)
    with pytest.raises(ParameterError, match="conflicts"):
        IncrementalValuator(
            x_train, y_train, 3, metric="euclidean",
            backend="brute", backend_options={"metric": "cosine"},
        )


def test_lsh_backend_is_refused_before_it_fits(data, monkeypatch):
    from repro.engine import LSHNeighborBackend

    fits = []
    real = LSHNeighborBackend._fit
    monkeypatch.setattr(
        LSHNeighborBackend, "_fit", lambda self, x: fits.append(1) or real(self, x)
    )
    with pytest.raises(ParameterError, match="full"):
        IncrementalValuator(data.x_train, data.y_train, 3, backend="lsh")
    assert fits == []
