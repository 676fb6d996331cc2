"""Tests for brute-force nearest-neighbor search."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.knn import (
    KNNSearchIndex,
    argsort_by_distance,
    get_metric,
    stable_argsort_rows,
    top_k,
)


def test_argsort_is_full_ascending(rng):
    data = rng.standard_normal((40, 6))
    queries = rng.standard_normal((5, 6))
    order, dist = argsort_by_distance(queries, data)
    assert order.shape == (5, 40)
    assert np.all(np.diff(dist, axis=1) >= -1e-12)
    # rows are permutations
    for row in order:
        assert sorted(row.tolist()) == list(range(40))


def test_top_k_matches_argsort(rng):
    data = rng.standard_normal((50, 4))
    queries = rng.standard_normal((3, 4))
    order, dist = argsort_by_distance(queries, data)
    idx, d = top_k(queries, data, 7)
    np.testing.assert_array_equal(idx, order[:, :7])
    np.testing.assert_allclose(d, dist[:, :7])


def test_top_k_caps_at_n(rng):
    data = np.round(rng.standard_normal((15, 2)))  # tie-heavy
    queries = np.round(rng.standard_normal((4, 2)))
    dist = get_metric("euclidean")(queries, data)
    order = np.argsort(dist, axis=1, kind="stable")
    for k in (15, 16, 100):
        idx, d = top_k(queries, data, k)
        assert idx.shape == (4, 15)
        np.testing.assert_array_equal(idx, order)
        np.testing.assert_array_equal(d, np.take_along_axis(dist, order, axis=1))


def test_tie_break_is_stable():
    data = np.zeros((5, 2))  # all identical -> all tie
    queries = np.ones((1, 2))
    idx, _ = top_k(queries, data, 3)
    np.testing.assert_array_equal(idx[0], [0, 1, 2])


def test_top_k_boundary_ties_are_deterministic():
    """Points tied at the k-th distance must be selected by index.

    Regression test: the argpartition fast path used to admit an
    arbitrary subset of the tied points, contradicting the module's
    determinism guarantee.
    """
    # 6 points at distance 1 from the origin query, 2 strictly closer
    data = np.array(
        [[1.0, 0], [0, 1], [-1, 0], [0, -1], [0.5, 0], [1, 0], [0, 1], [0, 0.5]]
    )
    queries = np.zeros((1, 2))
    order, _ = argsort_by_distance(queries, data)
    for k in range(1, data.shape[0] + 1):
        idx, dist = top_k(queries, data, k)
        np.testing.assert_array_equal(idx, order[:, :k])
        assert np.all(np.diff(dist[0]) >= 0)
    # tied block itself is listed in ascending index order
    idx6, _ = top_k(queries, data, 6)
    np.testing.assert_array_equal(idx6[0], [4, 7, 0, 1, 2, 3])


def test_top_k_matches_argsort_under_duplicates(rng):
    """Many duplicated rows: selection and order still match the
    stable full sort for every k."""
    base = rng.standard_normal((12, 3))
    data = np.vstack([base, base, base])  # every distance appears 3x
    queries = rng.standard_normal((4, 3))
    order, _ = argsort_by_distance(queries, data)
    for k in (1, 5, 17, 30):
        idx, _ = top_k(queries, data, k)
        np.testing.assert_array_equal(idx, order[:, :k])


def test_stable_argsort_rows_matches_numpy_stable(rng):
    dense = rng.standard_normal((6, 80))
    tied = rng.integers(0, 4, size=(6, 80)).astype(np.float64)
    flat = np.zeros((2, 40))
    single = rng.standard_normal((3, 1))
    for dist in (dense, tied, flat, single):
        np.testing.assert_array_equal(
            stable_argsort_rows(dist),
            np.argsort(dist, axis=1, kind="stable"),
        )


def test_top_k_rejects_bad_k(rng):
    data = rng.standard_normal((4, 2))
    with pytest.raises(ParameterError):
        top_k(data, data, 0)


def test_index_interface(rng):
    data = rng.standard_normal((30, 5))
    queries = rng.standard_normal((4, 5))
    index = KNNSearchIndex(data)
    idx, dist = index.query(queries, 5)
    expected_idx, expected_dist = top_k(queries, data, 5)
    np.testing.assert_array_equal(idx, expected_idx)
    np.testing.assert_allclose(dist, expected_dist)
    assert index.n == 30
    assert index.metric == "euclidean"
    order, _ = index.query_all(queries)
    assert order.shape == (4, 30)


def test_index_rejects_empty():
    with pytest.raises(ParameterError):
        KNNSearchIndex(np.empty((0, 3)))


def test_top_k_mixes_tied_and_untied_rows_in_one_batch(rng):
    """One call runs both paths: rows whose k-th distance is tied with
    a point outside the candidates, and rows where it is not."""
    grid = np.array([[x, y] for x in range(-3, 4) for y in range(-3, 4)], float)
    data = np.vstack([grid, rng.standard_normal((20, 2)) * 3])
    queries = np.vstack([
        np.zeros((1, 2)),  # 4 grid points at distance 1, k=3 splits them
        rng.standard_normal((3, 2)) + 0.1,  # generic: no boundary tie
        np.array([[0.5, 0.5]]),  # 4 grid points at sqrt(0.5)
    ])
    k = 3
    dist = get_metric("euclidean")(queries, data)
    kth = np.sort(dist, axis=1)[:, k - 1 : k]
    at_or_below = np.count_nonzero(dist <= kth, axis=1)
    assert (at_or_below > k).any() and (at_or_below == k).any()
    order = np.argsort(dist, axis=1, kind="stable")[:, :k]
    idx, sel_dist = top_k(queries, data, k)
    np.testing.assert_array_equal(idx, order)
    np.testing.assert_array_equal(sel_dist, np.take_along_axis(dist, order, axis=1))

