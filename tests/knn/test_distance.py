"""Tests for the distance kernels."""

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.knn import (
    cosine_distances,
    euclidean_distances,
    get_metric,
    manhattan_distances,
    squared_euclidean_distances,
)


@pytest.fixture()
def pair(rng):
    return rng.standard_normal((7, 5)), rng.standard_normal((11, 5))


def _naive(queries, data, fn):
    out = np.empty((queries.shape[0], data.shape[0]))
    for i, q in enumerate(queries):
        for j, d in enumerate(data):
            out[i, j] = fn(q, d)
    return out


def test_euclidean_matches_naive(pair):
    q, d = pair
    expected = _naive(q, d, lambda a, b: np.linalg.norm(a - b))
    np.testing.assert_allclose(euclidean_distances(q, d), expected, atol=1e-10)


def test_squared_euclidean_matches_naive(pair):
    q, d = pair
    expected = _naive(q, d, lambda a, b: np.sum((a - b) ** 2))
    np.testing.assert_allclose(
        squared_euclidean_distances(q, d), expected, atol=1e-9
    )


def test_in_place_distances_bitwise_equal_textbook_expression(rng):
    # duplicate rows and large offsets make cancellation, clamped
    # zeros and exact ties: the in-place arithmetic must still match
    # the expanded quadratic form written out, bit for bit
    data = rng.standard_normal((300, 9)) * 10.0 + 1e3
    data[150:] = data[:150]
    queries = np.vstack([rng.standard_normal((20, 9)) * 10.0 + 1e3, data[:5]])
    q_norms = np.einsum("ij,ij->i", queries, queries)
    d_norms = np.einsum("ij,ij->i", data, data)
    sq = q_norms[:, None] - 2.0 * (queries @ data.T) + d_norms[None, :]
    sq = np.maximum(sq, 0.0)
    assert (sq == 0.0).any()
    got = squared_euclidean_distances(queries, data)
    np.testing.assert_array_equal(got.view(np.int64), sq.view(np.int64))
    got = euclidean_distances(queries, data)
    np.testing.assert_array_equal(got.view(np.int64), np.sqrt(sq).view(np.int64))


def test_manhattan_matches_naive(pair):
    q, d = pair
    expected = _naive(q, d, lambda a, b: np.sum(np.abs(a - b)))
    np.testing.assert_allclose(manhattan_distances(q, d), expected, atol=1e-10)


def test_cosine_matches_naive(pair):
    q, d = pair
    expected = _naive(
        q,
        d,
        lambda a, b: 1
        - np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)),
    )
    np.testing.assert_allclose(cosine_distances(q, d), expected, atol=1e-10)


def test_self_distance_zero(rng):
    x = rng.standard_normal((5, 4))
    np.testing.assert_allclose(
        np.diag(euclidean_distances(x, x)), 0.0, atol=1e-7
    )


def test_no_negative_from_cancellation():
    x = np.array([[1e8, 1.0], [1e8, 1.0 + 1e-7]])
    sq = squared_euclidean_distances(x, x)
    assert np.all(sq >= 0.0)


def test_cosine_zero_vector():
    q = np.zeros((1, 3))
    d = np.array([[1.0, 0.0, 0.0]])
    assert cosine_distances(q, d)[0, 0] == pytest.approx(1.0)


def test_get_metric_unknown():
    with pytest.raises(ParameterError):
        get_metric("hamming")


def test_get_metric_known():
    assert get_metric("euclidean") is euclidean_distances
