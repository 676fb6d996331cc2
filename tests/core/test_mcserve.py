"""Tests for the event-driven Monte Carlo sampler of the overload rung.

The oracle below is the per-insertion replay the sampler replaced: it
walks every permutation with fixed-size skip-scan blocks, gathers both
the distance and the match row in permutation order, and scatters a
dense buffer.  The event-driven sampler must return bit-identical
values for the same permutation stream.
"""

import heapq

import numpy as np
import pytest

from repro.core.exact import exact_knn_shapley_from_order
from repro.core.mcserve import mc_values_from_distances
from repro.exceptions import DataValidationError, ParameterError


def _reference_one_permutation(d, m, k, out, block):
    n = d.shape[0]
    heap = []  # max-heap by distance: (-d, t)
    t = 0
    while t < n:
        if len(heap) < k:
            heapq.heappush(heap, (-d[t], t))
            out[t] += m[t] / k
            t += 1
            continue
        threshold = -heap[0][0]
        event = -1
        while t < n:
            stop = min(n, t + block)
            hits = np.flatnonzero(d[t:stop] < threshold)
            if hits.size:
                event = t + int(hits[0])
                break
            t = stop
        if event < 0:
            return
        t = event
        _, evicted = heapq.heapreplace(heap, (-d[t], t))
        out[t] += (m[t] - m[evicted]) / k
        t += 1


def _reference_values(dist, match, k, n_permutations, rng, block=2048):
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    match = np.ascontiguousarray(match, dtype=np.float64)
    q, n = dist.shape
    values = np.zeros((q, n), dtype=np.float64)
    buf = np.empty(n, dtype=np.float64)
    for _ in range(n_permutations):
        perm = rng.permutation(n)
        for j in range(q):
            d_perm = dist[j].take(perm)
            m_perm = match[j].take(perm)
            buf[:] = 0.0
            _reference_one_permutation(d_perm, m_perm, k, buf, block)
            values[j, perm] += buf
    values /= n_permutations
    return values


def _problem(q, n, seed, n_levels=None):
    """Distances (tied to ``n_levels`` values when given) and matches."""
    rng = np.random.default_rng(seed)
    if n_levels is None:
        dist = rng.random((q, n))
    else:
        dist = rng.integers(0, n_levels, size=(q, n)).astype(np.float64)
    y_train = rng.integers(0, 3, size=n)
    y_test = rng.integers(0, 3, size=q)
    match = (y_train[None, :] == y_test[:, None]).astype(np.float64)
    return dist, match, y_train, y_test


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "q, n, k, n_levels",
    [
        (4, 300, 3, None),  # untied
        (4, 300, 3, 5),  # heavy ties: every distance is one of 5 values
        (3, 500, 1, None),  # k = 1
        (3, 500, 1, 2),
        (2, 4, 7, None),  # n < k: every insertion is a prefix insertion
        (2, 6, 6, 3),  # n == k
        (1, 5000, 5, None),  # q = 1, a scan spanning many blocks
        (1, 5000, 5, 40),
    ],
)
def test_bit_identical_to_per_insertion_replay(seed, q, n, k, n_levels):
    dist, match, _, _ = _problem(q, n, seed, n_levels)
    got = mc_values_from_distances(dist, match, k, 7, np.random.default_rng(seed))
    want = _reference_values(dist, match, k, 7, np.random.default_rng(seed))
    assert np.array_equal(got, want)


def test_converges_to_exact_values():
    q, n, k = 3, 12, 3
    dist, match, y_train, y_test = _problem(q, n, 11)
    order = np.argsort(dist, axis=1, kind="stable")
    _, exact = exact_knn_shapley_from_order(order, y_train, y_test, k)
    est = mc_values_from_distances(dist, match, k, 4000, np.random.default_rng(0))
    assert np.abs(est - exact).max() < 0.03
    # efficiency: each permutation's marginals telescope to U(all)
    np.testing.assert_allclose(est.sum(axis=1), exact.sum(axis=1), atol=1e-12)


def test_rejects_bad_inputs():
    dist, match, _, _ = _problem(2, 10, 0)
    rng = np.random.default_rng(0)
    with pytest.raises(DataValidationError):
        mc_values_from_distances(dist, match[:1], 3, 2, rng)
    with pytest.raises(ParameterError):
        mc_values_from_distances(dist, match, 0, 2, rng)
    with pytest.raises(ParameterError):
        mc_values_from_distances(dist, match, 3, 0, rng)
