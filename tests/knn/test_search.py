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



# ------------------------------------------------- the block-minimum prune
def _patched_sq(monkeypatch, sq):
    """Route search's distance lookups to a fixed squared-distance matrix."""
    import repro.knn.search as search_mod

    def fake(name):
        def metric(queries, data, norms=None):
            out = sq.copy()
            return out if name == "sqeuclidean" else np.sqrt(out, out=out)
        return metric

    monkeypatch.setattr(search_mod, "get_metric", fake)


def _spy_select(monkeypatch):
    """Record ``(candidate width, pruned)`` for every selection ``top_k`` runs."""
    import repro.knn.search as search_mod

    widths = []
    real = search_mod._select

    def spy(dist, k, cols):
        widths.append((dist.shape[1], cols is not None))
        return real(dist, k, cols)

    monkeypatch.setattr(search_mod, "_select", spy)
    return widths


def test_prune_falls_back_to_the_whole_row_when_ties_keep_most_blocks(monkeypatch):
    """Integer data on a line: every block holds a point at the k-th
    block minimum, so pruning would gather every column."""
    from repro.knn.search import PRUNE_BLOCK, PRUNE_BLOCKS_PER_K

    n = 2 * PRUNE_BLOCK * PRUNE_BLOCKS_PER_K * 5
    data = (np.arange(n) % 7).astype(np.float64)[:, None]
    queries = np.array([[3.0], [0.0], [9.5]])
    widths = _spy_select(monkeypatch)
    order, sorted_dist = argsort_by_distance(queries, data)
    idx, dist = top_k(queries, data, 5)
    assert widths == [(n, False)]
    np.testing.assert_array_equal(idx, order[:, :5])
    np.testing.assert_array_equal(dist.view(np.int64), sorted_dist[:, :5].view(np.int64))
    # distinct points on the same line keep a few blocks per row: pruned
    spread = np.arange(n, dtype=np.float64)[:, None]
    widths.clear()
    order, sorted_dist = argsort_by_distance(queries, spread)
    idx, dist = top_k(queries, spread, 5)
    assert widths == [(5 * PRUNE_BLOCK, True)]  # the five nearest blocks
    np.testing.assert_array_equal(idx, order[:, :5])
    np.testing.assert_array_equal(dist.view(np.int64), sorted_dist[:, :5].view(np.int64))


def test_prune_keeps_a_block_whose_minimum_ties_only_after_the_root(monkeypatch):
    """Two squared distances with one square root, in different blocks:
    the larger squared distance sits at the lower index and must win."""
    from repro.knn.search import PRUNE_BLOCK, PRUNE_BLOCKS_PER_K

    lo = 2.0
    hi = np.nextafter(lo, np.inf)
    assert hi > lo and np.sqrt(hi) == np.sqrt(lo)
    n = 2 * PRUNE_BLOCK * PRUNE_BLOCKS_PER_K + 7  # pruned at k=1
    sq = np.full((1, n), 100.0)
    sq[0, 5] = hi  # block 0
    sq[0, 2 * PRUNE_BLOCK + 3] = lo  # block 2
    _patched_sq(monkeypatch, sq)
    widths = _spy_select(monkeypatch)
    data, queries = np.zeros((n, 1)), np.zeros((1, 1))
    idx, dist = top_k(queries, data, 1)
    assert widths == [(3 * PRUNE_BLOCK, True)]  # blocks 0, 2 and the remainder
    assert idx.tolist() == [[5]]
    assert dist[0, 0] == np.sqrt(hi)
    order, _ = argsort_by_distance(queries, data)
    assert order[0, 0] == 5


@pytest.mark.parametrize("metric", ["euclidean", "sqeuclidean", "cosine", "manhattan"])
@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("q", [1, 3])
def test_top_k_at_the_prune_threshold(rng, metric, k, q):
    """N at, just below and just above the prune threshold, as an exact
    multiple of the block and not; one-decimal data with duplicated rows."""
    from repro.knn.search import PRUNE_BLOCK, PRUNE_BLOCKS_PER_K

    edge = PRUNE_BLOCK * PRUNE_BLOCKS_PER_K * k
    for n in (edge - 1, edge, edge + 1, edge + PRUNE_BLOCK):
        data = np.round(rng.standard_normal((n, 3)), 1)
        data[rng.choice(n, n // 8)] = data[rng.choice(n, n // 8)]
        queries = np.round(rng.standard_normal((q, 3)), 1)
        order, sorted_dist = argsort_by_distance(queries, data, metric=metric)
        idx, dist = top_k(queries, data, k, metric=metric)
        np.testing.assert_array_equal(idx, order[:, :k])
        np.testing.assert_array_equal(
            dist.view(np.int64), sorted_dist[:, :k].view(np.int64)
        )


def test_index_keeps_its_norms_and_answers_like_the_functions(rng, monkeypatch):
    import repro.knn.search as search_mod

    calls = []
    real = search_mod.row_norms

    def counting(data, metric):
        calls.append(metric)
        return real(data, metric)

    monkeypatch.setattr(search_mod, "row_norms", counting)
    data = np.round(rng.standard_normal((3000, 4)), 1)
    for metric in ("euclidean", "cosine", "manhattan"):
        index = KNNSearchIndex(data, metric=metric)
        for _ in range(3):
            queries = rng.standard_normal((5, 4))
            for got, want in zip(index.query(queries, 6), top_k(queries, data, 6, metric)):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            for got, want in zip(
                index.query_all(queries), argsort_by_distance(queries, data, metric)
            ):
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            np.testing.assert_array_equal(
                index.distances(queries), get_metric(metric)(queries, data)
            )
    assert calls == ["euclidean", "cosine", "manhattan"]  # once per index
    assert KNNSearchIndex(data, metric="manhattan").data_norms is None
