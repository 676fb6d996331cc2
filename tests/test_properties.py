"""Property-based tests (hypothesis) on the core invariants.

Each property mirrors a theorem or axiom from the paper:

* exact == brute force on arbitrary small instances (Theorems 1, 6);
* the Shapley axioms: group rationality, symmetry, null player;
* the Appendix C bound |s_alpha_i| <= min(1/i, 1/K);
* truncation error bound (Theorem 2);
* heap == sort (Algorithm 2's data structure);
* the engine's packed-key sort == numpy's stable argsort, ties,
  signed zeros and distances differing only in the index bits included;
* the one-pass top-k selection == numpy's stable argsort, ties included;
* the block-pruned top-k == the head of the stable ranking, on both
  sides of the prune threshold;
* a brute ranking split into row blocks == the same ranking in one block.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (
    exact_knn_regression_shapley,
    exact_knn_shapley,
    shapley_by_subsets,
    truncated_knn_shapley,
    truncation_rank,
)
from repro.core.heap import KNearestHeap
from repro.engine import BruteForceBackend
from repro.engine import backends as backends_mod
from repro.knn import (
    argsort_by_distance,
    get_metric,
    stable_argsort_rows,
    stable_sort_rows,
    top_k,
)
from repro.knn.search import PRUNE_BLOCK, PRUNE_BLOCKS_PER_K
from repro.metrics import max_abs_error
from repro.types import Dataset
from repro.utility import KNNClassificationUtility, KNNRegressionUtility


def _cls_dataset(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    x_train = rng.standard_normal((n, d))
    y_train = rng.integers(0, draw(st.integers(2, 3)), size=n)
    x_test = rng.standard_normal((2, d))
    y_test = rng.integers(0, 2, size=2)
    return Dataset(x_train, y_train, x_test, y_test)


@st.composite
def cls_datasets(draw):
    return _cls_dataset(draw)


@st.composite
def reg_datasets(draw):
    n = draw(st.integers(2, 8))
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    x_train = rng.standard_normal((n, d))
    y_train = rng.uniform(-1, 1, size=n)
    x_test = rng.standard_normal((2, d))
    y_test = rng.uniform(-1, 1, size=2)
    return Dataset(x_train, y_train, x_test, y_test)


@settings(max_examples=25, deadline=None)
@given(data=cls_datasets(), k=st.integers(1, 4))
def test_exact_equals_brute_force(data, k):
    utility = KNNClassificationUtility(data, k)
    oracle = shapley_by_subsets(utility)
    fast = exact_knn_shapley(data, k)
    assert max_abs_error(fast.values, oracle.values) < 1e-10


@settings(max_examples=20, deadline=None)
@given(data=reg_datasets(), k=st.integers(1, 3))
def test_regression_equals_brute_force(data, k):
    utility = KNNRegressionUtility(data, k)
    oracle = shapley_by_subsets(utility)
    fast = exact_knn_regression_shapley(data, k)
    assert max_abs_error(fast.values, oracle.values) < 1e-8


@settings(max_examples=25, deadline=None)
@given(data=cls_datasets(), k=st.integers(1, 4))
def test_group_rationality(data, k):
    utility = KNNClassificationUtility(data, k)
    result = exact_knn_shapley(data, k)
    assert result.total() == pytest.approx(utility.total_gain(), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(data=cls_datasets(), k=st.integers(1, 3))
def test_appendix_c_bound(data, k):
    result = exact_knn_shapley(data, k)
    per_test = result.extra["per_test"]
    utility = KNNClassificationUtility(data, k)
    n = data.n_train
    ranks = np.arange(1, n + 1)
    bound = np.minimum(1.0 / ranks, 1.0 / k)
    for j in range(data.n_test):
        s_rank = per_test[j][utility.order[j]]
        assert np.all(np.abs(s_rank) <= bound + 1e-12)


@settings(max_examples=20, deadline=None)
@given(
    data=cls_datasets(),
    k=st.integers(1, 3),
    epsilon=st.floats(0.05, 0.9),
)
def test_truncation_error_bound(data, k, epsilon):
    exact = exact_knn_shapley(data, k)
    approx = truncated_knn_shapley(data, k, epsilon)
    assert max_abs_error(approx.values, exact.values) <= epsilon + 1e-12


@settings(max_examples=30, deadline=None)
@given(
    dists=st.lists(
        st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=60
    ),
    k=st.integers(1, 8),
)
def test_heap_matches_argsort(dists, k):
    heap = KNearestHeap(k)
    for i, d in enumerate(dists):
        heap.push(float(d), i)
    kept = sorted(heap.payloads())
    expected = sorted(
        np.argsort(np.asarray(dists), kind="stable")[:k].tolist()
    )
    assert kept == expected


@settings(max_examples=15, deadline=None)
@given(data=cls_datasets(), k=st.integers(1, 3))
def test_symmetry_of_duplicates(data, k):
    """Two identical training points (same x, same y) get equal values."""
    x = np.vstack([data.x_train, data.x_train[:1]])
    y = np.append(data.y_train, data.y_train[0])
    dup = Dataset(x, y, data.x_test, data.y_test)
    utility = KNNClassificationUtility(dup, k)
    oracle = shapley_by_subsets(utility)
    assert oracle.values[0] == pytest.approx(
        oracle.values[-1], abs=1e-10
    )


@settings(max_examples=10, deadline=None)
@given(data=cls_datasets(), k=st.integers(1, 3))
def test_truncation_rank_consistency(data, k):
    """epsilon >= 1 truncates to K; tiny epsilon keeps everything."""
    assert truncation_rank(k, 1.0) == k
    big = truncated_knn_shapley(data, k, 1e-9)
    exact = exact_knn_shapley(data, k)
    assert max_abs_error(big.values, exact.values) < 1e-10


@st.composite
def tie_dense_matrices(draw):
    """Distance-like matrices whose rows are full of exact ties."""
    q = draw(st.integers(1, 6))
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    kind = draw(
        st.sampled_from(["integers", "constant", "signed-zero", "duplicates"])
    )
    if kind == "integers":
        levels = draw(st.integers(1, 8))
        return rng.integers(0, levels, size=(q, n)).astype(np.float64)
    if kind == "constant":
        return np.full((q, n), rng.standard_normal())
    if kind == "signed-zero":
        return rng.choice(np.array([-0.0, 0.0, 1.0]), size=(q, n))
    dist = rng.standard_normal((q, n))
    dist[:, rng.integers(0, n, size=n // 2)] = dist[:, :1]
    return dist


@settings(max_examples=60, deadline=None)
@given(dist=tie_dense_matrices())
@example(dist=np.zeros((1, 1)))
@example(dist=np.array([[0.0, -0.0, 0.0, -0.0]]))
@example(dist=np.array([[2.0], [1.0], [2.0]]))
def test_stable_sort_rows_matches_numpy_stable(dist):
    _assert_matches_numpy_stable(dist)


def _assert_matches_numpy_stable(dist):
    expected = np.argsort(dist, axis=1, kind="stable")
    order, sorted_dist = stable_sort_rows(dist)
    np.testing.assert_array_equal(order, expected)
    np.testing.assert_array_equal(stable_argsort_rows(dist), expected)
    gathered = np.take_along_axis(dist, expected, axis=1)
    # compared bit for bit, so -0.0 and 0.0 are told apart
    np.testing.assert_array_equal(
        sorted_dist.view(np.int64), gathered.view(np.int64)
    )


@st.composite
def packed_key_edge_matrices(draw):
    """Rows only a packed (distance, index) key sort can get wrong.

    ``n`` sits on both sides of a power of two, so the index fills its
    ``(n - 1).bit_length()`` low bits exactly (256) or not (255, 257).
    ``low-bits`` rows hold distances that differ only in those bits
    (``1.0 + j * 2**-50`` is ``4 j`` ulps above 1.0), mixed with exact
    ties; ``specials`` rows mix signed zeros, negatives and infinities.
    """
    q = draw(st.integers(1, 4))
    n = draw(st.sampled_from([1, 2, 255, 256, 257]))
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    if draw(st.sampled_from(["low-bits", "specials"])) == "low-bits":
        dist = 1.0 + rng.integers(0, draw(st.integers(1, 128)), size=(q, n)) * 2.0**-50
        sign = rng.choice(np.array([-1.0, 1.0]), size=(q, 1))
        return dist * sign
    values = np.array([-0.0, 0.0, -2.5, -1.0, 1.0, np.inf, -np.inf, 5e-324, -5e-324])
    return rng.choice(values, size=(q, n))


@settings(max_examples=60, deadline=None)
@given(dist=packed_key_edge_matrices())
@example(dist=np.array([[1.0 + 3 * 2.0**-52, 1.0 + 2.0**-52, 1.0]]))
@example(dist=-(1.0 + np.arange(256)[::-1][None, :] * 2.0**-52))
def test_stable_sort_rows_packed_key_edges(dist):
    _assert_matches_numpy_stable(dist)


@st.composite
def rounded_search_instances(draw):
    """Integer-rounded points: many distances tie, at the k-th too."""
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 50))
    d = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([0.5, 1.0, 3.0]))
    data = np.round(rng.standard_normal((n, d)) * scale)
    queries = np.round(rng.standard_normal((draw(st.integers(1, 6)), d)) * scale)
    return queries, data, draw(st.integers(1, n + 2))


@settings(max_examples=80, deadline=None)
@given(instance=rounded_search_instances())
def test_top_k_matches_numpy_stable_on_ties(instance):
    queries, data, k = instance
    dist = get_metric("euclidean")(queries, data)
    expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
    idx, sel_dist = top_k(queries, data, k)
    np.testing.assert_array_equal(idx, expected)
    np.testing.assert_array_equal(
        sel_dist.view(np.int64),
        np.take_along_axis(dist, expected, axis=1).view(np.int64),
    )


@st.composite
def pruned_search_instances(draw):
    """Shapes on both sides of top_k's block prune.

    N rarely a multiple of the block, q down to 1, rows copied into
    other blocks so duplicated points straddle blocks, and one-decimal
    data whose distances tie across blocks.
    """
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    k = draw(st.integers(1, 6))
    edge = PRUNE_BLOCK * PRUNE_BLOCKS_PER_K * k
    n = draw(st.integers(max(1, edge - 2 * PRUNE_BLOCK), edge + 3 * PRUNE_BLOCK))
    d = draw(st.integers(1, 4))
    data = rng.standard_normal((n, d))
    queries = rng.standard_normal((draw(st.sampled_from([1, 2, 5])), d))
    if draw(st.booleans()):
        data, queries = np.round(data, 1), np.round(queries, 1)
    copies = draw(st.integers(0, 40))
    src = rng.integers(0, n, copies)
    data[(src + PRUNE_BLOCK * rng.integers(1, 4, copies)) % n] = data[src]
    metric = draw(st.sampled_from(["euclidean", "sqeuclidean", "cosine", "manhattan"]))
    return queries, data, k, metric


@settings(max_examples=60, deadline=None)
@given(instance=pruned_search_instances())
def test_pruned_top_k_is_the_head_of_the_stable_ranking(instance):
    queries, data, k, metric = instance
    order, sorted_dist = argsort_by_distance(queries, data, metric=metric)
    idx, dist = top_k(queries, data, k, metric=metric)
    np.testing.assert_array_equal(idx, order[:, :k])
    np.testing.assert_array_equal(
        dist.view(np.int64), sorted_dist[:, :k].view(np.int64)
    )


@st.composite
def split_rank_instances(draw):
    """One-decimal points around the split floor, so some rankings split."""
    rng = np.random.default_rng(draw(st.integers(0, 10**6)))
    q = draw(st.integers(2, 8))
    n = draw(st.integers(backends_mod.SPLIT_FLOOR // 4, backends_mod.SPLIT_FLOOR))
    d = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 4.0]))
    data = np.round(rng.standard_normal((n, d)) * scale, 1)
    queries = np.round(rng.standard_normal((q, d)) * scale, 1)
    metric = draw(st.sampled_from(["euclidean", "cosine", "manhattan"]))
    return queries, data, metric, draw(st.integers(2, 4))


@settings(max_examples=10, deadline=None)
@given(instance=split_rank_instances())
def test_split_ranking_equals_one_block(instance):
    queries, data, metric, cores = instance
    backend = BruteForceBackend(metric=metric).fit(data)
    with mock.patch.object(backends_mod, "usable_cores", lambda: 1):
        order = backend.rank(queries)
        pair = backend.rank_with_distances(queries)
    with mock.patch.object(backends_mod, "usable_cores", lambda: cores):
        np.testing.assert_array_equal(backend.rank(queries), order)
        for got, want in zip(backend.rank_with_distances(queries), pair):
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
