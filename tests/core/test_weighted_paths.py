"""Tests for the weighted kernel's K >= 2 fast-path stack.

Layer 1 — the O(N·K^2) piecewise counting path (rank-only weight
functions): bit-match against the reference recursion, agreement with
the exhaustive 2^N oracle, and the Appendix-F group algebra itself.
Layer 2 — the batched configuration engine: bit-match against the
reference for every built-in weight function and both tasks.  Plus the
mode/path selection logic and its engine surfacing.
"""

import numpy as np
import pytest

from repro.core import (
    exact_weighted_knn_shapley,
    get_kernel,
    pad_weight_table,
    shapley_by_subsets,
    shapley_difference_from_groups,
    weighted_knn_group_weight_totals,
    weighted_knn_pair_groups,
    weighted_rank_values,
)
from repro.core.kernels import RankPlan, _pad_weight
from repro.core.piecewise import knn_group_weight_closed_form
from repro.datasets import gaussian_blobs, regression_dataset
from repro.exceptions import ParameterError
from repro.knn import argsort_by_distance
from repro.knn.weights import weight_position_table
from repro.utility import (
    WeightedKNNClassificationUtility,
    WeightedKNNRegressionUtility,
)

RANK_ONLY = ("uniform", "rank")
ALL_WEIGHTS = ("uniform", "rank", "inverse_distance", "gaussian")


@pytest.fixture(scope="module")
def cls_plan():
    data = gaussian_blobs(n_train=18, n_test=3, n_features=5, seed=711)
    order, dist = argsort_by_distance(data.x_test, data.x_train)
    return RankPlan.from_order(
        order, data.y_train, data.y_test, distances=dist
    )


@pytest.fixture(scope="module")
def reg_plan():
    data = regression_dataset(n_train=15, n_test=2, n_features=4, seed=712)
    order, dist = argsort_by_distance(data.x_test, data.x_train)
    return RankPlan.from_order(
        order,
        np.asarray(data.y_train, dtype=np.float64),
        data.y_test,
        distances=dist,
    )


# ----------------------------------------------------- layer 1: piecewise
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("weights", RANK_ONLY)
def test_piecewise_bit_matches_reference(cls_plan, k, weights):
    kernel = get_kernel("weighted")
    ref = kernel.values_from_plan(cls_plan, k, weights=weights, mode="reference")
    fast = kernel.values_from_plan(cls_plan, k, weights=weights, mode="piecewise")
    assert np.max(np.abs(fast - ref)) <= 1e-12
    assert fast.dtype == np.float64 and fast.flags["C_CONTIGUOUS"]


@pytest.mark.parametrize("weights", RANK_ONLY)
def test_piecewise_matches_brute_force(tiny_cls, weights):
    """Exhaustive 2^N oracle at tiny N, through the single-shot wrapper."""
    k = 2
    utility = WeightedKNNClassificationUtility(tiny_cls, k, weights=weights)
    oracle = shapley_by_subsets(utility)
    fast = exact_weighted_knn_shapley(
        tiny_cls, k, weights=weights, mode="piecewise"
    )
    np.testing.assert_allclose(fast.values, oracle.values, atol=1e-10)
    assert fast.extra["weighted_path"] == "piecewise"


def test_pair_groups_agree_with_closed_form_totals():
    """The explicit Appendix-F groups (through Lemma 1) equal the
    vectorized closed-form counting sums for every adjacent pair."""
    n, k = 11, 3
    table = weight_position_table("rank", k)
    totals = weighted_knn_group_weight_totals(n, k, table)
    for i in range(1, n):
        constants, group_sizes = weighted_knn_pair_groups(n, i, k, table)
        via_lemma = shapley_difference_from_groups(n, constants, group_sizes)
        assert totals[i - 1] == pytest.approx((n - 1) * via_lemma, abs=1e-12)


def test_unit_weight_table_recovers_theorem1_factor():
    """With the constant 1/K table (the unweighted utility, eq 5) the
    weighted counting sums collapse to Theorem 1's closed form."""
    n, k = 13, 3
    table = np.full((k, k), 1.0 / k)
    totals = weighted_knn_group_weight_totals(n, k, table)
    for i in range(1, n):
        expected = knn_group_weight_closed_form(n, i, k) / k
        assert totals[i - 1] == pytest.approx(expected, abs=1e-12)


def test_piecewise_needs_no_distances(cls_plan):
    """Rank-only weights never read distances, so a distance-free plan
    is acceptable on the piecewise path (unlike the other paths)."""
    plan = RankPlan.from_order(
        cls_plan.order, cls_plan.y_train, cls_plan.y_test
    )
    kernel = get_kernel("weighted")
    fast = kernel.values_from_plan(plan, 2, weights="rank", mode="piecewise")
    ref = kernel.values_from_plan(
        cls_plan, 2, weights="rank", mode="reference"
    )
    assert np.max(np.abs(fast - ref)) <= 1e-12


# --------------------------------------------- layer 2: vectorized engine
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("weights", ALL_WEIGHTS)
def test_vectorized_bit_matches_reference_classification(cls_plan, k, weights):
    kernel = get_kernel("weighted")
    ref = kernel.values_from_plan(cls_plan, k, weights=weights, mode="reference")
    fast = kernel.values_from_plan(
        cls_plan, k, weights=weights, mode="vectorized"
    )
    assert np.max(np.abs(fast - ref)) <= 1e-12


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("weights", ALL_WEIGHTS)
def test_vectorized_bit_matches_reference_regression(reg_plan, k, weights):
    kernel = get_kernel("weighted")
    ref = kernel.values_from_plan(
        reg_plan, k, weights=weights, task="regression", mode="reference"
    )
    fast = kernel.values_from_plan(
        reg_plan, k, weights=weights, task="regression", mode="vectorized"
    )
    assert np.max(np.abs(fast - ref)) <= 1e-12


def test_vectorized_matches_brute_force(tiny_cls, tiny_reg):
    k = 2
    cls_utility = WeightedKNNClassificationUtility(
        tiny_cls, k, weights="inverse_distance"
    )
    oracle = shapley_by_subsets(cls_utility)
    fast = exact_weighted_knn_shapley(
        tiny_cls, k, weights="inverse_distance", mode="vectorized"
    )
    np.testing.assert_allclose(fast.values, oracle.values, atol=1e-10)

    reg_utility = WeightedKNNRegressionUtility(
        tiny_reg, k, weights="inverse_distance"
    )
    reg_oracle = shapley_by_subsets(reg_utility)
    reg_fast = exact_weighted_knn_shapley(
        tiny_reg,
        k,
        weights="inverse_distance",
        task="regression",
        mode="vectorized",
    )
    np.testing.assert_allclose(reg_fast.values, reg_oracle.values, atol=1e-10)


def test_vectorized_custom_callable_fallback(cls_plan):
    """Unknown callables take the per-row weight loop but the same
    batched recursion — values still match the reference."""

    def halving(distances: np.ndarray) -> np.ndarray:
        w = 0.5 ** np.arange(1, distances.size + 1)
        return w / w.sum() if w.size else w

    kernel = get_kernel("weighted")
    ref = kernel.values_from_plan(cls_plan, 2, weights=halving, mode="reference")
    fast = kernel.values_from_plan(
        cls_plan, 2, weights=halving, mode="vectorized"
    )
    assert np.max(np.abs(fast - ref)) <= 1e-12


def test_pad_weight_table_matches_scalar():
    for n, k in ((9, 2), (12, 3), (7, 1), (6, 5)):
        table = pad_weight_table(n, k)
        for rmax in range(1, n + 1):
            assert table[rmax] == pytest.approx(
                _pad_weight(n, k, rmax), abs=1e-13
            )


def test_bounded_memo_changes_nothing(cls_plan):
    """A tiny cache bound forces evictions/re-evaluations but must not
    change a single value."""
    order = cls_plan.order[0]
    labels = cls_plan.y_train
    match = (labels[order] == cls_plan.y_test[0]).astype(np.float64)
    n, k = order.shape[0], 2

    def v(rank_members):
        if not rank_members:
            return 0.0
        sel = np.asarray(rank_members[:k], dtype=np.intp) - 1
        return float(match[sel].mean())

    calls = {"n": 0}

    def counting_v(rank_members):
        calls["n"] += 1
        return v(rank_members)

    unbounded = weighted_rank_values(v, n, k, max_cache_entries=None)
    bounded = weighted_rank_values(counting_v, n, k, max_cache_entries=4)
    np.testing.assert_array_equal(bounded, unbounded)
    # the bound really evicted: more oracle calls than distinct coalitions
    distinct = 1 + n + n * (n - 1) // 2
    assert calls["n"] > distinct
    with pytest.raises(ParameterError):
        weighted_rank_values(v, n, k, max_cache_entries=0)


# ------------------------------------------------------- mode selection
def test_select_path_auto_routing():
    kernel = get_kernel("weighted")
    assert kernel.select_path(1, "inverse_distance") == "k1"
    assert kernel.select_path(2, "rank") == "piecewise"
    assert kernel.select_path(2, "uniform") == "piecewise"
    assert kernel.select_path(2, "inverse_distance") == "vectorized"
    assert kernel.select_path(2, "gaussian") == "vectorized"
    # regression rank-only weights take the moment-based piecewise path
    assert kernel.select_path(2, "rank", task="regression") == "piecewise"
    # callables are never the k1 collapse; rank_only opt-in is honored
    def custom(d):
        return np.full(d.shape, 1.0 / max(1, d.size))

    assert kernel.select_path(1, custom) == "vectorized"
    custom.rank_only = True
    assert kernel.select_path(2, custom) == "piecewise"
    # explicit modes force their path
    assert kernel.select_path(1, "rank", mode="reference") == "reference"
    assert kernel.select_path(2, "rank", mode="vectorized") == "vectorized"


def test_select_path_validation():
    kernel = get_kernel("weighted")
    with pytest.raises(ParameterError):
        kernel.select_path(2, "inverse_distance", mode="piecewise")
    # regression piecewise is now supported for rank-only weights
    assert (
        kernel.select_path(2, "rank", task="regression", mode="piecewise")
        == "piecewise"
    )
    with pytest.raises(ParameterError):
        kernel.select_path(2, "rank", mode="warp-speed")
    with pytest.raises(ParameterError):
        kernel.select_path(2, "rank", task="ranking")


def test_auto_mode_takes_fast_paths(cls_plan):
    """mode='auto' must route by capability and stay within 1e-12 of
    the reference on every route."""
    kernel = get_kernel("weighted")
    for weights in ALL_WEIGHTS:
        ref = kernel.values_from_plan(
            cls_plan, 2, weights=weights, mode="reference"
        )
        auto = kernel.values_from_plan(cls_plan, 2, weights=weights)
        assert np.max(np.abs(auto - ref)) <= 1e-12


def test_wrapper_surfaces_weighted_path(tiny_cls):
    ref = exact_weighted_knn_shapley(tiny_cls, 2, weights="rank")
    assert ref.extra["weighted_path"] == "reference"
    auto = exact_weighted_knn_shapley(tiny_cls, 2, weights="rank", mode="auto")
    assert auto.extra["weighted_path"] == "piecewise"
    np.testing.assert_allclose(auto.values, ref.values, atol=1e-12)
    vec = exact_weighted_knn_shapley(
        tiny_cls, 2, weights="inverse_distance", mode="auto"
    )
    assert vec.extra["weighted_path"] == "vectorized"
