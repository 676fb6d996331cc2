"""Tests for the rank-space kernel layer (RankPlan + registry)."""

import numpy as np
import pytest

from repro.core import (
    RankPlan,
    available_kernels,
    exact_knn_regression_shapley,
    exact_knn_shapley,
    exact_weighted_knn_shapley,
    get_kernel,
    improved_mc_shapley,
    register_kernel,
    truncated_knn_shapley,
    truncation_rank,
)
from repro.core.delta import suffix_rank_values
from repro.core.kernels import (
    KernelCapabilities,
    ValuationKernel,
    classification_rank_values,
    truncated_rank_values,
)
from repro.datasets import gaussian_blobs, regression_dataset
from repro.exceptions import ParameterError
from repro.knn import argsort_by_distance, top_k
from repro.utility.knn_utility import KNNClassificationUtility
from repro.utility.regression_utility import KNNRegressionUtility
from repro.utility.weighted_utility import WeightedKNNClassificationUtility


@pytest.fixture(scope="module")
def cls_data():
    return gaussian_blobs(n_train=24, n_test=4, n_features=6, seed=707)


@pytest.fixture(scope="module")
def reg_data():
    return regression_dataset(n_train=20, n_test=3, n_features=5, seed=708)


# --------------------------------------------------------------- registry
def test_registry_contents_and_capabilities():
    names = available_kernels()
    for name in ("exact", "truncated", "regression", "weighted"):
        assert name in names

    exact = get_kernel("exact")
    assert exact.capabilities.needs_full_ranking
    assert not exact.capabilities.supports_regression

    truncated = get_kernel("truncated")
    assert not truncated.capabilities.needs_full_ranking

    regression = get_kernel("regression")
    assert regression.capabilities.needs_full_ranking
    assert regression.capabilities.supports_regression

    weighted = get_kernel("weighted")
    assert weighted.capabilities.needs_full_ranking
    assert weighted.capabilities.needs_distances
    assert weighted.capabilities.supports_regression

    with pytest.raises(ParameterError):
        get_kernel("no-such-kernel")


# ------------------------------------------------- bit-identity regression
def test_exact_kernel_bit_identical_to_wrapper(cls_data):
    k = 3
    order, _ = argsort_by_distance(cls_data.x_test, cls_data.x_train)
    plan = RankPlan.from_order(order, cls_data.y_train, cls_data.y_test)
    per_test = get_kernel("exact").values_from_plan(plan, k)
    reference = exact_knn_shapley(cls_data, k)
    np.testing.assert_array_equal(per_test, reference.extra["per_test"])
    np.testing.assert_array_equal(per_test.mean(axis=0), reference.values)
    assert per_test.dtype == np.float64 and per_test.flags["C_CONTIGUOUS"]


def test_truncated_kernel_bit_identical_to_wrapper(cls_data):
    k, epsilon = 2, 0.15
    k_star = truncation_rank(k, epsilon)
    idx, _ = top_k(
        cls_data.x_test, cls_data.x_train, min(k_star, cls_data.n_train)
    )
    plan = RankPlan.from_order(idx, cls_data.y_train, cls_data.y_test)
    per_test = get_kernel("truncated").values_from_plan(
        plan, k, k_star=k_star, exact_anchor=True
    )
    reference = truncated_knn_shapley(cls_data, k, epsilon)
    np.testing.assert_array_equal(per_test, reference.extra["per_test"])
    assert per_test.dtype == np.float64 and per_test.flags["C_CONTIGUOUS"]


def test_regression_kernel_bit_identical_to_wrapper(reg_data):
    k = 3
    order, _ = argsort_by_distance(reg_data.x_test, reg_data.x_train)
    plan = RankPlan.from_order(
        order, np.asarray(reg_data.y_train, dtype=np.float64), reg_data.y_test
    )
    per_test = get_kernel("regression").values_from_plan(plan, k)
    reference = exact_knn_regression_shapley(reg_data, k)
    np.testing.assert_array_equal(per_test, reference.extra["per_test"])
    assert per_test.dtype == np.float64 and per_test.flags["C_CONTIGUOUS"]


def test_weighted_kernel_reference_bit_identical_to_wrapper(cls_data):
    k = 2
    order, dist = argsort_by_distance(cls_data.x_test, cls_data.x_train)
    plan = RankPlan.from_order(
        order, cls_data.y_train, cls_data.y_test, distances=dist
    )
    per_test = get_kernel("weighted").values_from_plan(
        plan, k, weights="inverse_distance", mode="reference"
    )
    reference = exact_weighted_knn_shapley(cls_data, k, weights="inverse_distance")
    np.testing.assert_array_equal(per_test, reference.extra["per_test"])
    assert per_test.dtype == np.float64 and per_test.flags["C_CONTIGUOUS"]


def test_delta_repair_path_bit_identical_to_kernel(cls_data):
    """The rank-local suffix recomputation of core.delta shares the
    kernel recursion's floating-point evaluation order exactly."""
    k = 3
    order, _ = argsort_by_distance(cls_data.x_test, cls_data.x_train)
    match = (cls_data.y_train[order] == cls_data.y_test[:, None]).astype(
        np.float64
    )
    s_rank = classification_rank_values(match, k)
    for j in range(match.shape[0]):
        for start in (0, 1, match.shape[1] // 2, match.shape[1] - 1):
            np.testing.assert_array_equal(
                suffix_rank_values(match[j], start, k), s_rank[j, start:]
            )


# --------------------------------------------------- cross-kernel vs MC
def test_every_kernel_matches_montecarlo_on_small_n():
    data = gaussian_blobs(n_train=8, n_test=2, n_features=4, seed=709)
    k = 2
    order, dist = argsort_by_distance(data.x_test, data.x_train)
    plan = RankPlan.from_order(order, data.y_train, data.y_test, distances=dist)

    exact = get_kernel("exact").values_from_plan(plan, k).mean(axis=0)
    mc = improved_mc_shapley(
        KNNClassificationUtility(data, k), n_permutations=6000, seed=0
    )
    assert np.max(np.abs(exact - mc.values)) < 0.05

    # with k_star >= n nothing is truncated: equals exact, matches MC
    truncated = (
        get_kernel("truncated")
        .values_from_plan(plan, k, k_star=data.n_train, exact_anchor=True)
        .mean(axis=0)
    )
    np.testing.assert_allclose(truncated, exact, atol=1e-12)
    assert np.max(np.abs(truncated - mc.values)) < 0.05

    weighted = (
        get_kernel("weighted")
        .values_from_plan(plan, k, weights="inverse_distance")
        .mean(axis=0)
    )
    mc_w = improved_mc_shapley(
        WeightedKNNClassificationUtility(data, k, weights="inverse_distance"),
        n_permutations=6000,
        seed=1,
    )
    assert np.max(np.abs(weighted - mc_w.values)) < 0.05

    reg = regression_dataset(n_train=8, n_test=2, n_features=3, seed=710)
    r_order, _ = argsort_by_distance(reg.x_test, reg.x_train)
    r_plan = RankPlan.from_order(r_order, reg.y_train, reg.y_test)
    regression = (
        get_kernel("regression").values_from_plan(r_plan, k).mean(axis=0)
    )
    mc_r = improved_mc_shapley(
        KNNRegressionUtility(reg, k), n_permutations=6000, seed=2
    )
    # regression utilities have a wider range, so a looser absolute bar
    spread = np.max(np.abs(regression)) + 1.0
    assert np.max(np.abs(regression - mc_r.values)) < 0.1 * spread


# ------------------------------------------- exact vs weighted agreement
def test_weighted_unit_weights_k1_bit_identical_to_exact(cls_data):
    """With K=1 every built-in weight function gives the lone neighbor
    weight exactly 1.0, so the weighted fast path runs the identical
    Theorem 1 recursion — bit-for-bit equality, not just closeness."""
    order, dist = argsort_by_distance(cls_data.x_test, cls_data.x_train)
    plan = RankPlan.from_order(
        order, cls_data.y_train, cls_data.y_test, distances=dist
    )
    exact = get_kernel("exact").values_from_plan(plan, 1)
    weighted = get_kernel("weighted").values_from_plan(
        plan, 1, weights="uniform", mode="auto"
    )
    np.testing.assert_array_equal(exact, weighted)


def test_weighted_unit_weights_k2_matches_exact(cls_data):
    """A custom 1/K weight function reproduces the unweighted utility
    (eq 5), so Theorem 7 must agree with Theorem 1 to rounding."""
    k = 2

    def unit_weights(distances):
        return np.full(distances.shape, 1.0 / k)

    order, dist = argsort_by_distance(cls_data.x_test, cls_data.x_train)
    plan = RankPlan.from_order(
        order, cls_data.y_train, cls_data.y_test, distances=dist
    )
    exact = get_kernel("exact").values_from_plan(plan, k)
    weighted = get_kernel("weighted").values_from_plan(
        plan, k, weights=unit_weights
    )
    np.testing.assert_allclose(weighted, exact, atol=1e-10)


def test_weighted_k1_fast_path_matches_reference(cls_data, reg_data):
    order, dist = argsort_by_distance(cls_data.x_test, cls_data.x_train)
    plan = RankPlan.from_order(
        order, cls_data.y_train, cls_data.y_test, distances=dist
    )
    fast = get_kernel("weighted").values_from_plan(
        plan, 1, weights="inverse_distance", mode="auto"
    )
    ref = get_kernel("weighted").values_from_plan(
        plan, 1, weights="inverse_distance", mode="reference"
    )
    np.testing.assert_allclose(fast, ref, atol=1e-12)

    r_order, r_dist = argsort_by_distance(reg_data.x_test, reg_data.x_train)
    r_plan = RankPlan.from_order(
        r_order, reg_data.y_train, reg_data.y_test, distances=r_dist
    )
    fast = get_kernel("weighted").values_from_plan(
        r_plan, 1, weights="uniform", task="regression", mode="auto"
    )
    ref = get_kernel("weighted").values_from_plan(
        r_plan, 1, weights="uniform", task="regression", mode="reference"
    )
    np.testing.assert_allclose(fast, ref, atol=1e-10)


# ----------------------------------------------------- plans and errors
def test_ragged_plan_scatters_zeros_for_missing_rows(cls_data):
    rows = [
        np.array([3, 0, 7], dtype=np.intp),
        np.empty(0, dtype=np.intp),
        np.array([1], dtype=np.intp),
        np.array([2, 4], dtype=np.intp),
    ]
    plan = RankPlan.from_neighbor_rows(rows, cls_data.y_train, cls_data.y_test)
    assert plan.lengths is not None
    per_test = get_kernel("truncated").values_from_plan(
        plan, 1, k_star=5, exact_anchor=True
    )
    assert per_test.shape == (4, cls_data.n_train)
    np.testing.assert_array_equal(per_test[1], 0.0)  # empty row -> zeros
    # columns never retrieved stay exactly zero
    untouched = np.setdiff1d(np.arange(cls_data.n_train), np.concatenate(rows))
    np.testing.assert_array_equal(per_test[:, untouched], 0.0)


def _frozen_truncated_loop(plan, k, k_star, exact_anchor):
    """The per-row recursion the truncated kernel ran before it was
    vectorized, kept as the oracle."""
    n_train = plan.n_train if exact_anchor else None
    vals = np.zeros((plan.n_test, plan.width), dtype=np.float64)
    for j in range(plan.n_test):
        lj = plan.width if plan.lengths is None else int(plan.lengths[j])
        if lj == 0:
            continue
        vals[j, :lj] = truncated_rank_values(
            plan.labels_sorted[j, :lj], plan.y_test[j], k, k_star, n_train=n_train
        )
    return plan.scatter(vals)


def test_vectorized_truncated_recursion_is_the_per_row_loop():
    """Ragged rows (some empty), rows that span the training set (the
    exact anchor), rectangular prefixes and full rankings."""
    rng = np.random.default_rng(11)
    kernel = get_kernel("truncated")
    for case in range(400):
        n = int(rng.integers(1, 30))
        y_train = rng.integers(0, 3, n)
        q = int(rng.integers(1, 6))
        y_test = rng.integers(0, 3, q)
        k = int(rng.integers(1, 6))
        k_star = int(rng.integers(k, k + n + 4))
        if case % 3 == 0:
            order = np.argsort(rng.random((q, n)), axis=1)[:, : min(k_star, n)]
            plan = RankPlan.from_order(order, y_train, y_test)
        else:
            rows = []
            for _ in range(q):
                length = int(rng.choice([0, n, rng.integers(0, n + 1)]))
                rows.append(rng.permutation(n)[:length])
            plan = RankPlan.from_neighbor_rows(rows, y_train, y_test)
        for anchor in (True, False):
            want = _frozen_truncated_loop(plan, k, k_star, anchor)
            got = kernel.values_from_plan(plan, k, k_star=k_star, exact_anchor=anchor)
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            for keep in (False, True):
                sums, per_test = kernel.column_sums_from_plan(
                    plan, k, keep, k_star=k_star, exact_anchor=anchor
                )
                np.testing.assert_array_equal(sums, want.sum(axis=0))
                if keep:
                    np.testing.assert_array_equal(per_test, want)
                else:
                    assert per_test is None


@pytest.mark.parametrize(
    "weights,task,k",
    [("rank", "classification", 3), ("uniform", "regression", 2),
     ("inverse_distance", "classification", 1), ("gaussian", "regression", 1)],
)
def test_weighted_rank_space_paths_fuse_their_column_sums(cls_data, reg_data, weights, task, k):
    """The ``piecewise`` and ``k1`` paths sum by one bincount; the sums
    equal the column sums of the per-test matrix exactly."""
    data = cls_data if task == "classification" else reg_data
    order, dist = argsort_by_distance(data.x_test, data.x_train)
    plan = RankPlan.from_order(order, data.y_train, data.y_test, distances=dist)
    kernel = get_kernel("weighted")
    assert kernel.select_path(k, weights, task) in ("k1", "piecewise")
    per_test = kernel.values_from_plan(plan, k, weights=weights, task=task)
    for keep in (False, True):
        sums, kept = kernel.column_sums_from_plan(plan, k, keep, weights=weights, task=task)
        np.testing.assert_array_equal(sums, per_test.sum(axis=0))
        if keep:
            np.testing.assert_array_equal(kept, per_test)
        else:
            assert kept is None


def test_plan_and_kernel_validation(cls_data):
    order, dist = argsort_by_distance(cls_data.x_test, cls_data.x_train)
    with pytest.raises(ParameterError):
        RankPlan.from_order(order, cls_data.y_train, cls_data.y_test[:-1])
    with pytest.raises(ParameterError):
        RankPlan.from_order(
            order, cls_data.y_train, cls_data.y_test, distances=dist[:, :-1]
        )
    prefix_plan = RankPlan.from_order(
        order[:, :5], cls_data.y_train, cls_data.y_test
    )
    for name in ("exact", "regression", "weighted"):
        with pytest.raises(ParameterError):
            get_kernel(name).values_from_plan(prefix_plan, 2)
    full_plan = RankPlan.from_order(order, cls_data.y_train, cls_data.y_test)
    with pytest.raises(ParameterError):  # weighted needs distances
        get_kernel("weighted").values_from_plan(full_plan, 2)
    with pytest.raises(ParameterError):  # truncated needs a rank target
        get_kernel("truncated").values_from_plan(full_plan, 2)
    with pytest.raises(ParameterError):
        get_kernel("exact").values_from_plan(full_plan, 0)


def test_third_party_kernel_dispatches_through_engine(cls_data):
    """The registry is open: a registered kernel name is a valid engine
    method and inherits chunking/merging."""
    from repro.engine import ValuationEngine

    class UniformKernel(ValuationKernel):
        name = "test-uniform"
        capabilities = KernelCapabilities(
            needs_full_ranking=False,
            supports_regression=True,
        )

        def values_from_plan(self, plan, k, **params):
            out = np.full(
                (plan.n_test, plan.n_train), 1.0 / plan.n_train
            )
            return np.ascontiguousarray(out)

    register_kernel(UniformKernel())
    assert "test-uniform" in available_kernels()
    engine = ValuationEngine(
        cls_data.x_train, cls_data.y_train, 2, chunk_size=2
    )
    result = engine.value(
        cls_data.x_test, cls_data.y_test, method="test-uniform"
    )
    np.testing.assert_allclose(
        result.values, np.full(cls_data.n_train, 1.0 / cls_data.n_train)
    )
    assert result.extra["kernel"] == "test-uniform"
