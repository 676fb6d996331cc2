"""Tests for the weighted frontier: regression piecewise + the
configuration engine.

Three pillars.  (1) The O(N·poly(K)) regression piecewise path
(rank-only weights): agreement with the exhaustive 2^N oracle at tiny
N and with the configuration engine at serving-ish N.  (2) The
configuration engine: colex block enumeration, agreement with the
reference recursion for K in {3, 4, 5} on both tasks at several block
sizes, bit-identity with a materialized colex feed, and a resident
memory bounded by the block size.  (3) The routing surface: the full
mode x task x weight-kind selection table and the typed capability
error.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from repro.core import get_kernel, shapley_by_subsets
from repro.core import kernels as kmod
from repro.core.kernels import (
    RankPlan,
    _colex_combinations,
    iter_combination_blocks,
)
from repro.core.piecewise import (
    size_sum_closed_form,
    weighted_knn_regression_anchor,
    weighted_knn_regression_pair_totals,
)
from repro.core.weighted import exact_weighted_knn_shapley
from repro.datasets import gaussian_blobs, regression_dataset
from repro.exceptions import KernelCapabilityError, ParameterError
from repro.knn import argsort_by_distance
from repro.knn.weights import weight_position_table
from repro.utility import WeightedKNNRegressionUtility

ALL_WEIGHTS = ("uniform", "rank", "inverse_distance", "gaussian")


def _plan(data):
    order, dist = argsort_by_distance(data.x_test, data.x_train)
    return RankPlan.from_order(
        order,
        np.asarray(data.y_train, dtype=np.float64),
        data.y_test,
        distances=dist,
    )


@pytest.fixture(scope="module")
def cls_plan():
    return _plan(gaussian_blobs(n_train=13, n_test=2, n_features=4, seed=821))


@pytest.fixture(scope="module")
def reg_plan():
    return _plan(
        regression_dataset(n_train=13, n_test=2, n_features=4, seed=822)
    )


# ------------------------------------------------ colex block streaming
@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("block_rows", [3, 7, 64])
def test_streaming_blocks_concatenate_to_colex(r, block_rows):
    n = 11
    full = _colex_combinations(n, r)
    blocks = list(iter_combination_blocks(n, r, block_rows))
    np.testing.assert_array_equal(np.concatenate(blocks, axis=0), full)
    # fixed-size guarantee: every block is exactly block_rows except
    # (possibly) the last — the configuration engine's memory bound
    for b in blocks[:-1]:
        assert b.shape == (block_rows, r)
    assert 0 < blocks[-1].shape[0] <= block_rows


def test_streaming_blocks_edge_cases():
    # r == 0: the single empty coalition
    blocks = list(iter_combination_blocks(6, 0, 8))
    assert len(blocks) == 1 and blocks[0].shape == (1, 0)
    # n < r: nothing to enumerate
    assert list(iter_combination_blocks(3, 5, 8)) == []
    # exact multiple of block_rows: no ghost empty block
    blocks = list(iter_combination_blocks(4, 2, 3))  # C(4,2) = 6 = 2*3
    assert [b.shape[0] for b in blocks] == [3, 3]


# --------------------------------- configuration engine vs reference
def _engine_values(plan, k, weights, task, block_rows=None):
    return get_kernel("weighted").values_from_plan(
        plan, k, weights=weights, task=task, mode="vectorized",
        block_rows=block_rows,
    )


@pytest.fixture(scope="module")
def reference(cls_plan, reg_plan):
    """Reference-path values by ``(task, weights, k)``, computed once."""
    cache = {}

    def get(task, weights, k):
        if (task, weights, k) not in cache:
            plan = cls_plan if task == "classification" else reg_plan
            cache[task, weights, k] = get_kernel("weighted").values_from_plan(
                plan, k, weights=weights, task=task, mode="reference"
            )
        return cache[task, weights, k]

    return get


@pytest.mark.parametrize("block_rows", [5, 17, None], ids=str)
@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("weights", ALL_WEIGHTS)
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_configuration_engine_matches_reference(
    cls_plan, reg_plan, reference, task, weights, k, block_rows
):
    """Block boundaries change only the summation order: every block
    size stays within 1e-12 of the per-coalition recursion."""
    plan = cls_plan if task == "classification" else reg_plan
    fast = _engine_values(plan, k, weights, task, block_rows)
    assert np.max(np.abs(fast - reference(task, weights, k))) <= 1e-12


def _materialized_blocks(n_items, r, block_rows):
    """The whole colex array, materialized, then cut into blocks."""
    full = _colex_combinations(n_items, r)
    for start in range(0, full.shape[0], block_rows):
        yield full[start : start + block_rows]


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("weights", ALL_WEIGHTS)
@pytest.mark.parametrize("task", ["classification", "regression"])
def test_streaming_bit_identical_to_materialized(
    cls_plan, reg_plan, monkeypatch, k, weights, task
):
    """The block generator feeds the engine the same rows with the same
    block boundaries as a materialized colex array, so the same float
    adds run in the same sequence: values are bit-for-bit identical."""
    plan = cls_plan if task == "classification" else reg_plan
    streamed = _engine_values(plan, k, weights, task)
    monkeypatch.setattr(kmod, "iter_combination_blocks", _materialized_blocks)
    np.testing.assert_array_equal(
        streamed, _engine_values(plan, k, weights, task)
    )


@pytest.mark.parametrize("block_rows", [5, 17])
def test_streaming_bit_identity_survives_odd_block_sizes(
    reg_plan, monkeypatch, block_rows
):
    args = (reg_plan, 4, "gaussian", "regression", block_rows)
    streamed = _engine_values(*args)
    monkeypatch.setattr(kmod, "iter_combination_blocks", _materialized_blocks)
    np.testing.assert_array_equal(streamed, _engine_values(*args))


# ------------------------------------------------- fixed-memory engine
def test_streaming_engine_memory_is_block_bounded():
    """The engine's peak allocation follows block_rows, not the
    C(N-2, K-1) configurations a materialized enumeration would hold."""
    n, k, block_rows = 24, 4, 16
    data = gaussian_blobs(n_train=n, n_test=1, n_features=4, seed=826)
    plan = _plan(data)
    item = np.dtype(np.intp).itemsize
    materialized = item * (
        sum(math.comb(n - 2, s) * s for s in range(k - 1))
        + math.comb(n - 2, k - 1) * (k - 1)
        + sum(math.comb(n - 1, size) * size for size in range(k))
    )
    args = (plan, k, "inverse_distance", "classification", block_rows)
    _engine_values(*args)  # warm up: first-call imports and caches
    tracemalloc.start()
    try:
        _engine_values(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < materialized / 4


# ----------------------------------------- regression piecewise: values
@pytest.mark.parametrize("weights", ["uniform", "rank"])
@pytest.mark.parametrize("k", [2, 3])
def test_regression_piecewise_matches_brute_force(tiny_reg, weights, k):
    utility = WeightedKNNRegressionUtility(tiny_reg, k, weights=weights)
    oracle = shapley_by_subsets(utility)
    fast = exact_weighted_knn_shapley(
        tiny_reg, k, weights=weights, task="regression", mode="piecewise"
    )
    np.testing.assert_allclose(fast.values, oracle.values, atol=1e-10)
    assert fast.extra["weighted_path"] == "piecewise"


@pytest.mark.parametrize("k", [2, 3])
def test_regression_piecewise_matches_reference(reg_plan, k):
    kernel = get_kernel("weighted")
    ref = kernel.values_from_plan(
        reg_plan, k, weights="rank", task="regression", mode="reference"
    )
    fast = kernel.values_from_plan(
        reg_plan, k, weights="rank", task="regression", mode="piecewise"
    )
    assert np.max(np.abs(fast - ref)) <= 1e-12


def test_regression_piecewise_matches_configuration_engine_at_scale():
    """N ~ 300: far beyond the oracle, still cheap for the K=2
    configuration engine — the two independent implementations must
    agree to 1e-12."""
    data = regression_dataset(n_train=300, n_test=2, n_features=5, seed=823)
    plan = _plan(data)
    kernel = get_kernel("weighted")
    engine = kernel.values_from_plan(
        plan, 2, weights="rank", task="regression", mode="vectorized"
    )
    fast = kernel.values_from_plan(
        plan, 2, weights="rank", task="regression", mode="piecewise"
    )
    assert np.max(np.abs(fast - engine)) <= 1e-12


def test_regression_piecewise_efficiency_axiom():
    """Sum of values = v(D) - v(empty) for every test point (exactness
    sanity independent of any second implementation)."""
    data = regression_dataset(n_train=60, n_test=3, n_features=4, seed=824)
    plan = _plan(data)
    k = 3
    table = weight_position_table("rank", k)
    kernel = get_kernel("weighted")
    per_test = kernel.values_from_plan(
        plan, k, weights="rank", task="regression", mode="piecewise"
    )
    y_sorted = np.asarray(plan.labels_sorted, dtype=np.float64)
    for j, t in enumerate(np.asarray(plan.y_test, dtype=np.float64)):
        pred_full = float(table[k - 1, :k] @ y_sorted[j, :k])
        grand = -((pred_full - t) ** 2) + t**2  # v(D) - v(empty)
        assert per_test[j].sum() == pytest.approx(grand, abs=1e-10)


def test_size_sum_closed_form_theorem1_identity():
    """C(i-1, a) * SB(N-i-1, a) must telescope to (N-1)/i — the
    Beta-integral identity the pair sweep is built on."""
    n = 40
    for i in (1, 5, 17, 39):
        m = n - i - 1
        for a in range(i):
            term = math.comb(i - 1, a) * size_sum_closed_form(n, m, a)
            assert term == pytest.approx((n - 1) / i, rel=1e-12)


def test_regression_pair_totals_and_anchor_validate_inputs():
    table = weight_position_table("rank", 2)
    with pytest.raises(ParameterError):
        weighted_knn_regression_pair_totals(
            5, 2, table[:1], np.zeros(5), 0.0
        )
    with pytest.raises(ParameterError):
        weighted_knn_regression_anchor(5, 2, table, np.zeros(4), 0.0)


# --------------------------------------------------- the routing table
def _expected_route(mode, task, weights, rank_only):
    if mode == "streaming":
        # not a mode: the configuration engine has one form
        return ParameterError
    if mode == "reference":
        return "reference"
    if mode == "vectorized":
        return "vectorized"
    if mode == "piecewise":
        return "piecewise" if rank_only else KernelCapabilityError
    # auto at k=2: piecewise when capable, else the configuration engine
    return "piecewise" if rank_only else "vectorized"


@pytest.mark.parametrize(
    "mode, task, weights",
    list(
        itertools.product(
            ("auto", "reference", "vectorized", "streaming", "piecewise"),
            ("classification", "regression"),
            ALL_WEIGHTS,
        )
    ),
)
def test_select_path_routing_table(mode, task, weights):
    """The full mode x task x weight-kind table, in one place."""
    kernel = get_kernel("weighted")
    rank_only = weights in ("uniform", "rank")
    expected = _expected_route(mode, task, weights, rank_only)
    if expected is KernelCapabilityError:
        with pytest.raises(KernelCapabilityError) as exc:
            kernel.select_path(2, weights, task=task, mode=mode)
        assert exc.value.capability == "rank_only"
    elif expected is ParameterError:
        with pytest.raises(ParameterError, match="mode must be one of"):
            kernel.select_path(2, weights, task=task, mode=mode)
    else:
        assert kernel.select_path(2, weights, task=task, mode=mode) == expected


def test_capability_error_is_parameter_error():
    """Typed but backwards compatible: existing except ParameterError
    clauses keep working."""
    kernel = get_kernel("weighted")
    with pytest.raises(ParameterError):
        kernel.select_path(2, "gaussian", mode="piecewise")
