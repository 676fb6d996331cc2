"""Exact Shapley values for weighted KNN (Theorem 7).

For weighted KNN the utility of a coalition depends on *which* points
form the K nearest neighbors, not just on how many of them match the
test label — so the single-group piecewise structure of Theorem 1 is
gone.  What remains is that only ``O(N^K)`` distinct K-neighbor
configurations exist, which Theorem 7 exploits to compute the exact
Shapley value in ``O(N^K)`` utility evaluations instead of ``O(2^N)``.

The eq (74)/(75) recursion itself lives in
:func:`repro.core.kernels.weighted_rank_values` behind the shared
``weighted`` kernel — this module keeps the historical utility-object
entry points.  The recursion works per test point in rank space and
follows Lemma 1: for neighboring ranks ``i`` and ``i+1``::

    s_i - s_{i+1} = (1/(N-1)) * sum_k  (1/C(N-2, k)) *
                    sum_{S in D_{i,k}} A_{i,k}(S) *
                    [ v(S ∪ {i}) - v(S ∪ {i+1}) ]

* For ``k <= K-2`` the relevant ``S`` are *all* subsets of size k of
  the other ``N-2`` points, each with multiplicity ``A = 1`` — adding
  either ``i`` or ``i+1`` still leaves at most K points.
* For ``k >= K-1`` the utility only depends on the top ``K-1`` points
  of ``S``; each size-(K-1) configuration ``S'`` stands in for every
  ``S`` obtained by padding it with points farther than everything in
  ``S' ∪ {i, i+1}``.  With ``rmax`` the worst (largest) rank in
  ``S' ∪ {i, i+1}``, there are ``C(N - rmax, k - K + 1)`` such pads.

The anchor is the farthest point (eq 74)::

    s_N = (1/N) * sum_{k=0}^{K-1} (1/C(N-1, k)) *
          sum_{|S| = k, S ⊆ I\\{N}} [ v(S ∪ {N}) - v(S) ]

Utilities are evaluated through the supplied weighted utility object,
so classification (eq 26) and regression (eq 27) share this module.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from ..exceptions import ParameterError
from ..types import Dataset, ValuationResult
from ..utility.weighted_utility import (
    WeightedKNNClassificationUtility,
    WeightedKNNRegressionUtility,
)
from .kernels import RankPlan, get_kernel, weighted_rank_values

__all__ = ["exact_weighted_knn_shapley", "weighted_shapley_single_test"]

WeightedUtility = Union[
    WeightedKNNClassificationUtility, WeightedKNNRegressionUtility
]


def weighted_shapley_single_test(
    utility: WeightedUtility, test_index: int
) -> np.ndarray:
    """Theorem 7 for one test point, through the audited recursion.

    Returns the Shapley values in original training-index order,
    driving the per-coalition eq (74)/(75) recursion through
    :meth:`per_test_value`.  The batched configuration engine is the
    ``weighted`` kernel's ``vectorized`` path
    (:func:`exact_weighted_knn_shapley` with ``mode="vectorized"``).

    Complexity: ``O(C(N-2, K-1) * N)`` utility evaluations — exponential
    in K but polynomial in N, matching the paper's ``O(N^K)``.
    """
    n = utility.n_players
    k = utility.k
    order = utility.order[test_index]  # rank -> original index

    def v(rank_members: tuple[int, ...]) -> float:
        """Utility of a coalition given by sorted 1-based ranks."""
        members = order[np.asarray(rank_members, dtype=np.intp) - 1]
        return utility.per_test_value(np.sort(members), test_index)

    s_rank = weighted_rank_values(v, n, k)
    values = np.empty(n, dtype=np.float64)
    values[order] = s_rank
    return values


def exact_weighted_knn_shapley(
    dataset: Dataset,
    k: int,
    weights: str = "inverse_distance",
    task: str = "classification",
    metric: str = "euclidean",
    mode: str = "reference",
) -> ValuationResult:
    """Exact Shapley values for weighted KNN (Theorem 7).

    Parameters
    ----------
    dataset:
        Training and test data.
    k:
        The K of KNN.  Runtime grows as ``N^K`` on the reference and
        vectorized paths — the piecewise path (rank-only weights,
        classification) is polynomial in both N and K.
    weights:
        Weight-function name or callable (see :mod:`repro.knn.weights`).
    task:
        ``"classification"`` (eq 26) or ``"regression"`` (eq 27).
    metric:
        Distance metric name.
    mode:
        ``"reference"`` (default — this function is the audited
        baseline the fast paths are tested against) runs the historical
        per-coalition recursion; ``"auto"``, ``"piecewise"`` and
        ``"vectorized"`` dispatch through the ``weighted`` kernel's
        fast paths
        (:meth:`repro.core.kernels.WeightedKernel.select_path`).

    Returns
    -------
    ValuationResult
        Test-averaged exact Shapley values.
    """
    if task == "classification":
        utility: WeightedUtility = WeightedKNNClassificationUtility(
            dataset, k, weights=weights, metric=metric
        )
    elif task == "regression":
        utility = WeightedKNNRegressionUtility(
            dataset, k, weights=weights, metric=metric
        )
    else:
        raise ParameterError(
            f"task must be 'classification' or 'regression', got {task!r}"
        )
    extra = {
        "k": k,
        "weights": getattr(utility, "weights_name", str(weights)),
        "task": task,
    }
    if mode == "reference":
        n_test = dataset.n_test
        per_test = np.empty((n_test, dataset.n_train), dtype=np.float64)
        for j in range(n_test):
            per_test[j] = weighted_shapley_single_test(utility, j)
        extra["weighted_path"] = "reference"
    else:
        # the utility object already ranked the training set; reuse its
        # ordering (and distances) as the kernel's plan
        kernel = get_kernel("weighted")
        plan = RankPlan.from_order(
            utility.order,
            dataset.y_train,
            dataset.y_test,
            distances=utility.sorted_distances,
        )
        extra["weighted_path"] = kernel.select_path(
            k, weights, task=task, mode=mode
        )
        per_test = kernel.values_from_plan(
            plan, k, weights=weights, task=task, mode=mode
        )
    extra["per_test"] = per_test
    return ValuationResult(
        values=per_test.mean(axis=0),
        method="exact-weighted",
        extra=extra,
    )
