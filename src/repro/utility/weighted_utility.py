"""Weighted KNN utilities (eqs 26 and 27).

Classification::

    v(S) = sum_{k=1}^{min(K,|S|)} w_{alpha_k(S)} * 1[y_{alpha_k(S)} = y_test]

Regression::

    v(S) = - ( sum_{k=1}^{min(K,|S|)} w_{alpha_k(S)} * y_{alpha_k(S)} - y_test )^2

The weight of a neighbor is produced by a weight function applied to
the sorted distance vector of the coalition's selected neighbors (see
:mod:`repro.knn.weights`), so a point's weight depends on which
coalition it appears in — this coalition-dependence is exactly why the
weighted Shapley value costs O(N^K) instead of O(N log N) (Theorem 7).
"""

from __future__ import annotations


import numpy as np

from ..exceptions import ParameterError
from ..knn.search import argsort_by_distance
from ..knn.weights import WeightFunction, get_weight_function
from ..types import Dataset
from .base import UtilityFunction

__all__ = [
    "WeightedKNNClassificationUtility",
    "WeightedKNNRegressionUtility",
]


class _WeightedKNNUtilityBase(UtilityFunction):
    """Shared machinery: distance ranking + per-coalition neighbor pick."""

    def __init__(
        self,
        dataset: Dataset,
        k: int,
        weights: str | WeightFunction = "inverse_distance",
        metric: str = "euclidean",
    ) -> None:
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        self.dataset = dataset
        self.k = int(k)
        self.metric = metric
        if callable(weights):
            self.weight_fn: WeightFunction = weights
            self.weights_name = getattr(weights, "__name__", "custom")
        else:
            self.weight_fn = get_weight_function(weights)
            self.weights_name = weights
        self.n_players = dataset.n_train
        order, sorted_dist = argsort_by_distance(
            dataset.x_test, dataset.x_train, metric=metric
        )
        self.order = order
        self.sorted_distances = sorted_dist
        inv = np.empty_like(order)
        rows = np.arange(order.shape[0])[:, None]
        inv[rows, order] = np.arange(order.shape[1])[None, :]
        self._inv_order = inv
        # distance of training point i to test point j, in original index order
        dist_by_index = np.empty_like(sorted_dist)
        np.put_along_axis(dist_by_index, order, sorted_dist, axis=1)
        self._dist = dist_by_index

    def _topk_for_test(
        self, members: np.ndarray, test_index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Selected neighbor indices and their distances, nearest first."""
        kk = min(self.k, members.size)
        ranks = self._inv_order[test_index, members]
        nearest = members[np.argsort(ranks, kind="stable")[:kk]]
        return nearest, self._dist[test_index, nearest]

    def _per_test(self, members: np.ndarray, test_index: int) -> float:
        raise NotImplementedError

    def _evaluate(self, members: np.ndarray) -> float:
        n_test = self.dataset.n_test
        total = 0.0
        for j in range(n_test):
            total += self._per_test(members, j)
        return total / n_test

    def per_test_value(self, members: np.ndarray, test_index: int) -> float:
        """Single-test-point utility (used by the exact weighted SV)."""
        return self._per_test(np.asarray(members, dtype=np.intp), test_index)


class WeightedKNNClassificationUtility(_WeightedKNNUtilityBase):
    """Weighted KNN classification utility (eq 26)."""

    def _per_test(self, members: np.ndarray, test_index: int) -> float:
        if members.size == 0:
            return 0.0
        nearest, dists = self._topk_for_test(members, test_index)
        w = self.weight_fn(dists)
        match = (
            self.dataset.y_train[nearest] == self.dataset.y_test[test_index]
        ).astype(np.float64)
        return float(np.dot(w, match))

    def value_bounds(self) -> tuple[float, float]:
        """Normalized weights keep the utility inside ``[0, 1]``."""
        return (0.0, 1.0)

    def difference_range(self) -> float:
        """Conservative: a marginal can swing the whole normalized vote."""
        return 1.0


class WeightedKNNRegressionUtility(_WeightedKNNUtilityBase):
    """Weighted KNN regression utility (eq 27)."""

    def _per_test(self, members: np.ndarray, test_index: int) -> float:
        t = float(self.dataset.y_test[test_index])
        if members.size == 0:
            return -(t**2)
        nearest, dists = self._topk_for_test(members, test_index)
        w = self.weight_fn(dists)
        pred = float(np.dot(w, np.asarray(self.dataset.y_train, dtype=np.float64)[nearest]))
        return -((pred - t) ** 2)

    def value_bounds(self) -> tuple[float, float]:
        y = np.asarray(self.dataset.y_train, dtype=np.float64)
        lo_pred = min(0.0, float(y.min()))
        hi_pred = max(0.0, float(y.max()))
        worst = 0.0
        for t in np.asarray(self.dataset.y_test, dtype=np.float64):
            worst = max(worst, (lo_pred - t) ** 2, (hi_pred - t) ** 2)
        return (-worst, 0.0)

    def difference_range(self) -> float:
        lo, hi = self.value_bounds()
        return float(hi - lo)
