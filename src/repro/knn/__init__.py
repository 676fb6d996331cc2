"""KNN substrate: distances, exact search, classifiers, regressors.

This package implements the nearest-neighbor machinery the paper's
valuation algorithms run on — entirely on numpy, with no external ML
dependency.
"""

from .classifier import KNNClassifier
from .distance import (
    METRICS,
    cosine_distances,
    euclidean_distances,
    get_metric,
    manhattan_distances,
    squared_euclidean_distances,
)
from .regressor import KNNRegressor
from .search import (
    KNNSearchIndex,
    argsort_by_distance,
    stable_argsort_rows,
    stable_sort_rows,
    top_k,
)
from .weights import (
    WEIGHT_FUNCTIONS,
    WeightFunction,
    gaussian_weights,
    get_weight_function,
    inverse_distance_weights,
    rank_weights,
    uniform_weights,
)

__all__ = [
    "KNNClassifier",
    "KNNRegressor",
    "KNNSearchIndex",
    "argsort_by_distance",
    "stable_argsort_rows",
    "stable_sort_rows",
    "top_k",
    "METRICS",
    "get_metric",
    "euclidean_distances",
    "squared_euclidean_distances",
    "cosine_distances",
    "manhattan_distances",
    "WEIGHT_FUNCTIONS",
    "WeightFunction",
    "get_weight_function",
    "uniform_weights",
    "inverse_distance_weights",
    "rank_weights",
    "gaussian_weights",
]
