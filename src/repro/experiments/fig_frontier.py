"""The weighted frontier: the regression piecewise path.

The regression utility (eq 27) with rank-only weights once always fell
through to the O(N^K) configuration engine — the piecewise counting
path was classification-only.  :func:`weighted_frontier` measures the
closure: the O(N·poly(K)) label-moment path against the configuration
engine at the same serving-scale N (the gated
``weighted_regression_piecewise_speedup``).
"""

from __future__ import annotations

from ..core.kernels import RankPlan, get_kernel
from ..datasets.synthetic import regression_dataset
from ..knn.search import argsort_by_distance
from ..metrics.errors import max_abs_error
from ..metrics.timing import time_call
from ..rng import SeedLike
from .reporting import ExperimentResult

__all__ = ["weighted_frontier"]


def weighted_frontier(
    n_regression: int = 2000,
    regression_k: int = 2,
    n_test: int = 2,
    n_features: int = 32,
    rank_only_weights: str = "rank",
    repeat: int = 1,
    fast_repeat: int = 3,
    seed: SeedLike = 0,
) -> ExperimentResult:
    """Regression piecewise path vs the configuration engine.

    One timed comparison over a prebuilt :class:`RankPlan` (ranking
    cost excluded — the paths differ only in how they evaluate the
    Theorem 7 sums): at ``n_regression`` / ``regression_k`` with
    rank-only weights on the **regression** task, the configuration
    engine (the only prior exact path for this combination) vs the
    piecewise label-moment path — ``regression_speedup`` is the gated
    ratio, expected >= 100x, and ``regression_max_err`` the hard 1e-12
    bar.
    """
    kernel = get_kernel("weighted")
    data = regression_dataset(
        n_train=n_regression, n_test=n_test, n_features=n_features, seed=seed
    )
    order, dist = argsort_by_distance(data.x_test, data.x_train)
    plan = RankPlan.from_order(
        order, data.y_train, data.y_test, distances=dist
    )
    engine = time_call(
        lambda: kernel.values_from_plan(
            plan,
            regression_k,
            weights=rank_only_weights,
            task="regression",
            mode="vectorized",
        ),
        repeat=repeat,
    )
    piecewise = time_call(
        lambda: kernel.values_from_plan(
            plan,
            regression_k,
            weights=rank_only_weights,
            task="regression",
            mode="piecewise",
        ),
        repeat=fast_repeat,
        warmup=1,
    )
    regression_max_err = max_abs_error(piecewise.value, engine.value)

    rows = [
        {
            "n_regression": n_regression,
            "regression_k": regression_k,
            "engine_s": engine.seconds,
            "piecewise_s": piecewise.seconds,
            "regression_speedup": engine.seconds
            / max(piecewise.seconds, 1e-12),
            "regression_max_err": regression_max_err,
        }
    ]
    return ExperimentResult(
        experiment_id="weighted-frontier",
        title=(
            "Weighted frontier: O(N·poly(K)) regression piecewise vs "
            "the configuration engine"
        ),
        columns=(
            "n_regression",
            "regression_k",
            "engine_s",
            "piecewise_s",
            "regression_speedup",
            "regression_max_err",
        ),
        rows=rows,
        paper_claim=(
            "Theorem 7 extends exact weighted-KNN Shapley to regression "
            "(eq 27), but the general recursion needs O(N^K) utility "
            "evaluations"
        ),
        observed=(
            "rank-only regression takes the closed-form label-moment "
            "piecewise path, >= 100x over the configuration engine at "
            "serving-scale N and within 1e-12"
        ),
        metadata={
            "rank_only_weights": rank_only_weights,
            "n_test": n_test,
            "n_features": n_features,
            "seed": seed,
        },
    )
