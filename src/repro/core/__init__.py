"""The paper's algorithmic contributions.

Exact algorithms
----------------
* :func:`exact_knn_shapley` — Theorem 1 / Algorithm 1 (O(N log N))
* :func:`exact_knn_regression_shapley` — Theorem 6 (O(N log N))
* :func:`exact_weighted_knn_shapley` — Theorem 7 (O(N^K))
* :func:`exact_grouped_knn_shapley` — Theorem 8 (O(M^K))
* :func:`composite_knn_shapley` & friends — Theorems 9-12

Approximations
--------------
* :func:`truncated_knn_shapley` — Theorem 2, (epsilon, 0)
* :func:`baseline_mc_shapley` — Section 2.2 baseline (Hoeffding)
* :func:`improved_mc_shapley` — Algorithm 2 (Bennett / heuristic)

Oracles and bounds
------------------
* :mod:`repro.core.brute` — exponential-time reference implementations
* :mod:`repro.core.bounds` — permutation budgets (Theorem 5)
* :mod:`repro.core.piecewise` — Appendix F counting framework

Dynamic datasets
----------------
* :mod:`repro.core.delta` — rank-local insert/delete repairs of the
  Theorem 1 recursion (the math under
  :class:`repro.engine.incremental.IncrementalValuator`)

Kernel layer
------------
* :mod:`repro.core.kernels` — the :class:`~repro.core.kernels.RankPlan`
  rank-space input, the registry of vectorized
  :class:`~repro.core.kernels.ValuationKernel` recursions (``exact``,
  ``truncated``, ``regression``, ``weighted``) and their capability
  records.  The modules above are thin wrappers over it, and the
  execution layers (:mod:`repro.engine`, streaming, LSH) dispatch
  through it.
"""

from .bounds import (
    bennett_approx_permutations,
    bennett_h,
    bennett_permutations,
    bennett_qi,
    hoeffding_permutations,
)
from .brute import all_subset_values, shapley_by_permutations, shapley_by_subsets
from .composite import (
    composite_grouped_knn_shapley,
    composite_knn_regression_shapley,
    composite_knn_shapley,
    composite_weighted_knn_shapley,
)
from .delta import (
    insert_rank_values,
    insertion_position,
    rank_factor,
    removal_position,
    remove_rank_values,
    suffix_rank_values,
    suffix_rank_values_rows,
)
from .exact import (
    exact_knn_shapley,
    exact_knn_shapley_from_order,
    knn_shapley_single_test,
)
from .grouped import exact_grouped_knn_shapley, grouped_shapley_single_test
from .heap import KNearestHeap
from .kernels import (
    BatchedWeightedRecursion,
    KernelCapabilities,
    RankPlan,
    ValuationKernel,
    available_kernels,
    classification_rank_values,
    get_kernel,
    pad_weight_table,
    register_kernel,
    regression_rank_values,
    truncated_rank_values,
    weighted_rank_only_values,
    weighted_rank_values,
)
from .montecarlo import baseline_mc_shapley, improved_mc_shapley
from .piecewise import (
    chain_values_from_differences,
    falling_binomial,
    knn_group_count,
    knn_group_weight_closed_form,
    shapley_difference_from_groups,
    weighted_knn_anchor_coefficients,
    weighted_knn_group_weight_totals,
    weighted_knn_pair_groups,
)
from .regression import exact_knn_regression_shapley, regression_shapley_from_order
from .streaming import StreamingKNNShapley
from .truncated import (
    truncated_knn_shapley,
    truncated_values_from_labels,
    truncation_rank,
)
from .weighted import exact_weighted_knn_shapley, weighted_shapley_single_test

__all__ = [
    "RankPlan",
    "ValuationKernel",
    "KernelCapabilities",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "classification_rank_values",
    "truncated_rank_values",
    "regression_rank_values",
    "weighted_rank_values",
    "weighted_rank_only_values",
    "BatchedWeightedRecursion",
    "pad_weight_table",
    "exact_knn_shapley",
    "exact_knn_shapley_from_order",
    "knn_shapley_single_test",
    "rank_factor",
    "insertion_position",
    "removal_position",
    "suffix_rank_values",
    "suffix_rank_values_rows",
    "insert_rank_values",
    "remove_rank_values",
    "exact_knn_regression_shapley",
    "regression_shapley_from_order",
    "exact_weighted_knn_shapley",
    "weighted_shapley_single_test",
    "exact_grouped_knn_shapley",
    "grouped_shapley_single_test",
    "composite_knn_shapley",
    "composite_knn_regression_shapley",
    "composite_weighted_knn_shapley",
    "composite_grouped_knn_shapley",
    "truncated_knn_shapley",
    "truncated_values_from_labels",
    "truncation_rank",
    "baseline_mc_shapley",
    "improved_mc_shapley",
    "StreamingKNNShapley",
    "hoeffding_permutations",
    "bennett_permutations",
    "bennett_approx_permutations",
    "bennett_qi",
    "bennett_h",
    "shapley_by_subsets",
    "shapley_by_permutations",
    "all_subset_values",
    "KNearestHeap",
    "shapley_difference_from_groups",
    "knn_group_count",
    "knn_group_weight_closed_form",
    "chain_values_from_differences",
    "falling_binomial",
    "weighted_knn_pair_groups",
    "weighted_knn_group_weight_totals",
    "weighted_knn_anchor_coefficients",
]
