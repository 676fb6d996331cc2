"""Weighted KNN *regression* valuation, served by a sharded tier.

The weighted kernel closes the regression frontier (eq 27): rank-only
weight functions now take the O(N·poly(K)) piecewise label-moment
path — exact, serving-scale — instead of the combinatorial
configuration engine.  This example drives it end to end:

1. a 3-shard data-mode `ShardRouter` over a regression training set
   serves `method="weighted"` with rank weights; the kernel routes to
   the **piecewise** path (asserted via `extra["weighted_path"]`) and
   the merged values bit-match a single engine;
2. distance-based (gaussian) weights take the configuration engine,
   which evaluates the Theorem 7 sums from fixed-size colex blocks
   (`O(block_rows·K)` configuration memory); its values match the
   audited per-coalition reference recursion within 1e-12;
3. the path counters are read back from `stats()`.

Run:  python examples/weighted_regression.py
"""

import numpy as np

from repro.datasets import regression_dataset
from repro.engine import ShardRouter, ValuationEngine

SEED = 31
N_SELLERS = 1200
N_QUERIES = 8
N_FEATURES = 12
K = 2
N_SHARDS = 3


def main() -> None:
    data = regression_dataset(
        n_train=N_SELLERS, n_test=N_QUERIES, n_features=N_FEATURES, seed=SEED
    )

    # --- piecewise regression through the sharded tier ---------------
    router = ShardRouter(
        data.x_train,
        data.y_train,
        K,
        n_shards=N_SHARDS,
        sharding="data",
        task="regression",
    )
    single = ValuationEngine(
        data.x_train, data.y_train, K, task="regression"
    )
    routed = router.value(
        data.x_test, data.y_test, method="weighted", weights="rank"
    )
    direct = single.value(
        data.x_test, data.y_test, method="weighted", weights="rank"
    )
    assert routed.extra["weighted_path"] == "piecewise"
    assert direct.extra["weighted_path"] == "piecewise"
    err = np.max(np.abs(routed.values - direct.values))
    print(
        f"regression, rank weights, N={N_SELLERS}, K={K}: "
        f'path={routed.extra["weighted_path"]!r}, '
        f"router vs single engine max |diff| = {err:g}"
    )
    assert err <= 1e-12
    top = int(np.argmax(direct.values))
    print(
        f"most valuable seller: #{top} "
        f"(value {direct.values[top]:+.6f} per test average)"
    )

    # --- configuration engine vs the reference recursion -------------
    small = regression_dataset(
        n_train=60, n_test=2, n_features=N_FEATURES, seed=SEED + 1
    )
    engine = ValuationEngine(small.x_train, small.y_train, K, task="regression")
    vectorized = engine.value(
        small.x_test, small.y_test, method="weighted", weights="gaussian"
    )
    reference = engine.value(
        small.x_test,
        small.y_test,
        method="weighted",
        weights="gaussian",
        mode="reference",
    )
    assert vectorized.extra["weighted_path"] == "vectorized"
    err = np.max(np.abs(vectorized.values - reference.values))
    print(
        f"\ngaussian weights, N=60: configuration engine vs reference "
        f"recursion max |diff| = {err:g}"
    )
    assert err <= 1e-12

    # --- observability: path counters --------------------------------
    counters = engine.stats()["counters"]
    print("\nengine path counters:")
    for name in sorted(counters):
        if name.startswith("weighted_path_"):
            print(f"  {name}: {counters[name]}")
    router.close()


if __name__ == "__main__":
    main()
