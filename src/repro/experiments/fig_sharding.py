"""Sharded tier scale-out: the 4-shard router vs a single engine.

Not a figure from the paper — this experiment measures the system
contribution of :mod:`repro.engine.sharding` on the serving workload
Section 3.2 motivates, at a training-set size where one engine is
past its comfortable serving point:

* **single engine**: one :class:`repro.engine.ValuationEngine` over
  the full training set.  At large N the engine's own chunking
  heuristic (``min(256, 2**21 / N)``) leaves a small test batch as a
  single chunk, so the request runs serially.
* **router**: a :class:`repro.engine.ShardRouter` in data mode — the
  training set split across 4 shards, each shard querying its slice
  on the router's thread pool (NumPy releases the GIL inside the
  distance pass and the selection), the coordinator merging per-shard
  results exactly before one kernel pass.

The gated workload uses ``method="truncated"`` deliberately: it is
the top-K path where sharding actually scales.  Each shard returns
only its k* best candidates per query, so the cross-shard merge is
O(shards * k*) per row.  The full-ranking path (``method="exact"``)
data-shards correctly too, but its merge re-sorts N entries per row —
the same order of work the ranking itself costs — so it cannot win
wall-clock and is not the gate.  The win has two sources: per-shard
working sets that fit the cache hierarchy (present even on a single
core), and thread-level parallelism across shards (adds on top when
cores are available).

Both sides run cache-free so the comparison is compute, not
memoization.  ``max_err`` is the worst absolute deviation of the
router's values from the single engine's — the exact-merge invariant
says it must be 0 up to float associativity (gated at 1e-12).
"""

from __future__ import annotations

from ..datasets.synthetic import gaussian_blobs
from ..engine import ShardRouter, ValuationEngine
from ..metrics.errors import max_abs_error
from ..metrics.timing import time_call
from ..rng import SeedLike
from .reporting import ExperimentResult

__all__ = ["shard_scaleout"]


def shard_scaleout(
    n_train: int = 24000,
    n_test: int = 64,
    n_features: int = 64,
    k: int = 5,
    n_shards: int = 4,
    method: str = "truncated",
    repeat: int = 3,
    seed: SeedLike = 0,
) -> ExperimentResult:
    """Compare a data-sharded router against a single engine.

    Parameters
    ----------
    n_train:
        Training-set size.  Chosen large enough that the single
        engine's chunk heuristic serializes the request, so the
        router's cross-shard parallelism is the only concurrency.
    n_test, n_features, k, seed:
        Workload shape.
    n_shards:
        Router width (the gated configuration is 4).
    method:
        Valuation method to run on both sides.  The default
        (``"truncated"``) is the top-K path, where per-shard results
        are k*-sized and the merge is cheap; see the module docstring
        for why the full-ranking path is not the gated workload.
    repeat:
        Timed repetitions; best run is reported.
    """
    data = gaussian_blobs(
        n_train=n_train, n_test=n_test, n_features=n_features, seed=seed
    )
    holder: dict = {}
    engine = ValuationEngine(data.x_train, data.y_train, k, cache=False)

    def run_single():
        holder["single"] = engine.value(data.x_test, data.y_test, method=method)
        return holder["single"]

    single_t = time_call(run_single, repeat=repeat, warmup=1)

    router = ShardRouter(
        data.x_train,
        data.y_train,
        k,
        n_shards=n_shards,
        cache=False,
    )
    def run_router():
        holder["router"] = router.value(data.x_test, data.y_test, method=method)
        return holder["router"]

    try:
        router_t = time_call(run_router, repeat=repeat, warmup=1)
    finally:
        router.close()
    err = max_abs_error(holder["router"].values, holder["single"].values)
    rows = [
        {
            "n_train": n_train,
            "n_shards": n_shards,
            "single_engine_s": single_t.seconds,
            "router_s": router_t.seconds,
            "scaleout_margin": single_t.seconds / max(router_t.seconds, 1e-12),
            "max_err": err,
        }
    ]
    return ExperimentResult(
        experiment_id="shard-scaleout",
        title="Sharded tier: 4-shard router vs a single engine at large N",
        columns=(
            "n_train",
            "n_shards",
            "single_engine_s",
            "router_s",
            "scaleout_margin",
            "max_err",
        ),
        rows=rows,
        paper_claim=(
            "Section 3.2 motivates serving deployments where valuation "
            "cost is dominated by the per-query ranking over N points"
        ),
        observed=(
            "on the top-K path the router beats the single engine: "
            "per-shard slices fit the cache hierarchy and shard queries "
            "overlap on the pool; the cross-shard merge is exact, so "
            "the router's values bit-match the single engine"
        ),
        metadata={
            "n_test": n_test,
            "n_features": n_features,
            "k": k,
            "method": method,
            "seed": seed,
        },
    )
