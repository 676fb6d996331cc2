"""Router/engine parity grid: save every value array of a seeded grid.

Any change to the request pipeline or the retrieval it rests on
(distances, the full-ranking sort, ``RequestPlan.run_chunks``, the
router's fetch or merge) must leave values bit-identical.  The grid
runs a seeded method x topology (engine, data-sharded router) x
``store_per_test`` x partial (one shard failed via ``FaultInjector``)
grid, plus LSH (ragged, some rows empty), multi-chunk engines, a
cache-hit repeat, tie-heavy data, distance-weighted regression (the
configuration engine on the regression task), a multi-chunk
data-sharded request after mutations, exact and weighted requests
large enough for the brute backend to split their ranking into row
blocks (q=64, N=6000, 2% duplicate rows, cold then cached), truncated
requests on that set and on a one-decimal copy at eps 0.25 and 0.05
(on both sides of the top-K* block prune, engine and 2-shard router),
cached
engines (one alone, two on one shared cache) through a join and a
leave, and the two dynamic layers: an ``IncrementalValuator`` (brute
and blocked: fit, join, leave; ``values()`` and ``recompute()``) and
a ``StreamingKNNShapley`` (exact and seeded LSH: ``update``,
``update_batch``, then a join and a leave).  It saves every value
array to ``.npz``.

Usage, from the root of the checkout whose ``src`` is under test::

    PYTHONPATH=src python tools/parity_grid.py OUT.npz

Run the same script once per checkout (for example the base commit in
a ``git worktree`` and the change), then compare the two files::

    python tools/parity_grid.py --compare BASE.npz CHANGE.npz

which prints ``N arrays, M differ [...]`` and exits 1 unless every
array is ``np.array_equal``.
"""

import sys

import numpy as np

METHODS = {
    "exact": {},
    "truncated": {"epsilon": 0.2},
    "weighted": {"weights": "rank"},
    "mc": {"n_permutations": 7, "seed": 3},
}


def grid():
    # imported here, so that --compare runs without the package
    from repro.datasets import gaussian_blobs, regression_dataset
    from repro.core import StreamingKNNShapley
    from repro.engine import IncrementalValuator, RankCache, ShardRouter, ValuationEngine
    from repro.monitor import FaultInjector

    small = gaussian_blobs(n_train=300, n_test=21, n_features=6, seed=5)
    # ties: rounded features make equal distances across shards
    tied = gaussian_blobs(n_train=240, n_test=13, n_features=3, seed=8)
    tied.x_train[:] = np.round(tied.x_train, 0)
    tied.x_test[:] = np.round(tied.x_test, 0)
    tiny = gaussian_blobs(n_train=45, n_test=6, n_features=4, seed=6)
    big = gaussian_blobs(n_train=9000, n_test=300, n_features=4, seed=2)
    out = {}
    for dname, d in (("small", small), ("tied", tied), ("tiny", tiny)):
        for method, kw in METHODS.items():
            if dname == "tiny":  # distance weights: the configuration path
                if method != "weighted":
                    continue
                kw = {"weights": "inverse_distance"}
            for store in (False, True):
                for chunk in (None, 5):
                    eng = ValuationEngine(d.x_train, d.y_train, 3, chunk_size=chunk)
                    for rep in range(2):  # second call is a cache hit
                        r = eng.value(d.x_test, d.y_test, method=method,
                                      store_per_test=store, **kw)
                        out[f"{dname}/engine/{method}/{store}/{chunk}/{rep}"] = r.values
                        if store:
                            out[f"{dname}/engine/{method}/{store}/{chunk}/{rep}/pt"] = r.extra["per_test"]
                for partial in (False, True):
                    with ShardRouter(d.x_train, d.y_train, 3, n_shards=3,
                                     on_shard_error="partial" if partial else "fail",
                                     max_retries=0) as router, FaultInjector() as chaos:
                        if partial:
                            chaos.fail_shard(router, 1)
                        r = router.value(d.x_test, d.y_test, method=method,
                                         store_per_test=store, **kw)
                        key = f"{dname}/router/data/{method}/{store}/{partial}"
                        out[key] = r.values
                        if store:
                            out[key + "/pt"] = r.extra["per_test"]
    # distance-weighted regression: the configuration engine on eq 27
    reg = regression_dataset(n_train=40, n_test=6, n_features=4, seed=7)
    for weights in ("inverse_distance", "gaussian"):
        kw = {"method": "weighted", "weights": weights, "store_per_test": True}
        for chunk in (None, 5):
            eng = ValuationEngine(reg.x_train, reg.y_train, 3, task="regression",
                                  chunk_size=chunk)
            r = eng.value(reg.x_test, reg.y_test, **kw)
            out[f"reg/engine/{weights}/{chunk}"] = r.values
            out[f"reg/engine/{weights}/{chunk}/pt"] = r.extra["per_test"]
        with ShardRouter(reg.x_train, reg.y_train, 3, n_shards=2,
                         task="regression") as router:
            r = router.value(reg.x_test, reg.y_test, **kw)
            out[f"reg/router/{weights}"] = r.values
            out[f"reg/router/{weights}/pt"] = r.extra["per_test"]
    # LSH: candidate rows, ragged (some empty) at a long code length
    for name, opts in (("lsh", {"seed": 4}), ("lsh-ragged", {"seed": 4, "alpha": 4.0})):
        eng = ValuationEngine(small.x_train, small.y_train, 3, backend="lsh",
                              backend_options=opts)
        out[f"{name}/engine"] = eng.value(small.x_test, small.y_test, method="lsh").values
        for partial in (False, True):
            with ShardRouter(small.x_train, small.y_train, 3, n_shards=3, backend="lsh",
                             backend_options=opts,
                             on_shard_error="partial" if partial else "fail",
                             max_retries=0) as router, FaultInjector() as chaos:
                if partial:
                    chaos.fail_shard(router, 2)
                r = router.value(small.x_test, small.y_test, method="lsh", store_per_test=True)
                out[f"{name}/router/{partial}"] = r.values
                out[f"{name}/router/{partial}/pt"] = r.extra["per_test"]
    # above the brute backend's split floor: one request ranks in row
    # blocks on idle cores; the second call is a cache hit
    market = gaussian_blobs(n_train=6000, n_test=64, n_features=64, seed=9)
    rng = np.random.default_rng(9)
    market.x_train[rng.choice(6000, 120)] = market.x_train[rng.choice(6000, 120)]
    eng = ValuationEngine(market.x_train, market.y_train, 5)
    for method in ("exact", "weighted"):
        for rep in range(2):
            r = eng.value(market.x_test, market.y_test, method=method, **METHODS[method])
            out[f"market/engine/{method}/{rep}"] = r.values
    # exact top-K* retrieval on both sides of its block-minimum prune:
    # at eps=0.25 (K*=5) every row has enough 128-column blocks to be
    # pruned, at eps=0.05 (K*=20) a 3000-row shard has too few; the
    # one-decimal copy ties many distances across blocks
    dec = np.round(market.x_train, 1), np.round(market.x_test, 1)
    for dname, (xtr, xte) in (("market", (market.x_train, market.x_test)), ("market-dec", dec)):
        for eps in (0.25, 0.05):
            kw = {"method": "truncated", "epsilon": eps, "store_per_test": True}
            r = ValuationEngine(xtr, market.y_train, 5).value(xte, market.y_test, **kw)
            out[f"{dname}/truncated/{eps}/engine"] = r.values
            out[f"{dname}/truncated/{eps}/engine/pt"] = r.extra["per_test"]
            with ShardRouter(xtr, market.y_train, 5, n_shards=2) as router:
                r = router.value(xte, market.y_test, **kw)
            out[f"{dname}/truncated/{eps}/router"] = r.values
            out[f"{dname}/truncated/{eps}/router/pt"] = r.extra["per_test"]
    # cached engines through a seller join and leave: value, join, value
    # twice (a miss, then a hit), leave, value twice; "shared" runs two
    # engines with one history on one RankCache, the second hitting the
    # first's entries
    for dname, d in (("small", small), ("market", market)):
        x_new, y_new = d.x_train[:7] + 0.5, d.y_train[:7]
        n = d.x_train.shape[0] + 7
        gone = [3, n // 2, n - 1]
        shared = RankCache()
        for topo, engines in (
            ("cached", [ValuationEngine(d.x_train, d.y_train, 5)]),
            ("shared", [ValuationEngine(d.x_train, d.y_train, 5, cache=shared)
                        for _ in range(2)]),
        ):
            for stage, mutate, reps in (
                ("built", None, 1),
                ("joined", lambda e: e.add_points(x_new, y_new), 2),
                ("left", lambda e: e.remove_points(gone), 2),
            ):
                for e in engines if mutate else ():
                    mutate(e)
                for rep in range(reps):
                    for i, e in enumerate(engines):
                        for method in ("exact", "weighted"):
                            r = e.value(d.x_test, d.y_test, method=method, **METHODS[method])
                            out[f"{dname}/{topo}/{stage}/{rep}/{i}/{method}"] = r.values
    # multi-chunk data-sharded requests, after mutations
    for method in ("exact", "mc"):
        with ShardRouter(big.x_train, big.y_train, 5, n_shards=2) as router:
            router.add_points(big.x_train[:7] + 0.5, big.y_train[:7])
            router.remove_points([3, 4000, 8999])
            r = router.value(big.x_test, big.y_test, method=method, **METHODS[method])
            out[f"big/router/{method}"] = r.values
    # the dynamic layers over one training set: a seller join, then a leave
    x_new, y_new = small.x_train[:7] + 0.5, small.y_train[:7]
    gone = [3, 150, 306]
    for backend, opts in (("brute", None), ("blocked", {"block_size": 64, "query_block": 4})):
        v = IncrementalValuator(small.x_train, small.y_train, 3, backend=backend,
                                backend_options=opts).fit(small.x_test, small.y_test)
        for stage, mutate in (
            ("fit", None),
            ("joined", lambda: v.add_points(x_new, y_new)),
            ("left", lambda: v.remove_points(gone)),
        ):
            if mutate is not None:
                mutate()
            out[f"incremental/{backend}/{stage}/values"] = v.values().values
            out[f"incremental/{backend}/{stage}/recompute"] = v.recompute().values
    for backend, kw in (("exact", {}), ("lsh", {"epsilon": 0.2, "delta": 0.2, "seed": 4})):
        s = StreamingKNNShapley(small.x_train, small.y_train, 3, backend=backend, **kw)
        out[f"streaming/{backend}/update"] = s.update(small.x_test[0], small.y_test[0])
        out[f"streaming/{backend}/batch"] = s.update_batch(small.x_test[1:8], small.y_test[1:8])
        s.add_points(x_new, y_new)
        out[f"streaming/{backend}/joined"] = s.update_batch(small.x_test[8:14], small.y_test[8:14])
        s.remove_points(gone)
        out[f"streaming/{backend}/left"] = s.update_batch(small.x_test[14:], small.y_test[14:])
        out[f"streaming/{backend}/values"] = s.values().values
    return out


def compare(base_path: str, change_path: str) -> int:
    """Print how many arrays differ between two grid files; 0 when none."""
    a, b = np.load(base_path), np.load(change_path)
    if sorted(a.files) != sorted(b.files):
        print("the grids hold different arrays:", sorted(set(a.files) ^ set(b.files)))
        return 1
    bad = [k for k in a.files if not np.array_equal(a[k], b[k])]
    print(f"{len(a.files)} arrays, {len(bad)} differ", bad[:10])
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    np.savez(sys.argv[1], **grid())
