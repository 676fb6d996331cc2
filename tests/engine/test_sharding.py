"""Tests for the sharded multi-engine tier (ShardRouter).

The headline invariant: for exact-search backends, a router of any
width returns values bit-matched (<= 1e-12; identical in practice) to
a single ValuationEngine over the same training set — across kernels,
tie-heavy data, and mutations.  The robustness contract (timeouts,
retry-once, degraded mode) and the observability threading (one trace
tree, one labeled hub) are tested behaviorally.
"""

import threading
import time

import numpy as np
import pytest

from repro.engine import ShardRouter, ValuationEngine, ValuationService
from repro.exceptions import ParameterError, ShardError
from repro.monitor import FaultInjector, MaintenanceScheduler, TelemetryHub, Tracer


@pytest.fixture(scope="module")
def data():
    from repro.datasets import gaussian_blobs

    return gaussian_blobs(n_train=350, n_test=23, n_features=12, seed=91)


def _engine(data, k=4, **kw):
    return ValuationEngine(data.x_train, data.y_train, k, **kw)


def _router(data, k=4, **kw):
    kw.setdefault("n_shards", 2)
    return ShardRouter(data.x_train, data.y_train, k, **kw)


# ------------------------------------------------------- bit identity
@pytest.mark.parametrize("sharding", ["data"])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_exact_bit_matches_single_engine(data, sharding, n_shards):
    reference = _engine(data).value(data.x_test, data.y_test)
    with _router(data, n_shards=n_shards, sharding=sharding) as router:
        result = router.value(data.x_test, data.y_test)
    assert np.max(np.abs(result.values - reference.values)) <= 1e-12
    assert result.method == "exact"
    assert result.extra["sharding"] == sharding
    assert result.extra["n_shards"] == n_shards


@pytest.mark.parametrize("sharding", ["data"])
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_truncated_bit_matches_single_engine(data, sharding, n_shards):
    reference = _engine(data).value(
        data.x_test, data.y_test, method="truncated", epsilon=0.1
    )
    with _router(data, n_shards=n_shards, sharding=sharding) as router:
        result = router.value(
            data.x_test, data.y_test, method="truncated", epsilon=0.1
        )
    assert np.max(np.abs(result.values - reference.values)) <= 1e-12
    assert result.extra["k_star"] == reference.extra["k_star"]


# the weighted cases run K=1 (closed-form path) and K=2 with rank-only
# weights (piecewise counting): the distance-weight configuration
# engine at K >= 3 is combinatorial and has no place in a unit test
@pytest.mark.parametrize("sharding", ["data"])
@pytest.mark.parametrize(
    "k,weights,mode",
    [(1, "inverse_distance", "auto"), (2, "rank", "piecewise")],
)
def test_weighted_bit_matches_single_engine(data, sharding, k, weights, mode):
    reference = _engine(data, k=k).value(
        data.x_test, data.y_test, method="weighted", weights=weights, mode=mode
    )
    with _router(data, k=k, n_shards=2, sharding=sharding) as router:
        result = router.value(
            data.x_test,
            data.y_test,
            method="weighted",
            weights=weights,
            mode=mode,
        )
    assert np.max(np.abs(result.values - reference.values)) <= 1e-12


@pytest.mark.parametrize("sharding", ["data"])
def test_regression_bit_matches_single_engine(sharding):
    from repro.datasets import regression_dataset

    data = regression_dataset(n_train=60, n_test=9, n_features=4, seed=92)
    reference = ValuationEngine(
        data.x_train, data.y_train, 3, task="regression"
    ).value(data.x_test, data.y_test)
    with ShardRouter(
        data.x_train,
        data.y_train,
        3,
        n_shards=3,
        sharding=sharding,
        task="regression",
    ) as router:
        result = router.value(data.x_test, data.y_test)
    assert np.max(np.abs(result.values - reference.values)) <= 1e-12
    assert result.method == "exact-regression"


def test_duplicate_points_tie_break_is_exact():
    """Duplicated rows force cross-shard distance ties; the merge must
    reproduce the single engine's distance-then-index order exactly."""
    rng = np.random.default_rng(7)
    base = rng.normal(size=(40, 5))
    x_train = np.vstack([base, base, base])  # every point thrice
    y_train = np.asarray(rng.integers(0, 3, size=120))
    x_test = base[:11] + 0.01 * rng.normal(size=(11, 5))
    y_test = np.asarray(rng.integers(0, 3, size=11))
    engine = ValuationEngine(x_train, y_train, 4)
    for method, kwargs in [("exact", {}), ("truncated", {"epsilon": 0.2})]:
        reference = engine.value(x_test, y_test, method=method, **kwargs)
        with ShardRouter(x_train, y_train, 4, n_shards=4) as router:
            result = router.value(x_test, y_test, method=method, **kwargs)
        np.testing.assert_array_equal(result.values, reference.values)


def test_store_per_test_matches_single_engine(data):
    reference = _engine(data).value(
        data.x_test, data.y_test, store_per_test=True
    )
    with _router(data, n_shards=3) as router:
        result = router.value(data.x_test, data.y_test, store_per_test=True)
    np.testing.assert_allclose(
        result.extra["per_test"], reference.extra["per_test"], atol=1e-12
    )


# ----------------------------------------------------------- mutations
def test_mutations_round_trip_bit_exact(data):
    engine = _engine(data, cache=False)
    with _router(data, n_shards=3, cache=False) as router:
        rng = np.random.default_rng(5)
        x_new = rng.normal(size=(7, data.x_train.shape[1]))
        y_new = np.asarray(rng.integers(0, 2, size=7))
        got_e = engine.add_points(x_new, y_new)
        got_r = router.add_points(x_new, y_new)
        np.testing.assert_array_equal(got_e, got_r)
        assert router.n_train == engine.n_train

        after_add = router.value(data.x_test, data.y_test)
        ref_add = engine.value(data.x_test, data.y_test)
        np.testing.assert_array_equal(after_add.values, ref_add.values)

        # remove a mix of original and freshly appended points spanning
        # shards; numpy.delete renumbering must agree on both sides
        victims = np.asarray([0, 151, 340, int(got_r[2]), int(got_r[6])])
        engine.remove_points(victims)
        router.remove_points(victims)
        assert router.n_train == engine.n_train
        after_rm = router.value(data.x_test, data.y_test)
        ref_rm = engine.value(data.x_test, data.y_test)
        np.testing.assert_array_equal(after_rm.values, ref_rm.values)


def test_add_points_explicit_shard_and_validation(data):
    with _router(data, n_shards=2) as router:
        before = router.shards[1].engine.n_train
        router.add_points(
            data.x_train[:3], data.y_train[:3], shard=1
        )
        assert router.shards[1].engine.n_train == before + 3
        with pytest.raises(ParameterError):
            router.add_points(data.x_train[:1], data.y_train[:1], shard=9)


@pytest.mark.parametrize(
    "shard", [np.float64(1.0), 1.0, True], ids=["np-float", "float", "bool"]
)
def test_add_points_refuses_a_non_integer_shard(data, shard):
    with _router(data, n_shards=2) as router:
        sizes = [s.engine.n_train for s in router.shards]
        with pytest.raises(ParameterError, match="integer"):
            router.add_points(data.x_train[:1], data.y_train[:1], shard=shard)
        assert [s.engine.n_train for s in router.shards] == sizes
        assert router.n_train == data.n_train
        # a numpy integer is an integer
        router.add_points(data.x_train[:1], data.y_train[:1], shard=np.int64(1))
        assert router.shards[1].engine.n_train == sizes[1] + 1


def test_rejected_removal_touches_no_shard():
    from repro.datasets import gaussian_blobs

    d = gaussian_blobs(n_train=12, n_test=5, n_features=3, seed=4)
    with ShardRouter(d.x_train, d.y_train, 2, n_shards=3) as router:
        # shard1 holds 4..7: removing all of them would empty it, so
        # shard0 must not lose point 0 either
        with pytest.raises(ParameterError, match="shard1"):
            router.remove_points([0, 4, 5, 6, 7])
        assert router.n_train == 12
        assert [s.engine.n_train for s in router.shards] == [4, 4, 4]
        result = router.value(d.x_test, d.y_test)
    reference = ValuationEngine(d.x_train, d.y_train, 2).value(d.x_test, d.y_test)
    np.testing.assert_array_equal(result.values, reference.values)


def test_remove_points_validation(data):
    with _router(data) as router:
        with pytest.raises(ParameterError):
            router.remove_points([0, 0])
        with pytest.raises(ParameterError):
            router.remove_points([router.n_train])


# ----------------------------------------------- robustness contract
def _break_shard(router, idx, exc=RuntimeError("shard down")):
    """Make shard ``idx`` raise on every retrieval/valuation."""

    def boom(*a, **kw):
        raise exc

    router.shards[idx].engine.retrieve = boom
    router.shards[idx].engine.value = boom


def test_fail_policy_raises_shard_error(data):
    with _router(data, on_shard_error="fail") as router:
        _break_shard(router, 1)
        with pytest.raises(ShardError) as err:
            router.value(data.x_test, data.y_test)
        assert "shard1" in err.value.reasons


def test_partial_policy_serves_exact_subgame(data):
    with _router(data, n_shards=2, on_shard_error="partial") as router:
        surviving = router._placement[0].copy()
        _break_shard(router, 1)
        result = router.value(data.x_test, data.y_test)
    degraded = result.extra["degraded"]
    assert degraded["shards"] == ["shard1"]
    assert degraded["semantics"] == "exact-subgame-over-surviving-shards"
    assert degraded["missing_points"] == router.n_train - surviving.shape[0]
    # the surviving shards' answer is the exact value of the sub-game
    # over the points they hold; lost positions contribute zero
    sub = ValuationEngine(
        data.x_train[surviving], data.y_train[surviving], 4
    ).value(data.x_test, data.y_test)
    np.testing.assert_array_equal(result.values[surviving], sub.values)
    lost = np.setdiff1d(np.arange(router.n_train), surviving)
    assert np.all(result.values[lost] == 0.0)


#: one request per method, with the keywords that make it deterministic
METHODS = {
    "exact": {},
    "truncated": {"epsilon": 0.1},
    "weighted": {"weights": "rank"},
    "mc": {"n_permutations": 5, "seed": 11},
}


@pytest.mark.parametrize("store_per_test", [False, True])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_partial_policy_survivors_match_a_single_engine(data, method, store_per_test):
    with _router(data, n_shards=3, on_shard_error="partial") as router, FaultInjector() as chaos:
        surviving = np.concatenate([router._placement[0], router._placement[2]])
        chaos.fail_shard(router, 1)
        result = router.value(
            data.x_test, data.y_test, method=method, store_per_test=store_per_test,
            **METHODS[method],
        )
    lost = np.setdiff1d(np.arange(data.n_train), surviving)
    assert result.extra["degraded"]["missing_points"] == lost.shape[0]
    sub = ValuationEngine(data.x_train[surviving], data.y_train[surviving], 4).value(
        data.x_test, data.y_test, method=method, store_per_test=store_per_test,
        **METHODS[method],
    )
    np.testing.assert_array_equal(result.values[surviving], sub.values)
    assert np.all(result.values[lost] == 0.0)
    if store_per_test:
        per_test = result.extra["per_test"]
        assert per_test.shape == (data.x_test.shape[0], data.n_train)
        np.testing.assert_array_equal(per_test[:, surviving], sub.extra["per_test"])
        assert np.all(per_test[:, lost] == 0.0)


def test_all_shards_dead_raises_even_under_partial(data):
    with _router(data, n_shards=2, on_shard_error="partial") as router:
        _break_shard(router, 0)
        _break_shard(router, 1)
        with pytest.raises(ShardError):
            router.value(data.x_test, data.y_test)


def test_transient_error_is_retried_once(data):
    reference = _engine(data).value(data.x_test, data.y_test)
    with _router(data, n_shards=2, on_shard_error="fail") as router:
        original = router.shards[1].engine.retrieve
        state = {"failures": 1}
        lock = threading.Lock()

        def flaky(*a, **kw):
            with lock:
                if state["failures"]:
                    state["failures"] -= 1
                    raise RuntimeError("transient")
            return original(*a, **kw)

        router.shards[1].engine.retrieve = flaky
        result = router.value(data.x_test, data.y_test)
        assert router.stats()["counters"]["retries"] == 1
    np.testing.assert_array_equal(result.values, reference.values)
    assert "degraded" not in result.extra


def test_timeout_hedges_once_without_retry(data):
    with _router(
        data, n_shards=2, on_shard_error="partial", shard_timeout=0.05
    ) as router:
        calls = {"n": 0}
        lock = threading.Lock()

        def stall(*a, **kw):
            with lock:
                calls["n"] += 1
            time.sleep(0.6)
            raise RuntimeError("unreachable in practice")

        router.shards[1].engine.retrieve = stall
        result = router.value(data.x_test, data.y_test)
        stats = router.stats()["counters"]
        assert stats["shard_timeouts"] >= 1
        assert stats["hedges"] == 1
        assert stats["retries"] == 0
    assert "timeout" in result.extra["degraded"]["reasons"]["shard1"]
    # the timed-out leg is hedged exactly once, never retried in place
    assert calls["n"] == 2


def test_timeout_without_hedge_calls_once(data):
    with _router(
        data,
        n_shards=2,
        on_shard_error="partial",
        shard_timeout=0.05,
        hedge=False,
    ) as router:
        calls = {"n": 0}
        lock = threading.Lock()

        def stall(*a, **kw):
            with lock:
                calls["n"] += 1
            time.sleep(0.6)
            raise RuntimeError("unreachable in practice")

        router.shards[1].engine.retrieve = stall
        result = router.value(data.x_test, data.y_test)
        stats = router.stats()["counters"]
        assert stats["shard_timeouts"] >= 1
        assert stats["hedges"] == 0
        assert stats["retries"] == 0
    assert "timeout" in result.extra["degraded"]["reasons"]["shard1"]
    assert calls["n"] == 1


# ------------------------------------------------------ observability
def test_one_trace_tree_per_request(data):
    tracer = Tracer()
    with _router(data, n_shards=2, tracer=tracer) as router:
        result = router.value(data.x_test, data.y_test)
    tree = result.extra["trace"]
    assert tree["name"] == "router.request"
    names = [c["name"] for c in tree["children"]]
    assert names.count("shard.request") == 2
    assert "router.merge" in names
    assert "kernel.exact" in names
    shard_children = [
        g["name"]
        for c in tree["children"]
        if c["name"] == "shard.request"
        for g in c["children"]
    ]
    assert "engine.retrieve" in shard_children


@pytest.mark.parametrize(
    "method, kernel", [("exact", "exact"), ("truncated", "truncated"),
                       ("weighted", "weighted"), ("mc", "mcserve")]
)
def test_trace_tree_shape_per_method(data, method, kernel):
    """The span shape per-layer timings read: legs, merge and kernel
    under the request; one bare retrieval (or none, for mc) per leg."""
    with _router(data, n_shards=2, tracer=Tracer()) as router:
        result = router.value(data.x_test, data.y_test, method=method, **METHODS[method])
    tree = result.extra["trace"]
    assert tree["name"] == "router.request"
    kids = tree["children"]
    legs = [c for c in kids if c["name"] == "shard.request"]
    assert len(legs) == 2
    assert all(leg["attributes"]["start"] == 0 for leg in legs)
    assert [c["name"] for c in kids if c["name"] != "shard.request"] == [
        "router.merge", f"kernel.{kernel}"
    ]
    for leg in legs:
        if method == "mc":
            assert leg["children"] == []
            continue
        (retrieve,) = leg["children"]
        assert retrieve["name"] == "engine.retrieve"
        if method == "truncated":
            assert retrieve["attributes"]["k"] >= 0
        else:
            assert retrieve["attributes"]["k"] == -1
        # a leg's retrieval is one span: perfbench adds engine.retrieve
        # and backend.* spans into the same backend timing
        assert retrieve["children"] == []


def test_closed_router_rejects_requests_typed(data):
    router = _router(data)
    router.close()
    assert not router.ready
    with pytest.raises(ShardError, match="closed"):
        router.value(data.x_test, data.y_test)


def test_one_hub_aggregates_the_fleet(data):
    hub = TelemetryHub()
    with _router(data, n_shards=2, hub=hub) as router:
        router.value(data.x_test, data.y_test)
        router.add_points(data.x_train[:2], data.y_train[:2])
    assert hub.counter("shard0.engine.retrievals") >= 1
    assert hub.counter("shard1.engine.retrievals") >= 1
    assert hub.counter("router.mutations") == 1
    assert hub.n_recorded("router.request_seconds") == 1
    assert hub.n_recorded("router.merge_seconds") == 1


def test_service_fronts_a_router_unchanged(data):
    reference = _engine(data).value(data.x_test, data.y_test)
    router = _router(data, n_shards=2)
    with ValuationService(router, n_workers=2) as service:
        job = service.submit_batch(data.x_test, data.y_test)
        result = job.result(timeout=30.0)
        np.testing.assert_array_equal(result.values, reference.values)
        add = service.submit_add(data.x_train[:2], data.y_train[:2])
        assert add.result(timeout=30.0).n_train == data.n_train + 2
    router.close()


def test_maintenance_scheduler_spans_the_fleet(data):
    with _router(data, n_shards=2) as router:
        sched = MaintenanceScheduler(router=router, interval=30.0)
        assert sched.stats()["gauges"]["n_units"] == 2
        router.value(data.x_test, data.y_test)
        sched.run_once()  # a healthy fleet plans no action
        assert sched.hub is router.telemetry
    with pytest.raises(ParameterError):
        MaintenanceScheduler(
            router=router, engine=router.shards[0].engine
        )
    with pytest.raises(ParameterError):
        MaintenanceScheduler(router=router, detectors=[])


# -------------------------------------------------------- validation
def test_constructor_validation(data):
    for kwargs in [
        {"n_shards": 0},
        {"sharding": "rows"},
        {"sharding": "test"},
        {"on_shard_error": "ignore"},
        {"shard_timeout": 0.0},
        {"shard_timeout": float("nan")},
        {"n_shards": data.n_train + 1},
    ]:
        with pytest.raises(ParameterError):
            ShardRouter(data.x_train, data.y_train, 4, **kwargs)


def test_value_validation(data):
    with _router(data) as router:
        with pytest.raises(ParameterError):
            router.value(data.x_test[:, :3], data.y_test)
        with pytest.raises(ParameterError):
            router.value(data.x_test, data.y_test, method="no-such-method")


def test_stats_schema(data):
    with _router(data, n_shards=2) as router:
        router.value(data.x_test, data.y_test)
        stats = router.stats()
    assert stats["component"] == "shard_router"
    assert stats["counters"]["requests"] == 1
    assert stats["gauges"]["n_shards"] == 2
    assert set(stats["shards"]) == {"shard0", "shard1"}
    assert stats["shards"]["shard0"]["component"] == "valuation_engine"
