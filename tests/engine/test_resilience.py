"""Chaos suite: the degradation ladder, breakers, and fault recovery.

Every resilience claim the serving layer makes is exercised here
against injected faults (:class:`repro.monitor.FaultInjector`):
overload engages the precision ladder rung by rung, every degraded
answer stays within its published certificate against the exact
oracle, serving returns to exact once the fault clears, deadlines
propagate across the shard fan-out, circuit breakers walk their full
closed → open → half-open → closed lifecycle, and no shutdown path
can strand a caller.
"""

import time
from contextlib import nullcontext

import numpy as np
import pytest

from repro.core import exact_knn_shapley
from repro.engine import (
    DEFAULT_LADDER,
    DegradationController,
    ShardRouter,
    ValuationEngine,
    ValuationRequest,
    ValuationService,
)
from repro.exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    ParameterError,
    ShardError,
)
from repro.monitor import (
    AlertManager,
    FaultInjector,
    ObservabilityServer,
    SLOTracker,
    TelemetryHub,
    service_rules,
)

K = 3


@pytest.fixture(scope="module")
def data():
    from repro.datasets import gaussian_blobs

    return gaussian_blobs(n_train=150, n_test=10, n_features=6, seed=7)


@pytest.fixture(scope="module")
def oracle(data):
    return exact_knn_shapley(data, K).values


@pytest.fixture()
def engine(data):
    return ValuationEngine(data.x_train, data.y_train, K)


# ---------------------------------------------------------------------------
# the ladder's rungs keep their certificates
# ---------------------------------------------------------------------------


def test_mc_method_stays_within_certificate(data, engine, oracle):
    result = engine.value(
        data.x_test, data.y_test, method="mc", epsilon=0.3, delta=0.05, seed=11
    )
    assert result.method == "mc"
    cert = result.extra["certificate"]
    assert cert["bound"] == "bennett-theorem5"
    assert cert["epsilon"] == pytest.approx(0.3)
    err = np.max(np.abs(result.values - oracle))
    assert err <= cert["epsilon"]


def test_mc_explicit_budget_inverts_certificate(data, engine, oracle):
    result = engine.value(
        data.x_test,
        data.y_test,
        method="mc",
        n_permutations=200,
        delta=0.05,
        seed=5,
    )
    cert = result.extra["certificate"]
    assert cert["n_permutations"] == 200
    # the certified epsilon is the smallest Theorem-5 target whose
    # budget fits 200 permutations — and the realized error honors it
    assert 0 < cert["epsilon"] < 1
    assert np.max(np.abs(result.values - oracle)) <= cert["epsilon"]


def test_every_non_exact_rung_certificate_holds(data, engine, oracle):
    for rung in DEFAULT_LADDER[1:]:
        kwargs = {"method": rung.method, "epsilon": rung.epsilon}
        if rung.method == "mc":
            kwargs.update(delta=rung.delta, seed=3)
        result = engine.value(data.x_test, data.y_test, **kwargs)
        err = np.max(np.abs(result.values - oracle))
        assert err <= rung.epsilon + 1e-12, (rung.name, err)


# ---------------------------------------------------------------------------
# the controller: pressure mapping, recovery rule, deadline escalation
# ---------------------------------------------------------------------------


def test_controller_maps_pressure_to_rungs():
    ctl = DegradationController(queue_low=1, queue_high=9)
    assert ctl.plan(0)[0].name == "exact"
    assert ctl.plan(1)[0].name == "exact"  # at queue_low: still exact
    names = [ctl.plan(d)[0].name for d in (2, 5, 9, 50)]
    assert names[0] == "truncated-fine"
    assert names[-1] == "mc"
    # monotone: deeper queue never picks a more precise rung
    order = [r.name for r in ctl.ladder]
    assert [order.index(n) for n in names] == sorted(
        order.index(n) for n in names
    )


def test_controller_recovery_rule_ignores_stale_burn():
    class Burny:
        def worst_burn(self):
            return 100.0

    ctl = DegradationController(slo=Burny(), queue_low=1, queue_high=8)
    # under pressure the burn signal holds the ladder down
    assert ctl.plan(4)[0].name != "exact"
    # but an idle queue serves exact immediately, burn history or not
    rung, info = ctl.plan(0)
    assert rung.name == "exact"
    assert info["burn_pressure"] == 0.0


def test_controller_deadline_escalation_steps_down():
    ctl = DegradationController(queue_low=1, queue_high=9)
    ctl.observe("truncated-fine", 10.0)  # EWMA: this rung takes ~10s
    rung, info = ctl.plan(2, deadline_s=0.5)
    assert rung.name != "truncated-fine"
    assert info.get("deadline_escalated") is True


def test_controller_serves_a_cheaper_precise_rung_in_place_of_mc():
    ctl = DegradationController(queue_low=1, queue_high=9)
    ctl.observe("mc", 0.012)
    ctl.observe("truncated-coarse", 0.006)
    rung, info = ctl.plan(50)  # pressure maps to mc
    assert rung.name == "truncated-coarse"
    assert info["rung"] == "truncated-coarse"
    assert info["substituted_for"] == "mc"


def test_controller_serves_an_unobserved_mapped_rung_as_mapped():
    ctl = DegradationController(queue_low=1, queue_high=9)
    ctl.observe("truncated-coarse", 0.001)
    ctl.observe("exact", 0.001)
    rung, info = ctl.plan(50)
    assert rung.name == "mc"
    assert "substituted_for" not in info


def test_controller_prefers_the_more_precise_rung_on_equal_cost():
    ctl = DegradationController(queue_low=1, queue_high=9)
    for name in ("truncated-fine", "truncated-coarse", "mc"):
        ctl.observe(name, 0.01)
    rung, info = ctl.plan(50)
    assert rung.name == "truncated-fine"
    assert info["substituted_for"] == "mc"


def test_controller_idle_queue_stays_exact_whatever_the_costs():
    ctl = DegradationController(queue_low=1, queue_high=9)
    ctl.observe("exact", 10.0)
    for name in ("truncated-fine", "truncated-coarse", "mc"):
        ctl.observe(name, 0.001)
    rung, info = ctl.plan(0)
    assert rung.name == "exact"
    assert "substituted_for" not in info


def test_controller_counts_each_substitution():
    ctl = DegradationController(queue_low=1, queue_high=9)
    assert ctl.snapshot()["substitutions"] == 0
    ctl.observe("exact", 0.002)
    ctl.observe("mc", 0.02)
    ctl.observe("truncated-coarse", 0.01)
    assert ctl.plan(4)[1]["substituted_for"] == "truncated-coarse"
    names = [ctl.plan(d)[0].name for d in (0, 50, 50)]
    assert names == ["exact", "exact", "exact"]
    snap = ctl.snapshot()
    assert snap["substitutions"] == 3
    assert snap["picks"]["exact"] == 4
    assert snap["picks"]["mc"] == 0


def test_controller_rejects_bad_ladders():
    from repro.engine import PrecisionRung

    with pytest.raises(ParameterError):
        DegradationController(ladder=())
    with pytest.raises(ParameterError):
        DegradationController(
            ladder=(PrecisionRung("mc", "mc", epsilon=0.5),)
        )
    with pytest.raises(ParameterError):
        DegradationController(queue_low=5, queue_high=5)


# ---------------------------------------------------------------------------
# overload: the service engages the ladder, then recovers to exact
# ---------------------------------------------------------------------------


def test_overload_engages_ladder_and_recovers(data, engine, oracle):
    ctl = DegradationController(queue_low=1, queue_high=6)
    with ValuationService(
        engine, n_workers=1, degradation=ctl
    ) as service, FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.08, times=3)
        jobs = [
            service.submit(ValuationRequest(data.x_test, data.y_test))
            for _ in range(10)
        ]
        results = [j.result(timeout=60) for j in jobs]
        # fault cleared and queue drained: an idle submission is exact
        calm = service.submit(
            ValuationRequest(data.x_test, data.y_test)
        ).result(timeout=60)

    degraded = [r for r in results if "degraded" in r.extra]
    assert degraded, "overload never engaged the ladder"
    rungs = {r.extra["degraded"]["rung"] for r in degraded}
    assert rungs & {"truncated-fine", "truncated-coarse", "mc"}
    # every degraded answer carries a certificate and honors it
    for r in degraded:
        cert = r.extra["degraded"]["certificate"]
        assert cert["epsilon"] > 0
        assert np.max(np.abs(r.values - oracle)) <= cert["epsilon"] + 1e-12
    # recovery: the post-fault request is exact and unmarked
    assert "degraded" not in calm.extra
    assert np.max(np.abs(calm.values - oracle)) < 1e-10
    picks = ctl.snapshot()["picks"]
    assert picks["exact"] >= 1


def test_substituted_rung_answers_with_a_valid_certificate(data, engine, oracle):
    ctl = DegradationController(queue_low=0, queue_high=1)
    # mc measured slow, the truncated rungs fast: pressure maps a
    # waiting job to mc and the controller serves a truncated rung
    ctl.observe("mc", 10.0)
    ctl.observe("truncated-fine", 0.001)
    ctl.observe("truncated-coarse", 0.001)
    with ValuationService(
        engine, n_workers=1, degradation=ctl
    ) as service, FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.05, times=2)
        jobs = [
            service.submit(ValuationRequest(data.x_test, data.y_test))
            for _ in range(4)
        ]
        results = [j.result(timeout=60) for j in jobs]
    substituted = [
        r for r in results
        if r.extra.get("degraded", {}).get("substituted_for") == "mc"
    ]
    assert substituted, "no request was served in place of mc"
    for r in substituted:
        degraded = r.extra["degraded"]
        assert degraded["rung"] in ("truncated-fine", "truncated-coarse")
        assert r.method.startswith("truncated")
        cert = degraded["certificate"]
        assert cert["epsilon"] == pytest.approx(degraded["epsilon"])
        assert np.max(np.abs(r.values - oracle)) <= cert["epsilon"] + 1e-12
    assert ctl.snapshot()["picks"]["mc"] == 0
    assert ctl.snapshot()["substitutions"] >= len(substituted)


def test_degradation_skips_explicitly_non_exact_requests(data, engine):
    ctl = DegradationController(queue_low=0, queue_high=2)
    with ValuationService(
        engine, n_workers=1, degradation=ctl
    ) as service, FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.05, times=2)
        jobs = [
            service.submit(
                ValuationRequest(
                    data.x_test, data.y_test, method="truncated", epsilon=0.1
                )
            )
            for _ in range(4)
        ]
        for j in jobs:
            r = j.result(timeout=60)
            # the caller asked for truncated(0.1); the ladder must not
            # silently swap in a looser rung
            assert r.extra["epsilon"] == pytest.approx(0.1)
            assert "degraded" not in r.extra


# ---------------------------------------------------------------------------
# admission control and deadlines at the queue
# ---------------------------------------------------------------------------


def test_shed_admission_rejects_typed_and_reports(data, engine):
    with ValuationService(
        engine, n_workers=1, max_queue=2, admission="shed"
    ) as service, FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.1)
        accepted, rejections = [], []
        for _ in range(8):
            try:
                accepted.append(
                    service.submit(ValuationRequest(data.x_test, data.y_test))
                )
            except AdmissionRejectedError as exc:
                rejections.append(exc)
        assert rejections, "a bounded queue never shed"
        assert rejections[0].max_queue == 2
        res = service.resilience()
        assert res["shedding"] is True
        assert res["sheds"] == len(rejections)
        stats = service.stats()
        assert stats["counters"]["jobs_shed"] == len(rejections)
        for job in accepted:
            job.result(timeout=60)


def test_deadline_missed_in_queue_fails_typed(data, engine):
    with ValuationService(engine, n_workers=1) as service, FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.25, times=1)
        blocker = service.submit(ValuationRequest(data.x_test, data.y_test))
        doomed = service.submit(
            ValuationRequest(data.x_test, data.y_test, deadline_ms=50)
        )
        blocker.result(timeout=60)
        with pytest.raises(DeadlineExceededError):
            doomed.result(timeout=60)
        assert doomed.status == "failed"
        assert service.stats()["counters"]["jobs_deadline_exceeded"] == 1


def test_priority_jumps_the_queue(data, engine):
    with ValuationService(engine, n_workers=1) as service, FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.15, times=1)
        service.submit(ValuationRequest(data.x_test, data.y_test))
        time.sleep(0.03)  # let the worker pick the blocker up
        low = service.submit(
            ValuationRequest(data.x_test, data.y_test, priority=0)
        )
        high = service.submit(
            ValuationRequest(data.x_test, data.y_test, priority=10)
        )
        low.result(timeout=60)
        high.result(timeout=60)
    assert high.finished_at < low.finished_at


def test_engine_deadline_raises_typed(data, engine):
    with pytest.raises(DeadlineExceededError):
        engine.value(data.x_test, data.y_test, deadline_s=0.0)


def test_one_chunk_engine_request_finished_late_raises(data, monkeypatch):
    # the only pre-chunk check passes; the chunk itself overruns
    engine = ValuationEngine(data.x_train, data.y_train, K)
    rank, calls = engine.backend.rank, []

    def slow_rank(queries):
        calls.append(1)
        time.sleep(0.1)
        return rank(queries)

    monkeypatch.setattr(engine.backend, "rank", slow_rank)
    with pytest.raises(DeadlineExceededError):
        engine.value(data.x_test, data.y_test, deadline_s=0.05)
    assert calls == [1]  # one chunk, run to the end, then refused


def _server(topology, x, y, k):
    """An engine or a 2-shard router, as a context manager."""
    if topology == "engine":
        return nullcontext(ValuationEngine(x, y, k))
    return ShardRouter(x, y, k=k, n_shards=2)


@pytest.mark.parametrize("topology", ["engine", "router"])
def test_weighted_configuration_sum_stops_at_the_deadline(topology):
    # one chunk holding a Theorem 7 sum of a few seconds: the budget is
    # checked between configuration blocks, not only between chunks
    from repro.datasets import gaussian_blobs

    small = gaussian_blobs(n_train=80, n_test=1, n_features=4, seed=3)
    with _server(topology, small.x_train, small.y_train, 4) as server:
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceededError):
            server.value(
                small.x_test,
                small.y_test,
                method="weighted",
                weights="inverse_distance",
                deadline_s=0.05,
            )
        assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("topology", ["engine", "router"])
def test_weighted_reference_recursion_stops_at_the_deadline(topology):
    # one chunk, one test point, a per-coalition Theorem 7 recursion of
    # a few seconds: the budget is checked between its rank steps
    from repro.datasets import gaussian_blobs

    small = gaussian_blobs(n_train=100, n_test=1, n_features=4, seed=3)
    with _server(topology, small.x_train, small.y_train, 3) as server:
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="between rank steps"):
            server.value(
                small.x_test,
                small.y_test,
                method="weighted",
                weights="inverse_distance",
                mode="reference",
                deadline_s=0.05,
            )
        assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("topology", ["engine", "router"])
def test_monte_carlo_permutations_stop_at_the_deadline(data, topology):
    # an explicit permutation count worth seconds: checked per permutation
    with _server(topology, data.x_train, data.y_train, K) as server:
        t0 = time.perf_counter()
        with pytest.raises(DeadlineExceededError, match="between permutations"):
            server.value(
                data.x_test,
                data.y_test,
                method="mc",
                n_permutations=20000,
                seed=1,
                deadline_s=0.05,
            )
        assert time.perf_counter() - t0 < 0.5


# ---------------------------------------------------------------------------
# router: deadline propagation, breakers, hedging under a slow shard
# ---------------------------------------------------------------------------


def _router(data, **kwargs):
    defaults = dict(
        n_shards=4,
        hedge=False,
        max_retries=0,
        shard_timeout=30.0,
    )
    defaults.update(kwargs)
    return ShardRouter(data.x_train, data.y_train, k=K, **defaults)


def test_deadline_propagates_across_shard_fanout(data):
    router = _router(data)
    try:
        with FaultInjector() as chaos:
            for i in range(4):
                chaos.slow_shard(router, i, 0.4)
            t0 = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                router.value(data.x_test, data.y_test, deadline_s=0.15)
            elapsed = time.perf_counter() - t0
        # the deadline cut the request short instead of waiting out
        # every slow leg serially
        assert elapsed < 2.0
        # a deadline miss is the request's fault, not the shards':
        # no breaker may trip over it
        assert router.resilience()["open_circuits"] == []
        assert router.stats()["counters"]["deadline_exceeded"] >= 1
    finally:
        router.close()


def test_breaker_full_lifecycle_with_fake_clock(data):
    clk = {"t": 0.0}
    router = _router(
        data,
        n_shards=2,
        on_shard_error="partial",
        breaker_threshold=2,
        breaker_cooldown=10.0,
        breaker_clock=lambda: clk["t"],
    )
    try:
        with FaultInjector() as chaos:
            chaos.fail_shard(router, 1, times=2)
            for _ in range(2):
                router.value(data.x_test, data.y_test)
            assert router.resilience()["breakers"]["shard1"] == "open"
            # while open the shard is skipped without being called
            r = router.value(data.x_test, data.y_test)
            assert "circuit open" in str(
                r.extra["degraded"]["reasons"]["shard1"]
            )
        clk["t"] = 11.0  # past the cooldown: half-open admits a probe
        assert router.resilience()["breakers"]["shard1"] == "half-open"
        healed = router.value(data.x_test, data.y_test)
        assert router.resilience()["breakers"]["shard1"] == "closed"
        assert "degraded" not in healed.extra
    finally:
        router.close()


def test_deadline_miss_never_strands_a_half_open_probe(data):
    clk = {"t": 0.0}
    router = _router(
        data,
        n_shards=2,
        on_shard_error="partial",
        breaker_threshold=2,
        breaker_cooldown=10.0,
        breaker_clock=lambda: clk["t"],
    )
    try:
        with FaultInjector() as chaos:
            chaos.fail_shard(router, 1, times=2)
            for _ in range(2):
                router.value(data.x_test, data.y_test)
        clk["t"] = 11.0
        assert router.resilience()["breakers"]["shard1"] == "half-open"
        with FaultInjector() as chaos:
            chaos.slow_shard(router, 0, 0.3)
            with pytest.raises(DeadlineExceededError):
                router.value(data.x_test, data.y_test, deadline_s=0.1)
        # the miss says nothing about shard1: its probe is handed back
        # without counting a failure, so the next request may probe
        assert router.resilience()["breakers"]["shard1"] == "half-open"
        clk["t"] = 111.0
        healed = router.value(data.x_test, data.y_test)
        assert "degraded" not in healed.extra
        assert router.resilience()["breakers"]["shard1"] == "closed"
    finally:
        router.close()


def test_budget_capped_leg_wait_is_a_deadline_not_a_shard_timeout(data):
    router = _router(data, n_shards=2, on_shard_error="partial")
    try:
        with FaultInjector() as chaos:
            chaos.slow_shard(router, 1, 0.3)
            # the slow leg outlives the request's budget, not its own
            # 30 s window: no degraded answer may be served late
            with pytest.raises(DeadlineExceededError):
                router.value(data.x_test, data.y_test, deadline_s=0.1)
        counters = router.stats()["counters"]
        assert counters["shard_timeouts"] == 0
        assert counters["shard_errors"] == 0
        assert router.resilience()["open_circuits"] == []
        assert router.value(data.x_test, data.y_test).extra.get("degraded") is None
    finally:
        router.close()


def test_every_router_deadline_miss_is_counted_once(monkeypatch):
    from repro.datasets import gaussian_blobs

    d = gaussian_blobs(n_train=350, n_test=600, n_features=4, seed=3)
    router = ShardRouter(d.x_train, d.y_train, K, n_shards=2)
    try:
        merge, calls = router._merge, []

        def slow_first_merge(*args):
            calls.append(1)
            if len(calls) == 1:  # chunk 1 of 3 overruns the budget
                time.sleep(0.6)
            return merge(*args)

        monkeypatch.setattr(router, "_merge", slow_first_merge)
        with pytest.raises(DeadlineExceededError, match="between chunks"):
            router.value(d.x_test, d.y_test, deadline_s=0.5)
        assert len(calls) == 1
        assert router.stats()["counters"]["deadline_exceeded"] == 1
        with pytest.raises(DeadlineExceededError, match="admission"):
            router.value(d.x_test, d.y_test, deadline_s=0.0)
        assert router.stats()["counters"]["deadline_exceeded"] == 2
    finally:
        router.close()


def test_one_chunk_router_request_finished_late_raises_once(data, monkeypatch):
    # every leg returns in time; the coordinator's merge overruns, so
    # only the check after the last chunk can catch the late answer
    router = _router(data, n_shards=2)
    try:
        merge, calls = router._merge, []

        def slow_merge(*args):
            calls.append(1)
            time.sleep(0.6)
            return merge(*args)

        monkeypatch.setattr(router, "_merge", slow_merge)
        with pytest.raises(DeadlineExceededError, match="after the last chunk"):
            router.value(data.x_test, data.y_test, deadline_s=0.5)
        assert calls == [1]
        assert router.stats()["counters"]["deadline_exceeded"] == 1
    finally:
        router.close()


def test_failing_shard_errors_are_typed(data):
    router = _router(data, n_shards=2, on_shard_error="fail")
    try:
        with FaultInjector() as chaos:
            chaos.fail_shard(router, 0, times=1)
            with pytest.raises(ShardError):
                router.value(data.x_test, data.y_test)
        # fault expired: the very next request serves clean
        result = router.value(data.x_test, data.y_test)
        assert "degraded" not in result.extra
    finally:
        router.close()


def test_router_mc_certificate_survives_sharding(data, oracle):
    router = _router(data, n_shards=3, sharding="data")
    try:
        result = router.value(
            data.x_test, data.y_test, method="mc", epsilon=0.3, delta=0.05,
            seed=17,
        )
        cert = result.extra["certificate"]
        assert cert["bound"] == "bennett-theorem5"
        assert np.max(np.abs(result.values - oracle)) <= cert["epsilon"]
    finally:
        router.close()


# ---------------------------------------------------------------------------
# shutdown can never strand a caller
# ---------------------------------------------------------------------------


def test_crashed_workers_fail_backlog_typed(data, engine):
    service = ValuationService(engine, n_workers=2)
    with FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.15, times=2)
        running = [
            service.submit(ValuationRequest(data.x_test, data.y_test))
            for _ in range(2)
        ]
        time.sleep(0.04)
        queued = service.submit(ValuationRequest(data.x_test, data.y_test))
        chaos.crash_workers(service)
    t0 = time.perf_counter()
    service.shutdown(wait=True)  # must not hang on the dead pool
    assert time.perf_counter() - t0 < 5.0
    with pytest.raises(AdmissionRejectedError):
        queued.result(timeout=5)
    for job in running:
        job.result(timeout=5)  # picked up before the crash: served


def test_dropped_job_is_settled_by_shutdown(data, engine):
    service = ValuationService(engine, n_workers=1)
    with FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.15, times=1)
        service.submit(ValuationRequest(data.x_test, data.y_test))
        time.sleep(0.03)
        victim = service.submit(ValuationRequest(data.x_test, data.y_test))
        orphan = chaos.drop_job(service)
        assert orphan is victim
    service.shutdown(wait=True)
    with pytest.raises(AdmissionRejectedError):
        victim.result(timeout=5)
    assert victim.status == "failed"


def test_dropped_job_behind_survivors_keeps_shutdown_converging(data, engine):
    # the drop steals the queue head and re-enqueues everything behind
    # it; a task-accounting slip there deadlocks shutdown(wait=True)
    service = ValuationService(engine, n_workers=1)
    with FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.15, times=1)
        blocker = service.submit(ValuationRequest(data.x_test, data.y_test))
        time.sleep(0.03)  # let the worker dequeue the blocker
        victim = service.submit(ValuationRequest(data.x_test, data.y_test))
        survivor = service.submit(ValuationRequest(data.x_test, data.y_test))
        orphan = chaos.drop_job(service)
        assert orphan is victim
    start = time.perf_counter()
    service.shutdown(wait=True)
    assert time.perf_counter() - start < 30.0
    assert blocker.result(timeout=5).values is not None
    assert survivor.result(timeout=5).values is not None
    with pytest.raises(AdmissionRejectedError):
        victim.result(timeout=5)
    assert victim.status == "failed"


# ---------------------------------------------------------------------------
# observability: readiness flips, alerts fire, clocks may skew
# ---------------------------------------------------------------------------


def test_ready_returns_503_while_shedding_or_circuit_open(data, engine):
    import json
    import urllib.error
    import urllib.request

    with ValuationService(
        engine, n_workers=1, max_queue=1, admission="shed"
    ) as service, FaultInjector() as chaos:
        chaos.slow_engine(engine, 0.2)
        kept = []
        for _ in range(5):
            try:
                kept.append(
                    service.submit(ValuationRequest(data.x_test, data.y_test))
                )
            except AdmissionRejectedError:
                pass
        with ObservabilityServer(target=service) as srv:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(srv.url + "/ready")
            assert excinfo.value.code == 503
            body = json.loads(excinfo.value.read())
            assert "shedding" in body["reason"]
        for job in kept:
            job.result(timeout=60)


def test_service_rules_fire_on_sustained_shedding(data, engine):
    hub = TelemetryHub()
    engine.attach_telemetry(hub)
    manager = AlertManager(hub, rules=service_rules())
    with ValuationService(
        engine, n_workers=1, max_queue=1, admission="shed"
    ) as service, FaultInjector() as chaos:
        manager.evaluate()  # seed counter baselines
        chaos.slow_engine(engine, 0.15)
        kept = []
        for _ in range(6):
            try:
                kept.append(
                    service.submit(ValuationRequest(data.x_test, data.y_test))
                )
            except AdmissionRejectedError:
                pass
        fired = {n["name"]: n for n in manager.evaluate()}
        assert "service.shedding" in fired
        assert fired["service.shedding"]["severity"] == "critical"
        for job in kept:
            job.result(timeout=60)


def test_clock_skew_cannot_wedge_the_ladder_down(data, engine):
    hub = TelemetryHub()
    slo = SLOTracker(hub)
    ctl = DegradationController(slo=slo, queue_low=1, queue_high=6)
    with FaultInjector() as chaos:
        chaos.skew_clock(slo, 3600.0)
        # even with the SLO clock an hour ahead, an idle queue serves
        # exact: the recovery rule consults depth before burn
        rung, info = ctl.plan(0)
        assert rung.name == "exact"
        assert info["pressure"] == 0.0
    assert abs(slo.clock() - time.monotonic()) < 1.0


def test_fault_injector_restores_and_reports(engine, data):
    chaos = FaultInjector()
    chaos.slow_engine(engine, 0.0, times=1)
    labels = [f["label"] for f in chaos.active()]
    assert any("slow_engine" in label for label in labels)
    chaos.clear()
    assert chaos.active() == []
    assert "value" not in vars(engine)
    with pytest.raises(ParameterError):
        chaos.slow_shard(object(), 0, 1.0)
