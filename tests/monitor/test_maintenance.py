"""Tests for the maintenance scheduler — the detect-plan-act loop."""

import time
import warnings

import numpy as np
import pytest

from repro.engine import LSHNeighborBackend, ValuationEngine, ValuationService
from repro.exceptions import ParameterError
from repro.knn.search import top_k
from repro.lsh import ContrastEstimate, LSHParameters
from repro.monitor import (
    MaintenanceScheduler,
    TombstoneDetector,
    attach_monitoring,
)


def _full_recall_params(k: int = 3) -> LSHParameters:
    """One bucket per table: retrieval is exhaustive, brute-equivalent."""
    return LSHParameters(
        width=1e9,
        n_bits=1,
        n_tables=2,
        g=0.5,
        contrast=ContrastEstimate(d_mean=1.0, d_k=0.5, contrast=2.0, k=k),
    )


def _recall(backend, queries, k) -> float:
    """Brute-force recall proxy of ``backend`` on held-out queries."""
    data = backend.data
    k_eff = min(k, data.shape[0])
    true_idx, _ = top_k(queries, data, k_eff)
    got_idx, _ = backend.spot_query(queries, k_eff)
    hits = sum(
        int(np.isin(true_idx[j], got_idx[j]).sum())
        for j in range(true_idx.shape[0])
    )
    return hits / float(true_idx.size)


def test_requires_engine_or_backend():
    with pytest.raises(ParameterError):
        MaintenanceScheduler()
    with pytest.raises(ParameterError):
        MaintenanceScheduler(backend=LSHNeighborBackend(), interval=0.0)


def test_scheduler_adopts_a_pre_attached_hub():
    """A hub the engine already publishes into must be the one the
    detectors read — a private hub would leave monitoring silently
    inert (empty reservoirs, no drift ever detected)."""
    from repro.monitor import TelemetryHub

    rng = np.random.default_rng(40)
    eng = ValuationEngine(
        rng.standard_normal((200, 4)),
        rng.integers(0, 2, 200),
        3,
        backend="lsh",
        backend_options={"seed": 0},
    )
    mine = TelemetryHub()
    eng.attach_telemetry(mine)
    sched = MaintenanceScheduler(engine=eng, interval=100.0)
    assert sched.hub is mine
    eng.value(
        rng.standard_normal((8, 4)), rng.integers(0, 2, 8), method="lsh"
    )
    assert sched.hub.reservoir("queries").shape[0] == 8
    # an explicit hub wins and is re-attached through the engine
    other = TelemetryHub()
    sched2 = MaintenanceScheduler(engine=eng, hub=other, interval=100.0)
    assert sched2.hub is other
    assert eng.telemetry is other


def test_stop_rearms_the_warned_refit():
    """A stopped scheduler must not keep swallowing drift deferrals —
    nothing would ever drain them."""
    rng = np.random.default_rng(41)
    x = rng.standard_normal((200, 4))
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(x)
    backend.prepare(None, 3)
    sched = MaintenanceScheduler(backend=backend, interval=30.0)
    sched.start()
    sched.stop()
    assert backend.on_drift is None
    with pytest.warns(RuntimeWarning, match="drifted more than"):
        backend.partial_fit(rng.standard_normal((110, 4)))
    # restarting re-arms the silent path
    sched.start()
    try:
        assert backend.on_drift is not None
    finally:
        sched.stop()


def test_scheduler_attaches_one_hub_end_to_end():
    rng = np.random.default_rng(0)
    eng = ValuationEngine(
        rng.standard_normal((100, 4)), rng.integers(0, 2, 100), 3
    )
    sched = MaintenanceScheduler(engine=eng, interval=100.0)
    assert eng.telemetry is sched.hub
    assert eng.backend.telemetry is sched.hub
    # exact backend -> empty detector battery, cycles are no-ops
    assert sched.detectors == []
    assert sched.run_once() == []


def test_scheduler_silences_warned_refit_and_retunes():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((200, 6))
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(x)
    backend.prepare(None, 5)
    sched = MaintenanceScheduler(backend=backend, interval=100.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # any RuntimeWarning fails the test
        backend.partial_fit(rng.standard_normal((110, 6)))  # +55% drift
    counters = backend.stats()["counters"]
    assert counters["deferred_refits"] >= 1
    assert counters["warned_refits"] == 0
    assert backend.needs_refit
    events = sched.run_once()
    assert len(events) == 1
    assert events[0].action == "retune"
    assert events[0].ok
    assert not backend.needs_refit  # re-tuned for the grown size
    assert backend.tuned_n == 310
    assert backend.stats()["counters"]["retunes"] == 1


def test_without_scheduler_the_warning_still_fires():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((200, 6))
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(x)
    backend.prepare(None, 5)
    with pytest.warns(RuntimeWarning, match="drifted more than"):
        backend.partial_fit(rng.standard_normal((110, 6)))
    assert backend.stats()["counters"]["warned_refits"] == 1


def test_plan_collapses_to_strongest_action():
    rng = np.random.default_rng(3)
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(
        rng.standard_normal((100, 4))
    )
    sched = MaintenanceScheduler(backend=backend, interval=100.0, detectors=[])
    assert sched.plan([]) is None
    compact = _signal("tombstone-pressure", "compact")
    retune = _signal("contrast-drift", "retune")
    refit = _signal("size-drift", "refit")
    assert sched.plan([compact]) == "compact"
    assert sched.plan([compact, retune]) == "retune"
    assert sched.plan([refit]) == "retune"  # a refit re-tunes by design


def _signal(kind, action):
    from repro.monitor import DriftSignal

    return DriftSignal(
        kind=kind,
        severity="warn",
        value=1.0,
        threshold=0.5,
        action=action,
        detector="test",
    )


def test_injected_shift_triggers_background_retune_to_fresh_recall():
    """The acceptance scenario: synthetic cluster migration at constant n.

    The whole training set migrates to an 6x wider distribution through
    in-band add/remove churn; the live index's tuning goes stale
    (recall collapses), the detectors flag it, one background cycle
    re-tunes with a contrast estimate from the telemetry reservoir —
    and the recovered recall matches a freshly tuned index, with zero
    warnings along the way.
    """
    n, d, k = 800, 8, 3
    shift = 6.0
    rng = np.random.default_rng(4)
    x = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n)
    eng = ValuationEngine(x, y, k, backend="lsh", backend_options={"seed": 0})
    sched = MaintenanceScheduler(engine=eng, interval=1000.0)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q0 = rng.standard_normal((32, d))
        eng.value(q0, rng.integers(0, 2, 32), method="lsh")  # tunes + builds
        assert sched.run_once() == []  # stable: nothing to do

        batch = n // 5
        for _ in range(5):  # migrate 20% at a time, n stays constant
            x_new = rng.standard_normal((batch, d)) * shift
            eng.add_points(x_new, rng.integers(0, 2, batch))
            eng.remove_points(np.arange(batch))  # oldest sellers leave
            q_new = rng.standard_normal((16, d)) * shift
            eng.value(q_new, rng.integers(0, 2, 16), method="lsh")
        assert eng.n_train == n  # constant-n migration

        backend = eng.backend
        k_built = backend.built_k
        eval_q = rng.standard_normal((64, d)) * shift
        recall_degraded = _recall(backend, eval_q, k_built)

        events = sched.run_once()  # the background maintenance cycle
        assert len(events) == 1
        assert events[0].action == "retune"
        assert events[0].ok
        assert events[0].signals  # drift signals drove it
        kinds = {s.kind for s in events[0].signals}
        assert kinds & {"contrast-drift", "candidate-drift", "recall-degraded"}
        recall_after = _recall(backend, eval_q, k_built)

    # control: a freshly tuned index given the same information (same
    # data, same query sample, same seed)
    sample = sched.hub.reservoir("queries")
    fresh = LSHNeighborBackend(seed=0).fit(backend.data)
    fresh.prepare(sample, k_built)
    recall_fresh = _recall(fresh, eval_q, k_built)

    assert recall_after >= recall_fresh - 0.02  # the acceptance bar
    assert recall_fresh > 0.8  # the control is actually healthy
    assert recall_after > recall_degraded + 0.2  # and recovery is real
    assert backend.stats()["counters"]["retunes"] >= 1
    assert backend.tombstone_ratio == 0.0  # the rebuild compacted
    # the audit trail is queryable
    assert sched.stats()["counters"]["action_retune"] >= 1


def test_maintenance_preserves_serving_bit_for_bit():
    """Compaction under concurrent serving: results never change.

    On unchanged data (an add immediately undone by the matching
    remove), valuations before, during, and after a background
    compaction return bit-identical vectors — maintenance is invisible
    to clients.
    """
    n, d, k = 200, 5, 3
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, d))
    y = rng.integers(0, 2, n)
    q = rng.standard_normal((16, d))
    yq = rng.integers(0, 2, 16)
    backend = LSHNeighborBackend(params=_full_recall_params(k), seed=0)
    eng = ValuationEngine(x, y, k, backend=backend)
    sched = MaintenanceScheduler(
        engine=eng,
        interval=1000.0,
        detectors=[TombstoneDetector(backend, max_ratio=0.05)],
    )
    base = eng.value(q, yq, method="lsh").values.copy()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # churn that round-trips the data: 30 sellers join then leave
        z = rng.standard_normal((30, d))
        idx = eng.add_points(z, rng.integers(0, 2, 30))
        eng.remove_points(idx)
        assert backend.tombstone_ratio > 0.05  # compaction is due

        mid = eng.value(q, yq, method="lsh").values
        assert np.array_equal(mid, base)

        with ValuationService(eng, n_workers=2) as service:
            jobs = [service.submit_batch(q, yq, method="lsh") for _ in range(4)]
            events = sched.run_once()  # compacts while workers serve
            jobs += [service.submit_batch(q, yq, method="lsh") for _ in range(4)]
            values = [job.result(timeout=60).values for job in jobs]
        assert [e.action for e in events] == ["compact"]
        assert events[0].ok and events[0].details["scrubbed"] == 30
        for v in values:
            assert np.array_equal(v, base)

    assert backend.tombstone_ratio == 0.0
    after = eng.value(q, yq, method="lsh").values
    assert np.array_equal(after, base)
    assert backend.stats()["counters"]["compactions"] == 1


def test_background_thread_lifecycle_and_poke():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((150, 4))
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(x)
    backend.prepare(None, 3)
    sched = MaintenanceScheduler(backend=backend, interval=30.0)
    with sched:
        assert sched.running
        # a drifted mutation wakes the loop immediately (no interval wait)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            backend.partial_fit(rng.standard_normal((80, 4)))
        # the refit clears needs_refit before run_once appends its event
        # to the log, so wait for both
        def retuned():
            return any(e.action == "retune" and e.ok for e in sched.log)

        deadline = time.time() + 10.0
        while (backend.needs_refit or not retuned()) and time.time() < deadline:
            time.sleep(0.02)
        assert not backend.needs_refit
        assert any(e.action == "retune" and e.ok for e in sched.log)
    assert not sched.running
    sched.start()
    sched.poke()
    sched.stop()
    assert not sched.running


def test_attach_monitoring_one_liner():
    rng = np.random.default_rng(7)
    eng = ValuationEngine(
        rng.standard_normal((120, 4)),
        rng.integers(0, 2, 120),
        3,
        backend="lsh",
        backend_options={"seed": 0},
    )
    sched = attach_monitoring(eng, interval=60.0)
    try:
        assert sched.running
        assert eng.telemetry is sched.hub
        assert eng.backend.on_drift is not None
        assert len(sched.detectors) == 5
    finally:
        sched.stop()


def test_failed_action_lands_in_log_not_in_face():
    rng = np.random.default_rng(8)
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(
        rng.standard_normal((100, 4))
    )
    backend.prepare(None, 3)
    sched = MaintenanceScheduler(backend=backend, interval=100.0, detectors=[])
    original = backend.retune
    backend.retune = lambda **kw: (_ for _ in ()).throw(RuntimeError("boom"))
    try:
        sched._pending.add("refit")
        events = sched.run_once()
    finally:
        backend.retune = original
    assert len(events) == 1
    assert not events[0].ok
    assert "boom" in events[0].error
    assert sched.hub.counter("maintenance.errors") == 1
    assert sched.stats()["counters"]["failures"] == 1


def test_retune_debounce_defers_but_never_drops():
    """With a minimum re-tune spacing, back-to-back drifted mutations
    execute one re-tune; the second intent stays pending and runs once
    the spacing elapses — deferral, not loss."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal((200, 6))
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(x)
    backend.prepare(None, 5)
    sched = MaintenanceScheduler(
        backend=backend, interval=100.0, min_retune_interval=30.0
    )
    backend.partial_fit(rng.standard_normal((110, 6)))  # drifted: defers
    events = sched.run_once()
    assert len(events) == 1 and events[0].action == "retune"
    assert backend.stats()["counters"]["retunes"] == 1

    backend.partial_fit(rng.standard_normal((160, 6)))  # drifts again
    assert sched.run_once() == []  # debounced: inside the spacing window
    stats = sched.stats()
    assert stats["counters"]["debounced_retunes"] == 1
    assert stats["gauges"]["min_retune_interval"] == 30.0
    assert backend.stats()["counters"]["retunes"] == 1
    assert backend.needs_refit  # the drift is still there, still pending

    # once the spacing has elapsed the deferred intent executes
    sched._last_retune_monotonic -= 31.0
    events = sched.run_once()
    assert len(events) == 1 and events[0].action == "retune"
    assert backend.stats()["counters"]["retunes"] == 2
    assert not backend.needs_refit


def test_debounce_never_blocks_compactions():
    rng = np.random.default_rng(8)
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(
        rng.standard_normal((120, 4))
    )
    backend.prepare(None, 5)
    sched = MaintenanceScheduler(
        backend=backend,
        interval=100.0,
        min_retune_interval=1e6,
        detectors=[TombstoneDetector(backend, max_ratio=0.05)],
    )
    sched._last_retune_monotonic = __import__("time").monotonic()
    backend.forget(np.arange(10))  # tombstones past the detector ratio
    events = sched.run_once()
    assert len(events) == 1 and events[0].action == "compact"
    assert sched.stats()["counters"]["debounced_retunes"] == 0


def test_scheduler_validates_debounce_and_hysteresis():
    backend = LSHNeighborBackend()
    with pytest.raises(ParameterError):
        MaintenanceScheduler(backend=backend, min_retune_interval=-1.0)
    with pytest.raises(ParameterError):
        MaintenanceScheduler(backend=backend, contrast_hysteresis=0.5)


def test_scheduler_forwards_hysteresis_to_default_battery():
    from repro.monitor import ContrastDriftDetector

    rng = np.random.default_rng(9)
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(
        rng.standard_normal((100, 4))
    )
    sched = MaintenanceScheduler(
        backend=backend, interval=100.0, contrast_hysteresis=1.5
    )
    contrast = [
        d for d in sched.detectors if isinstance(d, ContrastDriftDetector)
    ]
    assert len(contrast) == 1 and contrast[0].hysteresis == 1.5
    assert sched.stats()["gauges"]["contrast_hysteresis"] == 1.5


def test_debounced_retune_falls_back_to_requested_compact():
    """A deferred re-tune must not also swallow a same-cycle compact:
    compaction is result-preserving and exempt from the debounce."""
    rng = np.random.default_rng(10)
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(
        rng.standard_normal((200, 4))
    )
    backend.prepare(None, 5)
    sched = MaintenanceScheduler(
        backend=backend,
        interval=100.0,
        min_retune_interval=1e6,
        detectors=[TombstoneDetector(backend, max_ratio=0.05)],
    )
    sched._last_retune_monotonic = time.monotonic()  # recent re-tune
    backend.partial_fit(rng.standard_normal((110, 4)))  # drift: wants retune
    backend.forget(np.arange(30))  # tombstones: wants compact
    events = sched.run_once()
    assert [e.action for e in events] == ["compact"]
    assert sched.stats()["counters"]["debounced_retunes"] == 1
    assert backend.stats()["counters"]["retunes"] == 0
    assert backend.tombstone_ratio == 0.0  # the compact really ran


# ----------------------------------------------------------------------
# the ops plane hookups (PR 9): alerts hear maintenance, SLO burn steers it
def test_maintenance_signals_and_actions_flow_into_alerts():
    from repro.monitor import AlertManager, TelemetryHub

    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 6))
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(x)
    backend.prepare(None, 5)
    hub = TelemetryHub()
    alerts = AlertManager(hub)
    sched = MaintenanceScheduler(
        backend=backend, hub=hub, interval=100.0, alerts=alerts
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        backend.partial_fit(rng.standard_normal((110, 6)))  # +55% drift

    events = sched.run_once()
    assert events and events[0].action == "retune" and events[0].ok

    history = alerts.snapshot(last=64)["history"]
    names = [h["name"] for h in history]
    # the drift signals arrived as drift.* events, the executed action
    # as a maintenance.* event — all through the same notification path
    assert any(n.startswith("drift.") for n in names)
    assert "maintenance.retune" in names
    entry = next(h for h in history if h["name"] == "maintenance.retune")
    assert entry["severity"] == "info" and "ok" in entry["message"]
    assert float(entry["labels"]["seconds"]) >= 0.0
    assert sched.stats()["gauges"]["alerts_attached"] == 1


def test_unit_burn_ranks_the_burning_shard_first():
    from types import SimpleNamespace

    from repro.monitor import SLOTracker, TelemetryHub

    hub = TelemetryHub()
    clock = [0.0]
    slo = SLOTracker(hub, clock=lambda: clock[0])
    slo.add("s0", "shard0.engine.request_seconds p99 < 50ms")
    slo.add("s1", "shard1.engine.request_seconds p99 < 50ms")
    for _ in range(10):
        clock[0] += 60.0
        for _ in range(50):
            hub.record("shard0.engine.request_seconds", 0.001)  # healthy
            hub.record("shard1.engine.request_seconds", 0.5)  # burning
        slo.tick()

    rng = np.random.default_rng(5)
    backend = LSHNeighborBackend(seed=0, tune_with_queries=False).fit(
        rng.standard_normal((100, 4))
    )
    sched = MaintenanceScheduler(
        backend=backend, hub=hub, interval=100.0, detectors=[], slo=slo
    )
    burn0 = sched._unit_burn(SimpleNamespace(label="shard0"))
    burn1 = sched._unit_burn(SimpleNamespace(label="shard1"))
    assert burn1 > burn0  # the burning shard outranks the healthy one
    # the unlabeled single-engine unit sees the whole tracker
    assert sched._unit_burn(SimpleNamespace(label=None)) == burn1
    assert sched.stats()["gauges"]["slo_attached"] == 1

    # a broken tracker is counted, never raised
    class Broken:
        def worst_burn(self, prefix=""):
            raise RuntimeError("tracker down")

    sched.slo = Broken()
    assert sched._unit_burn(SimpleNamespace(label="shard0")) == 0.0
    assert hub.counter("maintenance.slo_errors") == 1
