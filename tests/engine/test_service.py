"""Tests for the queue-based valuation service."""

import time

import numpy as np
import pytest

from repro.core import exact_knn_shapley
from repro.engine import ValuationEngine, ValuationRequest, ValuationService
from repro.exceptions import DataValidationError, ParameterError


@pytest.fixture(scope="module")
def data():
    from repro.datasets import gaussian_blobs

    return gaussian_blobs(n_train=150, n_test=12, n_features=6, seed=95)


@pytest.fixture()
def engine(data):
    return ValuationEngine(data.x_train, data.y_train, 3)


def test_concurrent_requests_all_settle_correctly(data, engine):
    reference = exact_knn_shapley(data, 3)
    with ValuationService(engine, n_workers=3) as service:
        jobs = [
            service.submit_batch(data.x_test, data.y_test, tag=f"client-{i}")
            for i in range(8)
        ]
        for job in jobs:
            result = job.result(timeout=60)
            assert np.max(np.abs(result.values - reference.values)) < 1e-10
        stats = service.stats()
    assert stats["n_jobs"] == 8
    assert stats["by_status"] == {"done": 8}
    assert stats["total_compute_seconds"] > 0


def test_mixed_methods_in_one_queue(data, engine):
    with ValuationService(engine, n_workers=2) as service:
        exact = service.submit(
            ValuationRequest(data.x_test, data.y_test, method="exact")
        )
        trunc = service.submit(
            ValuationRequest(
                data.x_test, data.y_test, method="truncated", epsilon=0.2
            )
        )
        assert exact.result(timeout=60).method == "exact"
        assert trunc.result(timeout=60).method == "truncated"


def test_failed_job_reports_error_and_worker_survives(data, engine):
    with ValuationService(engine, n_workers=1) as service:
        bad = service.submit_batch(data.x_test[:, :2], data.y_test)
        with pytest.raises((ParameterError, DataValidationError)):
            bad.result(timeout=60)
        assert bad.status == "failed"
        # the worker that hit the failure keeps serving
        good = service.submit_batch(data.x_test, data.y_test)
        assert good.result(timeout=60).n == data.n_train
    assert service.stats()["by_status"]["failed"] == 1


def test_job_stats_and_lookup(data, engine):
    with ValuationService(engine, n_workers=1) as service:
        job = service.submit_batch(data.x_test, data.y_test, tag="abc")
        job.result(timeout=60)
        fetched = service.job(job.job_id)
        assert fetched is job
        s = job.stats()
        assert s["tag"] == "abc"
        assert s["status"] == "done"
        assert s["n_test"] == data.n_test
        assert s["queue_seconds"] >= 0
        assert s["compute_seconds"] > 0
        with pytest.raises(ParameterError):
            service.job(10**9)


def test_wait_all(data, engine):
    with ValuationService(engine, n_workers=2) as service:
        for _ in range(5):
            service.submit_batch(data.x_test, data.y_test)
        service.wait_all(timeout=120)
        assert service.stats()["by_status"] == {"done": 5}


def test_shutdown_without_wait_cancels_queued_jobs(data, engine, monkeypatch):
    real_value = engine.value

    def slow_value(*args, **kwargs):
        time.sleep(0.2)
        return real_value(*args, **kwargs)

    monkeypatch.setattr(engine, "value", slow_value)
    service = ValuationService(engine, n_workers=1)
    jobs = [service.submit_batch(data.x_test, data.y_test) for _ in range(4)]
    time.sleep(0.05)  # let the single worker pick up the first job
    service.shutdown(wait=False)
    assert all(job.done for job in jobs)
    statuses = {job.status for job in jobs}
    assert "cancelled" in statuses  # queued jobs were released, not served
    for job in jobs:
        if job.status == "cancelled":
            with pytest.raises(ParameterError):
                job.result(timeout=1)


def test_submit_after_shutdown_raises(data, engine):
    service = ValuationService(engine, n_workers=1)
    service.shutdown()
    with pytest.raises(ParameterError):
        service.submit_batch(data.x_test, data.y_test)
    service.shutdown()  # idempotent


def test_service_validates_workers(engine):
    with pytest.raises(ParameterError):
        ValuationService(engine, n_workers=0)


def test_shared_cache_across_jobs(data):
    engine = ValuationEngine(data.x_train, data.y_train, 3)
    with ValuationService(engine, n_workers=1) as service:
        service.submit_batch(data.x_test, data.y_test).result(timeout=60)
        second = service.submit_batch(data.x_test, data.y_test).result(timeout=60)
    assert second.extra["cache"]["hits"] >= 1


# ------------------------------------------------------------ mutation jobs
def test_mutation_jobs_ride_the_queue(data):
    from repro.engine import MutationRequest, MutationResult

    engine = ValuationEngine(data.x_train, data.y_train, 3)
    extra = data.x_train[:2] + 0.5
    # one worker: jobs apply strictly in submission order, so the
    # assertions below on sizes/indices are deterministic (with more
    # workers only atomicity is guaranteed — see the sibling
    # interleaving test)
    with ValuationService(engine, n_workers=1) as service:
        before = service.submit_batch(data.x_test, data.y_test).result(timeout=60)
        add = service.submit_add(extra, data.y_train[:2], tag="joiner")
        after = service.submit_batch(data.x_test, data.y_test)
        drop = service.submit_remove([0, 1], tag="leaver")
        added = add.result(timeout=60)
        assert isinstance(added, MutationResult)
        assert added.kind == "add"
        np.testing.assert_array_equal(added.indices, [150, 151])
        assert added.n_train == 152
        assert drop.result(timeout=60).n_train == 150
        assert add.stats()["method"] == "mutate-add"
        assert add.stats()["n_test"] == 0
    # the valuation after the add saw 152 training points
    assert after.result().values.shape[0] == 152
    assert before.values.shape[0] == 150
    assert engine.n_train == 150
    # request validation
    with pytest.raises(ParameterError):
        MutationRequest(kind="upsert")
    with pytest.raises(ParameterError):
        MutationRequest(kind="add")
    with pytest.raises(ParameterError):
        MutationRequest(kind="remove")


def test_mutations_interleaved_with_valuations_under_load(data):
    """Hammer one engine with valuations while a mutation lands; every
    result must reflect either the before- or after-state, never a
    torn one (the reader-writer lock keeps mutations atomic)."""
    from repro.core import exact_knn_shapley
    from repro.types import Dataset

    engine = ValuationEngine(data.x_train, data.y_train, 3, cache=False)
    with ValuationService(engine, n_workers=3) as service:
        jobs = [service.submit_batch(data.x_test, data.y_test) for _ in range(4)]
        mutation = service.submit_add(data.x_train[:1] + 1.0, data.y_train[:1])
        jobs += [service.submit_batch(data.x_test, data.y_test) for _ in range(4)]
        results = [j.result(timeout=120) for j in jobs]
        mutation.result(timeout=120)
    before = exact_knn_shapley(data, 3).values
    after_data = Dataset(
        np.vstack((data.x_train, data.x_train[:1] + 1.0)),
        np.concatenate((data.y_train, data.y_train[:1])),
        data.x_test,
        data.y_test,
    )
    after = exact_knn_shapley(after_data, 3).values
    for res in results:
        ref = before if res.values.shape[0] == 150 else after
        np.testing.assert_allclose(res.values, ref, rtol=0, atol=1e-12)


def test_failed_mutation_surfaces_via_result(data, engine):
    with ValuationService(engine, n_workers=1) as service:
        job = service.submit_remove([10_000])
        with pytest.raises(ParameterError):
            job.result(timeout=60)
        assert job.status == "failed"


def test_weighted_requests_ride_the_queue(data):
    from repro.core import exact_weighted_knn_shapley

    reference = exact_weighted_knn_shapley(data, 1, weights="inverse_distance")
    k1_engine = ValuationEngine(data.x_train, data.y_train, 1)
    with ValuationService(k1_engine, n_workers=2) as service:
        jobs = [
            service.submit(
                ValuationRequest(
                    data.x_test, data.y_test, method="weighted", tag=f"w{i}"
                )
            )
            for i in range(3)
        ]
        for job in jobs:
            result = job.result(timeout=120)
            assert result.method == "exact-weighted"
            np.testing.assert_allclose(
                result.values, reference.values, rtol=0, atol=1e-12
            )


@pytest.mark.parametrize(
    "field",
    [
        {"deadline_ms": float("nan")},
        {"priority": 2.5},
        {"priority": float("nan")},
        {"priority": True},
    ],
    ids=["deadline_ms=nan", "priority=2.5", "priority=nan", "priority=True"],
)
def test_request_fields_are_validated_on_construction(data, field):
    with pytest.raises(ParameterError):
        ValuationRequest(data.x_test, data.y_test, **field)


def test_request_accepts_numpy_integer_priority(data, engine):
    request = ValuationRequest(data.x_test, data.y_test, priority=np.int64(3))
    with ValuationService(engine, n_workers=1) as service:
        assert service.submit(request).result(timeout=60).method == "exact"
