"""Tests for request tracing across facade, engine, and service."""

import json
import time

import numpy as np
import pytest

import repro.engine.plan as plan_module
from repro.datasets import gaussian_blobs
from repro.engine import (
    ShardRouter,
    ValuationEngine,
    ValuationRequest,
    ValuationService,
)
from repro.exceptions import ParameterError
from repro.monitor import NOOP_TRACER, TelemetryHub, TraceContext, TraceLog, Tracer
from repro.monitor.dump import format_trace, group_traces, load_spans, main
from repro.valuation import KNNShapleyValuator


@pytest.fixture(scope="module")
def data():
    return gaussian_blobs(n_train=120, n_test=8, n_features=5, seed=11)


def _names(tree: dict) -> set:
    """Every span name in a summary tree."""
    out = {tree["name"]}
    for child in tree["children"]:
        out |= _names(child)
    return out


def _find(tree: dict, name: str) -> list:
    found = [tree] if tree["name"] == name else []
    for child in tree["children"]:
        found.extend(_find(child, name))
    return found


# ----------------------------------------------------------------------
# zero-cost default
def test_untraced_engine_produces_no_trace(data):
    engine = ValuationEngine(data.x_train, data.y_train, 3)
    assert engine.tracer is NOOP_TRACER
    result = engine.value(data.x_test, data.y_test, method="exact")
    assert "trace" not in result.extra


def test_null_tracer_is_inert():
    with NOOP_TRACER.span("anything", key=1) as span:
        assert not span
        span.set("more", 2)
        assert span.context() is None
        assert span.summary() is None
    assert NOOP_TRACER.current() is None
    with NOOP_TRACER.activate(TraceContext("t", "s")):
        pass


# ----------------------------------------------------------------------
# span trees per engine-served method
def test_exact_request_span_tree_is_complete(data):
    engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(
        Tracer(log=TraceLog())
    )
    result = engine.value(data.x_test, data.y_test, method="exact")
    tree = result.extra["trace"]
    assert tree["name"] == "engine.request"
    assert tree["attributes"]["method"] == "exact"
    assert tree["attributes"]["kernel"] == "exact"
    assert tree["attributes"]["cache"] == "miss"
    assert tree["seconds"] > 0
    names = _names(tree)
    assert {"engine.chunk", "backend.rank", "kernel.exact", "engine.merge"} <= names
    # every chunk rank-queried the backend and ran the kernel
    for chunk in _find(tree, "engine.chunk"):
        child_names = {c["name"] for c in chunk["children"]}
        assert {"backend.rank", "kernel.exact"} <= child_names
    # the repeat request serves from the rank cache: no backend span
    repeat = engine.value(data.x_test, data.y_test, method="exact")
    tree2 = repeat.extra["trace"]
    assert tree2["attributes"]["cache"] == "hit"
    assert "backend.rank" not in _names(tree2)
    assert tree2["trace_id"] != tree["trace_id"]  # separate root requests


def test_truncated_request_traces_backend_queries(data):
    engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(Tracer())
    result = engine.value(
        data.x_test, data.y_test, method="truncated", epsilon=0.2
    )
    tree = result.extra["trace"]
    assert tree["attributes"]["method"] == "truncated"
    assert "k_star" in tree["attributes"]
    names = _names(tree)
    assert {
        "backend.prepare",
        "engine.chunk",
        "backend.query",
        "kernel.truncated",
        "engine.merge",
    } <= names


def test_weighted_request_records_execution_path(data):
    engine = ValuationEngine(
        data.x_train, data.y_train, 3, task="classification"
    ).attach_tracer(Tracer())
    result = engine.value(data.x_test, data.y_test, method="weighted")
    tree = result.extra["trace"]
    assert tree["attributes"]["kernel"] == "weighted"
    assert tree["attributes"]["weighted_path"] in (
        "k1",
        "piecewise",
        "vectorized",
        "reference",
    )
    assert "kernel.weighted" in _names(tree)


@pytest.mark.parametrize("topology", ["engine", "router"])
def test_plan_resolution_is_timed_inside_the_request_span(data, monkeypatch, topology):
    # the Theorem 5 solve is part of the request, not of whoever
    # called it: a slow solve must show up in the request span
    def slow_budget(*args):
        time.sleep(0.05)
        return 3

    monkeypatch.setattr(plan_module, "bennett_permutations", slow_budget)
    tracer = Tracer()
    if topology == "engine":
        engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(tracer)
        result = engine.value(data.x_test, data.y_test, method="mc", seed=0)
    else:
        with ShardRouter(
            data.x_train, data.y_train, 3, n_shards=2, tracer=tracer
        ) as router:
            result = router.value(data.x_test, data.y_test, method="mc", seed=0)
    tree = result.extra["trace"]
    assert tree["name"] == f"{topology}.request"
    assert tree["seconds"] >= 0.05
    assert tree["attributes"]["kernel"] == "mcserve"
    assert tree["attributes"]["n_permutations"] == 3


def test_request_rejected_at_planning_closes_its_span(data):
    log = TraceLog()
    engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(
        Tracer(log=log)
    )
    with pytest.raises(ParameterError):
        engine.value(data.x_test, data.y_test, method="no-such-method")
    (record,) = log.records()
    assert record["name"] == "engine.request"
    assert record["attributes"]["error"] == "ParameterError"
    assert "kernel" not in record["attributes"]


def test_mutations_are_traced(data):
    log = TraceLog()
    engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(
        Tracer(log=log)
    )
    engine.add_points(data.x_test[:2], data.y_test[:2])
    engine.remove_points([0])
    kinds = [
        r["attributes"]["kind"]
        for r in log.records()
        if r["name"] == "engine.mutate"
    ]
    assert kinds == ["add", "remove"]


# ----------------------------------------------------------------------
# facade spans
def test_facade_span_parents_the_engine_request(data):
    log = TraceLog()
    valuator = KNNShapleyValuator(data, k=3).attach_tracer(Tracer(log=log))
    result = valuator.exact()
    tree = result.extra["trace"]
    facades = [r for r in log.records() if r["name"] == "facade.exact"]
    assert len(facades) == 1
    assert facades[0]["trace_id"] == tree["trace_id"]
    assert tree["parent_id"] == facades[0]["span_id"]
    assert facades[0]["parent_id"] is None  # the facade is the trace root
    assert facades[0]["attributes"]["k"] == 3


def test_facade_traces_every_engine_served_method(data):
    log = TraceLog()
    valuator = KNNShapleyValuator(data, k=2).attach_tracer(Tracer(log=log))
    valuator.exact()
    valuator.truncated(epsilon=0.2)
    valuator.weighted()
    valuator.lsh(seed=0)
    roots = {r["name"] for r in log.records() if r["parent_id"] is None}
    assert {
        "facade.exact",
        "facade.truncated",
        "facade.weighted",
        "facade.lsh",
    } <= roots


# ----------------------------------------------------------------------
# trace propagation across the service's worker threads
def test_service_jobs_join_the_submitters_trace(data):
    log = TraceLog()
    tracer = Tracer(log=log)
    engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(tracer)
    with ValuationService(engine, n_workers=2) as service:
        with tracer.span("client.batch") as client:
            jobs = [
                service.submit_batch(data.x_test, data.y_test, tag=f"c{i}")
                for i in range(4)
            ]
        for job in jobs:
            job.result(timeout=60)
        trace_id = client.trace_id
    records = log.records(trace_id=trace_id)
    by_name: dict = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(r)
    # every job executed on a worker thread but joined the client trace
    assert len(by_name["service.job"]) == 4
    assert len(by_name["engine.request"]) == 4
    for job_span in by_name["service.job"]:
        assert job_span["parent_id"] == client.context().span_id
        assert job_span["attributes"]["status"] == "done"
        assert job_span["attributes"]["queue_seconds"] >= 0.0
    # requests submitted outside any span start traces of their own
    with ValuationService(engine, n_workers=1) as service:
        service.submit_batch(data.x_test, data.y_test).result(timeout=60)
    fresh = [
        r
        for r in log.records()
        if r["name"] == "service.job" and r["trace_id"] != trace_id
    ]
    assert len(fresh) == 1


def test_explicit_trace_context_on_request(data):
    log = TraceLog()
    tracer = Tracer(log=log)
    engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(tracer)
    ctx = TraceContext("feedbeeffeedbeef", "77")
    with ValuationService(engine, n_workers=1) as service:
        request = ValuationRequest(
            data.x_test, data.y_test, method="exact", trace=ctx
        )
        service.submit(request).result(timeout=60)
    jobs = log.records(trace_id="feedbeeffeedbeef")
    names = {r["name"] for r in jobs}
    assert "service.job" in names and "engine.request" in names


# ----------------------------------------------------------------------
# the trace log and its CLI
def test_tracelog_ring_bound_and_dropped_counter():
    log = TraceLog(capacity=4)
    for i in range(7):
        log.append({"trace_id": "t", "span_id": str(i), "name": "s", "seconds": 0.0})
    assert len(log) == 4
    assert log.dropped == 3
    assert [r["span_id"] for r in log.records()] == ["3", "4", "5", "6"]
    with pytest.raises(ValueError):
        TraceLog(capacity=0)


def test_tracelog_jsonl_and_dump_cli(tmp_path, capsys, data):
    path = str(tmp_path / "trace.jsonl")
    with TraceLog(path=path) as log:
        engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(
            Tracer(log=log)
        )
        engine.value(data.x_test, data.y_test, method="exact")
        engine.value(data.x_test, data.y_test, method="truncated", epsilon=0.2)
    spans = load_spans(path)
    assert len(spans) == len(log.records())
    for line in open(path):
        json.loads(line)  # every line is standalone JSON
    traces = group_traces(spans)
    assert len(traces) == 2
    trace_id = next(iter(traces))
    rendered = format_trace(trace_id, traces[trace_id])
    assert "engine.request" in rendered and "engine.chunk" in rendered

    assert main([path]) == 0
    out = capsys.readouterr().out
    assert "trace " in out and "engine.request" in out
    assert main([path, "--summary"]) == 0
    assert "engine.merge" in capsys.readouterr().out
    assert main([path, "--trace", trace_id, "--last", "1"]) == 0
    capsys.readouterr()
    assert main([path, "--trace", "no-such-trace"]) == 1


def test_span_durations_stream_into_a_hub(data):
    hub = TelemetryHub()
    engine = ValuationEngine(data.x_train, data.y_train, 3).attach_tracer(
        Tracer(hub=hub)
    )
    engine.value(data.x_test, data.y_test, method="exact")
    assert hub.n_recorded("span.engine.request.seconds") == 1
    assert hub.n_recorded("span.engine.merge.seconds") == 1
    assert hub.last("span.engine.request.seconds") > 0


def test_span_failure_is_attributed():
    log = TraceLog()
    tracer = Tracer(log=log)
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("nope")
    (record,) = log.records()
    assert record["attributes"]["error"] == "RuntimeError"
    assert record["seconds"] >= 0.0


def test_numpy_attributes_serialize(tmp_path):
    path = str(tmp_path / "np.jsonl")
    with TraceLog(path=path) as log:
        tracer = Tracer(log=log)
        with tracer.span("op", n=np.int64(3), v=np.float64(0.5), arr=np.arange(2)):
            pass
    (record,) = load_spans(path)
    assert record["attributes"]["n"] == 3
    assert record["attributes"]["v"] == 0.5


def test_dump_since_cutoff_parsing():
    from repro.monitor.dump import since_cutoff

    assert since_cutoff("1754650000", newest_ts=0.0) == 1754650000.0
    assert since_cutoff("30s", newest_ts=1000.0) == 970.0
    assert since_cutoff("5m", newest_ts=1000.0) == 700.0
    assert since_cutoff("2h", newest_ts=10000.0) == 2800.0
    assert since_cutoff(" 2H ", newest_ts=10000.0) == 2800.0
    with pytest.raises(ValueError):
        since_cutoff("yesterday", newest_ts=0.0)
    with pytest.raises(ValueError):
        since_cutoff("5 parsecs", newest_ts=0.0)


def test_dump_cli_trace_id_alias_and_since_filter(tmp_path, capsys):
    path = str(tmp_path / "trace.jsonl")
    spans = [
        {
            "trace_id": f"trace{i}",
            "span_id": f"s{i}",
            "parent_id": None,
            "name": f"engine.request.{i}",
            "seconds": 0.01,
            "ts": 1000.0 + 100.0 * i,
        }
        for i in range(3)
    ]
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")

    # --trace-id is an alias of --trace
    assert main([path, "--trace-id", "trace1"]) == 0
    out = capsys.readouterr().out
    assert "trace trace1" in out and "trace0" not in out

    # --since with an age relative to the newest span (ts 1200)
    assert main([path, "--since", "150s"]) == 0
    out = capsys.readouterr().out
    assert "trace2" in out and "trace1" in out and "trace0" not in out

    # --since with an absolute epoch keeps only the newest trace
    assert main([path, "--since", "1150"]) == 0
    out = capsys.readouterr().out
    assert "trace2" in out and "trace1" not in out

    # a cutoff past every span prints the empty-log message
    assert main([path, "--since", "99999"]) == 0
    assert "(no spans)" in capsys.readouterr().out

    # filters compose: --since narrows before --summary aggregates
    assert main([path, "--since", "150s", "--summary"]) == 0
    out = capsys.readouterr().out
    assert "engine.request.2" in out and "engine.request.0" not in out

    # a malformed --since is a usage error, not a crash
    assert main([path, "--since", "soon"]) == 2
    assert "--since" in capsys.readouterr().err
