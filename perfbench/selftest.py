"""Tiny-size self-tests of the benchmark itself.

Run with ``python3 perfbench/run.py --selftest``; each workload runs for
about a second on a few hundred training points, traced and untraced.
"""

from __future__ import annotations

import json
import math
import traceback

import numpy as np

import layers
import run
import steady
import workloads


def tiny_spec() -> dict:
    spec = run.load_spec()
    spec.update(
        warmup_seconds=0.2, setup_repeats=2, mutation_probe_pairs=3,
        replay_batches=1, probe_batches=1, trace_slice_seconds=0.25,
    )
    wl = spec["workloads"]
    wl["market-exact"].update(n_train=300, d=8, q=4, rate_rps=40.0, mutation_every=5)
    wl["sharded-audit"].update(n_train=400, d=8, q=4)
    wl["overload-burst"].update(n_train=500, d=4, q=2, burst_period_ms=300.0)
    return spec


def test_self_time() -> None:
    def rec(span_id, parent, ts, seconds):
        return {
            "trace_id": "t", "span_id": span_id, "parent_id": parent, "name": span_id,
            "ts": ts, "seconds": seconds, "attributes": {},
        }

    # children cover [1, 5] and [7, 8] of the parent's [0, 10]
    spans = layers.SpanSet([
        rec("p", None, 0.0, 10.0), rec("a", "p", 1.0, 2.0),
        rec("b", "p", 2.0, 3.0), rec("c", "p", 7.0, 1.0),
    ])
    assert math.isclose(spans.self_ms(spans.by_id["p"]), 5e3), spans.self_ms(spans.by_id["p"])
    assert spans.self_ms(spans.by_id["a"]) == 2e3


def test_spread_matches_statistics_quantiles() -> None:
    med, q1, q3, share = steady.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5) and math.isclose(share, 1.0)


def test_metric_tables_match_benchmark_json() -> None:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        assert listed == [tuple(row) for row in table], key
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.load_spec()["workloads"])


def test_same_seed_same_inputs() -> None:
    spec = tiny_spec()
    a, b, c = (workloads.MarketExact(spec, s) for s in (4, 4, 5))
    assert np.array_equal(a.x_train, b.x_train) and np.array_equal(a.batch(7)[0], b.batch(7)[0])
    assert [op.due for op in a.schedule(1.0)] == [op.due for op in b.schedule(1.0)]
    assert not np.array_equal(a.x_train, c.x_train)


def test_checks_catch_a_wrong_answer() -> None:
    wl = workloads.ShardedAudit(tiny_spec(), 3)
    stack = wl.build()
    try:
        ops = []
        for i in range(2):
            op = wl.op_for(i)
            op.method, op.params, op.measured, op.status = "exact", {}, True, "ok"
            op.result = stack.router.value(*wl.batch(op.batch))
            ops.append(op)
    finally:
        stack.close()
    ops[1].result.values[0] += 1e-9
    report = wl.check(workloads.Traffic(ops, (0.0, 1.0), [], 2))
    assert report.checked == 2 and len(report.wrong) == 1, report.wrong


def test_tiny_runs() -> None:
    spec = tiny_spec()
    for name in spec["workloads"]:
        for trace, table in ((False, run.END_TO_END), (True, layers.PER_LAYER)):
            result, record = run.run_workload(spec, name, 5, 1.5, trace)
            assert result["correct"], (name, trace, record)
            assert result["attempted"] >= 1 and result["failed"] == 0
            assert list(result["metrics"]) == [m for m, _, _ in table]
            assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
            assert record["checked"] > 0, (name, trace)


TESTS = [
    test_self_time,
    test_spread_matches_statistics_quantiles,
    test_metric_tables_match_benchmark_json,
    test_same_seed_same_inputs,
    test_checks_catch_a_wrong_answer,
    test_tiny_runs,
]


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            test()
            print(f"ok    {test.__name__}")
        except Exception:  # report every failing test, not just the first
            failed += 1
            print(f"FAIL  {test.__name__}\n{traceback.format_exc()}")
    print(f"{len(TESTS) - failed} passed, {failed} failed")
    return 1 if failed else 0
