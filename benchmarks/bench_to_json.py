"""Emit (or check) the machine-readable engine benchmark, BENCH_engine.json.

The CI benchmark-regression gate runs this twice:

    python benchmarks/bench_to_json.py --out BENCH_engine.json
    python benchmarks/bench_to_json.py --check benchmarks/BENCH_engine.json \\
        BENCH_engine.json --tolerance 0.30

The first command measures a small fixed workload and writes a JSON
report; the second compares a freshly measured candidate against the
committed baseline and exits non-zero when any gated metric regressed
by more than the tolerance.

Every gated metric is a *speed ratio* (engine vs single-shot, cached
vs cold, incremental repair vs full recompute), not an absolute time:
ratios compare two measurements taken on the same machine in the same
process, so they transfer across hardware generations and CI runner
classes in a way wall-clock seconds never could.  Absolute timings are
recorded under ``"info"`` for humans but never gated.  The gate is
one-sided — faster than baseline always passes.

Run single-core (``OMP_NUM_THREADS=1`` etc., as the CI job does) so
BLAS thread fan-out does not skew the single-shot side of the ratios.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

#: Schema version for the JSON artifact.
SCHEMA = 1

#: The small fixed workload the gate measures.  Big enough that the
#: chunked/incremental machinery engages, small enough for a CI minute.
WORKLOAD = {
    "n_train": 6000,
    "n_test": 64,
    "n_features": 64,
    "k": 5,
    "repeat": 3,
    # the three overhead-margin floors (monitor / trace / ops plane)
    # gate a <=5% effect against machine-state drift several times its
    # size; best-of-N is the noise control, so those rows get a much
    # deeper repeat than the throughput ratios
    "overhead_repeat": 15,
    "seed": 0,
    # weighted-method workload (PR 3: the engine's kernel registry).
    # The single-shot Theorem 7 reference is O(N^K)-expensive, so the
    # engine-vs-single-shot ratio runs at a small N; the cached ratio
    # exercises the serving-scale N through the engine only.
    "weighted_n_single": 300,
    "weighted_n_cached": 20000,
    "weighted_n_test": 4,
    "weighted_k": 1,
    # monitoring workload (PR 4): steady-state serving overhead of an
    # attached telemetry hub + idle scheduler, and recall recovery of a
    # drift-triggered background re-tune vs a freshly tuned control
    "monitor_n_train": 4000,
    "monitor_requests": 6,
    # K>=2 weighted fast paths (PR 5).  Per-path workload params are
    # recorded here so a regression is attributable to its path: the
    # piecewise ratio crosses sizes by design (the acceptance bar is
    # "piecewise at n_piecewise beats the reference at n_reference"),
    # the vectorized ratio compares equal N, K on the named
    # distance-based weights.
    "weighted_fast_k": 2,
    "weighted_fast_n_reference": 300,
    "weighted_fast_n_piecewise": 2000,
    "weighted_fast_n_test": 2,
    "weighted_fast_rank_weights": "rank",
    "weighted_fast_distance_weights": "inverse_distance",
    # weighted frontier (PR 8): the regression piecewise path vs the
    # configuration engine at serving-scale N (the >= 100x acceptance
    # bar)
    "frontier_n_regression": 2000,
    "frontier_regression_k": 2,
    "frontier_n_test": 2,
    "frontier_rank_weights": "rank",
    # tracing workload (PR 6): serving overhead of a fully enabled
    # tracer (span log + hub streaming, cache off) vs the NOOP default
    "trace_n_train": 4000,
    "trace_requests": 6,
    # ops-plane workload (PR 9): serving with the whole operations
    # plane enabled (SLO tracking + per-request alert evaluation + a
    # 19 Hz sampling profiler) vs the bare engine, cache off
    # 12 requests, not 6: at 19 Hz the profiler lands only ~2 samples
    # on a 6-request loop, so a single extra sample swings the margin;
    # the longer loop keeps the sampling cost representative
    "ops_n_train": 4000,
    "ops_requests": 12,
    "ops_profiler_hz": 19,
    # sharded tier workload (PR 7): a 4-shard data-mode router vs one
    # engine on the top-K (truncated) path, at an N large enough that
    # the single engine's chunk heuristic serializes the request.  The
    # merged values must bit-match the single engine (shard_max_err).
    "shard_n_train": 24000,
    "shard_n_test": 64,
    "shard_n_shards": 4,
    "shard_method": "truncated",
    # resilience workload (PR 10): a data-market burst through two
    # identical single-worker services, exact-only vs the precision
    # ladder.  The p99 margin is the ladder's acceptance bar (>= 2x at
    # measurement time); every degraded answer must stay within its
    # published certificate against the exact oracle (hard-checked).
    "burst_n_train": 40000,
    "burst_n_features": 8,
    "burst_requests": 24,
    "burst_n_test_per_request": 8,
    "burst_n_sellers": 8,
}


def measure() -> dict:
    """Run the gate workload and return the JSON-ready report."""
    from repro.experiments import (
        burst_serving,
        engine_throughput,
        incremental_churn,
        monitor_maintenance,
        ops_plane_overhead,
        shard_scaleout,
        tracing_overhead,
        weighted_engine,
        weighted_fast_paths,
        weighted_frontier,
    )

    throughput = engine_throughput(
        sizes=(WORKLOAD["n_train"],),
        n_test=WORKLOAD["n_test"],
        n_features=WORKLOAD["n_features"],
        k=WORKLOAD["k"],
        repeat=WORKLOAD["repeat"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    churn = incremental_churn(
        sizes=(WORKLOAD["n_train"],),
        n_test=WORKLOAD["n_test"],
        n_features=WORKLOAD["n_features"],
        k=WORKLOAD["k"],
        repeat=WORKLOAD["repeat"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    weighted = weighted_engine(
        n_single=WORKLOAD["weighted_n_single"],
        n_cached=WORKLOAD["weighted_n_cached"],
        n_test=WORKLOAD["weighted_n_test"],
        n_features=WORKLOAD["n_features"],
        k=WORKLOAD["weighted_k"],
        cached_repeat=WORKLOAD["repeat"],
        seed=WORKLOAD["seed"],
    ).rows
    monitor_overhead, monitor_recovery = monitor_maintenance(
        n_train=WORKLOAD["monitor_n_train"],
        n_requests=WORKLOAD["monitor_requests"],
        k=WORKLOAD["k"],
        repeat=WORKLOAD["overhead_repeat"],
        seed=WORKLOAD["seed"],
    ).rows
    traced = tracing_overhead(
        n_train=WORKLOAD["trace_n_train"],
        n_requests=WORKLOAD["trace_requests"],
        k=WORKLOAD["k"],
        repeat=WORKLOAD["overhead_repeat"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    ops = ops_plane_overhead(
        n_train=WORKLOAD["ops_n_train"],
        n_requests=WORKLOAD["ops_requests"],
        k=WORKLOAD["k"],
        repeat=WORKLOAD["overhead_repeat"],
        profiler_hz=WORKLOAD["ops_profiler_hz"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    sharded = shard_scaleout(
        n_train=WORKLOAD["shard_n_train"],
        n_test=WORKLOAD["shard_n_test"],
        n_features=WORKLOAD["n_features"],
        k=WORKLOAD["k"],
        n_shards=WORKLOAD["shard_n_shards"],
        method=WORKLOAD["shard_method"],
        repeat=WORKLOAD["repeat"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    fast = weighted_fast_paths(
        n_reference=WORKLOAD["weighted_fast_n_reference"],
        n_piecewise=WORKLOAD["weighted_fast_n_piecewise"],
        n_test=WORKLOAD["weighted_fast_n_test"],
        n_features=WORKLOAD["n_features"],
        k=WORKLOAD["weighted_fast_k"],
        rank_only_weights=WORKLOAD["weighted_fast_rank_weights"],
        distance_weights=WORKLOAD["weighted_fast_distance_weights"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    burst = burst_serving(
        n_train=WORKLOAD["burst_n_train"],
        n_features=WORKLOAD["burst_n_features"],
        k=WORKLOAD["k"],
        n_sellers=WORKLOAD["burst_n_sellers"],
        burst=WORKLOAD["burst_requests"],
        n_test_per_request=WORKLOAD["burst_n_test_per_request"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    frontier = weighted_frontier(
        n_regression=WORKLOAD["frontier_n_regression"],
        regression_k=WORKLOAD["frontier_regression_k"],
        n_test=WORKLOAD["frontier_n_test"],
        n_features=WORKLOAD["n_features"],
        rank_only_weights=WORKLOAD["frontier_rank_weights"],
        seed=WORKLOAD["seed"],
    ).rows[0]
    return {
        "schema": SCHEMA,
        "workload": dict(WORKLOAD),
        "metrics": {
            "engine_speedup": throughput["speedup"],
            "cached_speedup": throughput["cached_speedup"],
            "incremental_add_speedup": churn["add_speedup"],
            "incremental_remove_speedup": churn["remove_speedup"],
            # capped: the raw ratio (in "info") divides a ~0.3 s
            # single-shot by a sub-millisecond engine time, so runner
            # load could swing it far more than 30% with no real
            # regression; losing the kernel fast path would still
            # collapse the capped value to ~1 and fail the gate
            "weighted_engine_vs_single_shot": min(
                weighted[0]["speedup"], 50.0
            ),
            "weighted_cached_speedup": weighted[1]["cached_speedup"],
            # K>=2 fast paths, capped for the same reason as above: the
            # raw piecewise ratio divides seconds by ~0.1 ms, so runner
            # noise could swing it arbitrarily; falling back to the
            # reference recursion would still collapse the capped value
            # to ~0 and fail the gate
            "weighted_k2_piecewise_speedup": min(
                fast["piecewise_speedup"], 50.0
            ),
            "weighted_k2_vectorized_speedup": min(
                fast["vectorized_speedup"], 50.0
            ),
            # regression piecewise vs the configuration engine at the
            # same serving-scale N — capped like the other fast ratios
            # (the raw value, >= 1000x here, lives in "info"; check()
            # additionally enforces the absolute >= 100x floor on it)
            "weighted_regression_piecewise_speedup": min(
                frontier["regression_speedup"], 150.0
            ),
            # ~1.0 = monitoring is free on the serving path; dropping
            # toward 0.95 means ~5% overhead (the bench_monitor bar)
            "monitor_overhead_margin": monitor_overhead["overhead_margin"],
            # ~1.0 = the background re-tune restores the recall of a
            # freshly tuned index after an injected distribution shift
            "monitor_retune_recovery": monitor_recovery["recovery_ratio"],
            # ~1.0 = fully enabled tracing is free on the serving path;
            # check() additionally enforces the absolute >= 0.95 floor
            # (<= 5% overhead), the observability leave-on-able bar
            "trace_overhead_margin": traced["trace_overhead_margin"],
            # ~1.0 = the whole ops plane (SLO tracking, per-request
            # alert evaluation, 19 Hz profiler) is free on the serving
            # path; check() additionally enforces the absolute >= 0.95
            # floor (<= 5% overhead), the leave-on-able bar
            "ops_plane_overhead_margin": ops["ops_plane_overhead_margin"],
            # > 1.0 = the 4-shard router serves the top-K request
            # faster than one engine over the full training set.
            # Capped like the other fast ratios; collapsing to <= 1
            # (shard fan-out no longer overlapping, or the merge gone
            # quadratic) fails the gate
            "shard_scaleout_margin": min(sharded["scaleout_margin"], 50.0),
            # >= 2x at measurement time: degrading precision along the
            # Theorem 1/2/5 ladder must cut burst p99 latency at least
            # in half versus exact-only serving.  Capped like the other
            # timing ratios; a ladder that stops engaging collapses the
            # value to ~1 and fails the gate
            "burst_p99_latency_margin": min(
                burst["burst_p99_latency_margin"], 10.0
            ),
            # 1.0 = every degraded answer's measured error against the
            # exact oracle stayed within the certificate it published;
            # check() hard-fails on anything else, tolerance or not
            "degraded_value_error_within_certificate": burst[
                "degraded_value_error_within_certificate"
            ],
        },
        "info": {
            "single_shot_s": throughput["single_shot_s"],
            "engine_s": throughput["engine_s"],
            "engine_cached_s": throughput["engine_cached_s"],
            "incremental_add_s": churn["add_s"],
            "incremental_remove_s": churn["remove_s"],
            "incremental_max_err": churn["max_err"],
            "roundtrip_exact": churn["roundtrip_exact"],
            "weighted_single_shot_s": weighted[0]["single_shot_s"],
            "weighted_engine_s": weighted[0]["engine_s"],
            "weighted_engine_vs_single_shot_raw": weighted[0]["speedup"],
            "weighted_engine_cold_s": weighted[1]["engine_cold_s"],
            "weighted_engine_cached_s": weighted[1]["engine_cached_s"],
            "weighted_max_err": weighted[0]["max_err"],
            "weighted_k2_reference_rank_s": fast["reference_rank_s"],
            "weighted_k2_reference_distance_s": fast["reference_distance_s"],
            "weighted_k2_piecewise_s": fast["piecewise_s"],
            "weighted_k2_vectorized_s": fast["vectorized_s"],
            "weighted_k2_piecewise_speedup_raw": fast["piecewise_speedup"],
            "weighted_k2_vectorized_speedup_raw": fast["vectorized_speedup"],
            "weighted_max_err_k2": fast["max_err"],
            "weighted_regression_engine_s": frontier["engine_s"],
            "weighted_regression_piecewise_s": frontier["piecewise_s"],
            "weighted_regression_piecewise_speedup_raw": frontier[
                "regression_speedup"
            ],
            "weighted_regression_max_err": frontier["regression_max_err"],
            "monitor_plain_s": monitor_overhead["plain_s"],
            "monitor_monitored_s": monitor_overhead["monitored_s"],
            "monitor_recall_degraded": monitor_recovery["recall_degraded"],
            "monitor_recall_after": monitor_recovery["recall_after"],
            "monitor_recall_fresh": monitor_recovery["recall_fresh"],
            "monitor_retunes": monitor_recovery["retunes"],
            "trace_plain_s": traced["plain_s"],
            "trace_traced_s": traced["traced_s"],
            "trace_spans_per_request": traced["spans_per_request"],
            "ops_plain_s": ops["plain_s"],
            "ops_plane_s": ops["ops_s"],
            "ops_profiler_samples": ops["profiler_samples"],
            "ops_profiler_overruns": ops["profiler_overruns"],
            "ops_slo_evaluations": ops["slo_evaluations"],
            "shard_single_engine_s": sharded["single_engine_s"],
            "shard_router_s": sharded["router_s"],
            "shard_scaleout_margin_raw": sharded["scaleout_margin"],
            "shard_max_err": sharded["max_err"],
            "burst_exact_p99_s": burst["exact_p99_s"],
            "burst_ladder_p99_s": burst["ladder_p99_s"],
            "burst_p99_latency_margin_raw": burst["burst_p99_latency_margin"],
            "burst_degraded_requests": burst["degraded_requests"],
            "burst_rung_picks": burst["rung_picks"],
            "burst_worst_certificate_slack": burst["worst_certificate_slack"],
            "burst_recovered_to_exact": burst["burst_recovered_to_exact"],
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
    }


def check(baseline: dict, candidate: dict, tolerance: float) -> list[str]:
    """Return a failure message per regressed metric (empty = pass)."""
    failures = []
    if baseline.get("workload") != candidate.get("workload"):
        failures.append(
            "workload mismatch: baseline "
            f"{baseline.get('workload')} vs candidate "
            f"{candidate.get('workload')}; regenerate the baseline"
        )
        return failures
    for name, base_value in baseline["metrics"].items():
        got = candidate["metrics"].get(name)
        if got is None:
            failures.append(f"{name}: missing from candidate")
            continue
        floor = base_value * (1.0 - tolerance)
        if got < floor:
            failures.append(
                f"{name}: {got:.3f} fell below {floor:.3f} "
                f"(baseline {base_value:.3f} - {tolerance:.0%})"
            )
    # correctness must not drift, whatever the speed
    err = candidate["info"].get("incremental_max_err")
    if err is not None and err > 1e-12:
        failures.append(f"incremental_max_err: {err:g} exceeds 1e-12")
    if candidate["info"].get("roundtrip_exact") is False:
        failures.append("roundtrip_exact: add-then-remove no longer bit-exact")
    werr = candidate["info"].get("weighted_max_err")
    if werr is not None and werr > 1e-12:
        failures.append(f"weighted_max_err: {werr:g} exceeds 1e-12")
    werr_k2 = candidate["info"].get("weighted_max_err_k2")
    if werr_k2 is not None and werr_k2 > 1e-12:
        failures.append(
            f"weighted_max_err_k2: {werr_k2:g} exceeds 1e-12 (K>=2 fast "
            "paths drifted from the reference recursion)"
        )
    # the weighted-frontier acceptance bars are absolute: regression
    # piecewise within 1e-12 of the configuration engine AND >= 100x
    # faster at serving-scale N
    rerr = candidate["info"].get("weighted_regression_max_err")
    if rerr is not None and rerr > 1e-12:
        failures.append(
            f"weighted_regression_max_err: {rerr:g} exceeds 1e-12 "
            "(regression piecewise drifted from the configuration engine)"
        )
    rspeed = candidate["info"].get(
        "weighted_regression_piecewise_speedup_raw"
    )
    if rspeed is not None and rspeed < 100.0:
        failures.append(
            f"weighted_regression_piecewise_speedup_raw: {rspeed:.1f} "
            "below the 100x acceptance floor"
        )
    # the maintenance acceptance bar is absolute (within 2% of a fresh
    # tune), tighter than the ratio gate's tolerance
    after = candidate["info"].get("monitor_recall_after")
    fresh = candidate["info"].get("monitor_recall_fresh")
    if after is not None and fresh is not None and after < fresh - 0.02:
        failures.append(
            f"monitor_recall_after: {after:.3f} more than 2% below the "
            f"freshly tuned control ({fresh:.3f})"
        )
    # the sharded tier's acceptance bar is exactness: the cross-shard
    # merge must reproduce the single engine bit-for-bit
    serr = candidate["info"].get("shard_max_err")
    if serr is not None and serr > 1e-12:
        failures.append(
            f"shard_max_err: {serr:g} exceeds 1e-12 (cross-shard merge "
            "no longer bit-matches the single engine)"
        )
    # the tracing acceptance bar is absolute (enabled tracing costs at
    # most 5% of untraced serving), tighter than the ratio gate
    margin = candidate["metrics"].get("trace_overhead_margin")
    if margin is not None and margin < 0.95:
        failures.append(
            f"trace_overhead_margin: {margin:.3f} below the 0.95 floor "
            "(enabled tracing costs more than 5% of untraced serving)"
        )
    # the ops-plane acceptance bar is absolute too: SLO tracking,
    # per-request alert evaluation, and the 19 Hz profiler must
    # together cost at most 5% of bare serving
    ops_margin = candidate["metrics"].get("ops_plane_overhead_margin")
    if ops_margin is not None and ops_margin < 0.95:
        failures.append(
            f"ops_plane_overhead_margin: {ops_margin:.3f} below the 0.95 "
            "floor (the enabled ops plane costs more than 5% of bare "
            "serving)"
        )
    # the degradation ladder's correctness bar is absolute and has no
    # tolerance: a degraded answer outside its published certificate is
    # a wrong answer sold as a certified one
    within = candidate["metrics"].get(
        "degraded_value_error_within_certificate"
    )
    if within is not None and within < 1.0:
        slack = candidate["info"].get("burst_worst_certificate_slack")
        failures.append(
            "degraded_value_error_within_certificate: "
            f"{within:g} != 1.0 — a degraded result exceeded its error "
            f"certificate (worst slack {slack})"
        )
    recovered = candidate["info"].get("burst_recovered_to_exact")
    if recovered is not None and recovered < 1.0:
        failures.append(
            "burst_recovered_to_exact: the first post-burst request did "
            "not return to exact, unmarked serving"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--out", metavar="PATH", help="measure and write the JSON report"
    )
    mode.add_argument(
        "--check",
        nargs=2,
        metavar=("BASELINE", "CANDIDATE"),
        help="compare a candidate report against the committed baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional slowdown per metric (default 0.30)",
    )
    args = parser.parse_args(argv)

    if args.out:
        report = measure()
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
        for name, value in sorted(report["metrics"].items()):
            print(f"  {name:>28s}: {value:.3f}")
        return 0

    baseline_path, candidate_path = args.check
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    with open(candidate_path) as fh:
        candidate = json.load(fh)
    failures = check(baseline, candidate, args.tolerance)
    for name in sorted(baseline["metrics"]):
        base_value = baseline["metrics"][name]
        got = candidate["metrics"].get(name, float("nan"))
        print(f"  {name:>28s}: baseline {base_value:7.3f}  candidate {got:7.3f}")
    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed "
              f"beyond {args.tolerance:.0%}:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"\nOK: no metric regressed beyond {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
