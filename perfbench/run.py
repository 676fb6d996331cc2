"""Serving benchmark of the KNN-Shapley stack: three workloads, one command.

Run one workload; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload market-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run,
``--trace 1`` the per-layer metrics of a traced run (see ``layers.py``).
Other modes::

    python3 perfbench/run.py --workload all --seconds 20   # every workload, both runs
    python3 perfbench/run.py --workload sharded-audit --repeat 5 --sets 2
    python3 perfbench/run.py --calibrate                   # market-exact sustained rate
    python3 perfbench/run.py --selftest                    # tiny-size self-tests

Run from the root of a checkout: the program is imported from its
``src`` directory, and the process exits non-zero without a result when
that directory is missing or any correctness check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = HERE / "spec.json"
#: every thread-count knob of the BLAS builds numpy may link
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: glibc ``mallopt`` settings: name -> (parameter number, value)
MALLOC_PINS = {
    "M_MMAP_THRESHOLD": (-3, 32 << 20),
    "M_TRIM_THRESHOLD": (-1, 1 << 30),
    "M_ARENA_MAX": (-8, 1),
}
#: the ``MALLOC_PINS`` that took in this process, filled by ``prepare``
MALLOC: dict = {}
#: (name, unit, better) of every end-to-end metric, in output order
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("within_limit_share", "ratio", "higher"),
    ("success_share", "ratio", "higher"),
    ("precision_score", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]


def pin_allocator() -> dict:
    """Fix glibc malloc's mmap and trim thresholds and its arena count.

    By default glibc raises its mmap threshold as large blocks are
    freed and gives threads arenas of their own, so whether an array of
    a few megabytes (a training set, a distance matrix) lands on fresh
    mmapped pages or on reused heap depends on the process's history
    and on the thread that asks: the same seller join took 3 ms in one
    run and 6 ms in the next.  Pinned, such arrays come from one heap
    that is never trimmed.  Returns the settings that took (none when
    the C library is not glibc).
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return {}
    return {
        name: value for name, (param, value) in MALLOC_PINS.items()
        if mallopt(param, value) == 1
    }


def prepare() -> None:
    """Pin BLAS and the allocator, and import the program from ``src``.

    Two service workers share two cores; a multi-threaded BLAS under
    each would oversubscribe them.  The variables must be set before
    numpy is first imported.
    """
    MALLOC.update(pin_allocator())
    for var in BLAS_VARS:
        os.environ[var] = "1"
    src = (ROOT / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def commit() -> str:
    """The checked-out commit, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def added_error_bound(result) -> float:
    """The certified max-norm error degradation added to one answer (0 if none)."""
    degraded = result.extra.get("degraded")
    if degraded is None:
        return 0.0
    return float(degraded["certificate"]["epsilon"])


def end_to_end(wl, traffic, setup: list, mutation_s: list, peak_mb: float, seconds: float):
    """The end-to-end metrics and the sample counts behind them."""
    from layers import pct

    vals = [op for op in traffic.ops if op.kind == "value" and op.measured]
    deadline = wl.cfg.get("deadline_ms")
    limit = float(wl.cfg["latency_limit_ms"])
    answered = [op for op in vals if op.status == "ok" and op.verdict is not False]
    lat_ms = [op.latency * 1e3 for op in answered]
    # an answer past its own deadline is a missed deadline, not a success
    good = [op for op in answered if deadline is None or op.latency * 1e3 <= deadline]
    w0, w1 = traffic.window
    attempted = max(1, len(vals))
    p90 = pct(lat_ms, 90)
    # joins and leaves can differ in cost, so a median over both would
    # fall on the gap between them; it is taken over each pair's mean
    pair_s = [(a + r) / 2 for a, r in zip(mutation_s[::2], mutation_s[1::2])]
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": pct(lat_ms, 50),
        "throughput_rps": sum(w0 <= op.finished <= w1 for op in good) / seconds,
        "within_limit_share": sum(op.latency * 1e3 <= limit for op in good) / attempted,
        "success_share": len(good) / attempted,
        "precision_score": 1.0 - statistics.fmean(
            [added_error_bound(op.result) for op in answered] or [0.0]
        ),
        "peak_rss_mb": peak_mb,
    }
    samples = {
        "valuations": len(vals),
        "latency_samples": len(lat_ms),
        # the tail, recorded but not gated: see README.md, "Steadiness"
        "latency_p90_ms": p90,
        "beyond_latency_p90": sum(v > p90 for v in lat_ms),
        "mutation_samples": len(mutation_s),
        # recorded, not gated: see README.md, "Steadiness"
        "mutation_p50_ms": pct(pair_s, 50) * 1e3,
        "mutation_p95_ms": pct(mutation_s, 95) * 1e3,
        "compute_p50_ms": pct(
            [op.job.compute_seconds * 1e3 for op in answered if op.job is not None], 50
        ),
        "setup_repeats": len(setup),
    }
    return metrics, samples


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One run: build, serve, probe, check.  Returns ``(result, record)``."""
    import layers
    import numpy as np
    import workloads
    from repro.monitor.tracing import NOOP_TRACER, TraceLog, Tracer

    wl = workloads.WORKLOADS[name](spec, seed)

    def timed_build():
        start = time.perf_counter()
        built = wl.build()
        setup.append(time.perf_counter() - start)
        return built

    # a third of the builds before the traffic, the rest after it, so
    # the median spans the run rather than one moment of the host's speed
    setup, stack = [], None
    repeats = int(spec["setup_repeats"])
    pairs = int(spec["mutation_probe_pairs"])
    for _ in range(max(1, repeats // 3)):
        if stack is not None:
            stack.close()
        stack = timed_build()
    tracer = Tracer(log=TraceLog(capacity=1_000_000)) if trace else None
    try:
        wl.warm(stack)
        # the mutation probe runs on the fresh stack: after the traffic
        # the heap a workload leaves behind would set its speed; traced
        # runs trace it, for the engine.mutate spans
        probe_spans = [time.time()]
        stack.attach_tracer(tracer or NOOP_TRACER)
        mutation_s, mutation_bad = wl.mutation_probe(stack, pairs)
        stack.attach_tracer(NOOP_TRACER)
        probe_spans.append(time.time())
        before = layers.counters(stack)
        slicer = workloads.TraceSlicer(
            stack.attach_tracer, tracer, float(spec["trace_slice_seconds"])
        )
        traffic = wl.run(stack, seconds, slicer)
        after = layers.counters(stack)
        probe_from = time.time()
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < repeats:
            timed_build().close()
        if trace:
            probe = layers.layer_probe(
                wl.x_train, wl.y_train, wl.k,
                wl.sample_batches(traffic.ops, int(spec["probe_batches"]), 8), tracer,
            )
    finally:
        stack.close()
    report = wl.check(traffic)

    nproc = os.cpu_count() or 1
    problems = []
    lag_p95_ms = layers.pct(traffic.lags, 95) * 1e3
    lag_bound = wl.cfg.get("lag_bound_ms")
    if lag_bound is not None and lag_p95_ms > float(lag_bound):
        problems.append(f"loadgen lag p95 {lag_p95_ms:.1f} ms over its {lag_bound} ms bound")
    if traffic.loadgen_threads > nproc:
        problems.append(f"{traffic.loadgen_threads} loadgen threads on {nproc} cores")
    counted = [op for op in traffic.ops if op.measured]
    errors = [op for op in counted if op.status == "error"]
    failed = len(errors) + len(report.wrong) + mutation_bad
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(counted) + 2 * pairs,
        "failed": failed,
    }
    if trace:
        values, from_probe = layers.per_layer_metrics(
            traffic, report, slicer, tracer.log.records(),
            [tuple(probe_spans), (probe_from, math.inf)], probe,
            layers.replay(
                wl.x_train, wl.y_train, wl.k,
                wl.sample_batches(traffic.ops, int(spec["replay_batches"]), 9),
            ),
            before, after,
        )
        table, samples = layers.PER_LAYER, {"from_probe": from_probe}
    else:
        values, samples = end_to_end(wl, traffic, setup, mutation_s, peak_mb, seconds)
        table = END_TO_END
    result["metrics"] = {
        metric: {"value": float(values[metric]), "unit": unit} for metric, unit, _ in table
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "commit": commit(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "malloc": MALLOC,
        "loadgen_threads": traffic.loadgen_threads,
        "loadgen_lag_p95_ms": lag_p95_ms,
        "lag_bound_ms": lag_bound,
        "valid": not problems,
        "problems": problems,
        "checked": report.checked,
        "wrong": report.wrong[:10],
        "errors": [op.error for op in errors][:10],
        "mutation_probe_failures": mutation_bad,
        "samples": samples,
    }
    return result, record


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    spec = load_spec()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in spec["workloads"]:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} trace={trace}: no result\n{proc.stderr}", file=sys.stderr)
                combined["correct"] = False
                continue
            out = json.loads(lines[-1])
            print(f"== {name} trace={trace}")
            for metric, value in out["metrics"].items():
                print(f"  {metric:40s} {value['value']:14.4f} {value['unit']}")
                combined["metrics"][f"{name}/{metric}"] = value
            combined["correct"] = combined["correct"] and out["correct"] and proc.returncode == 0
            combined["attempted"] += out["attempted"]
            combined["failed"] += out["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def calibrate(seconds: float) -> int:
    """Sustained market-exact valuations/s with 4 requests in flight."""
    from collections import deque

    import workloads

    wl = workloads.MarketExact(load_spec(), 0)
    stack = wl.build()
    try:
        wl.warm(stack)
        ops = iter(op for op in wl.schedule(100 * seconds) if op.kind == "value")
        inflight, done = deque(), 0
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            while len(inflight) < 4:
                op = next(ops)
                x, y = wl.batch(op.batch)
                inflight.append(stack.service.submit_batch(x, y, method=op.method, **op.params))
            inflight.popleft().result(timeout=60)
            done += 1
        rate = done / (time.perf_counter() - start)
        for job in inflight:
            job.result(timeout=60)
    finally:
        stack.close()
    print(json.dumps({"workload": wl.name, "sustained_rps": rate, "seconds": seconds}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="steadiness report over N seeds")
    parser.add_argument("--sets", type=int, default=1, help="sets of --repeat runs to compare")
    parser.add_argument("--calibrate", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    prepare()
    if args.selftest:
        import selftest

        return selftest.main()
    if args.calibrate:
        return calibrate(args.seconds)
    if args.repeat:
        import steady

        return steady.main(args.workload, args.repeat, args.sets, args.seconds, args.trace, args.seed)
    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}")
    result, record = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print("run-record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
