"""Steadiness report: repeat one workload over seeds, summarize each metric.

Each run is its own process with its own seed.  For every metric the
report prints the median, the first and third quartiles and their
distance as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  With ``--sets 2`` it runs a second set on fresh
seeds and checks that the second median is no worse than the first by
more than the bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"seed {seed}: no result\n{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    if proc.returncode != 0 or not out["correct"]:
        raise RuntimeError(f"seed {seed}: incorrect run\n{lines[-2] if len(lines) > 1 else ''}")
    return out


def spread(values: list) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` as ``statistics.quantiles`` gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(workload: str, repeat: int, sets: int, seconds: float, trace: int, seed0: int) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = bench["per_layer"] if trace else bench["end_to_end"]
    meta = {m["name"]: m for m in table}
    medians, ok = [], True
    for s in range(sets):
        seeds = [seed0 + s * repeat + r for r in range(repeat)]
        runs = [run_once(workload, seed, seconds, trace) for seed in seeds]
        print(f"== {workload} set {s + 1}: seeds {seeds[0]}..{seeds[-1]}, {seconds} s each")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        set_medians = {}
        for name in meta:
            values = [run["metrics"][name]["value"] for run in runs]
            med, q1, q3, share = spread(values)
            set_medians[name] = med
            bound = meta[name].get("bound")
            flag = ""
            if bound is not None and name != "setup_s" and share > bound:
                flag, ok = "  OVER BOUND", False
            elif bound is not None and share > bound / 3:
                flag = "  over a third"
            print(
                f"  {name:40s} {med:12.4f} {q1:12.4f} {q3:12.4f} {share:8.3f} "
                f"{'' if bound is None else bound:>6}{flag}"
            )
            print("      " + " ".join(f"{v:.4g}" for v in values))
        medians.append(set_medians)
    if len(medians) >= 2 and not trace:
        print("== second set against the first")
        for name, m in meta.items():
            first, second = medians[0][name], medians[1][name]
            worse = (second - first) if m["better"] == "lower" else (first - second)
            share = worse / first if first else 0.0
            flag = ""
            if share > m["bound"]:
                flag, ok = "  WORSE BEYOND BOUND", False
            print(f"  {name:40s} {first:12.4f} {second:12.4f} {share:+8.3f}{flag}")
    return 0 if ok else 1
