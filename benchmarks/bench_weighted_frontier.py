"""Weighted frontier: the O(N·poly(K)) regression piecewise path.

The acceptance bar (also gated in ``BENCH_engine.json`` via
``bench_to_json.py``): the regression piecewise path (rank-only
weights, eq 27) beats the configuration engine by >= 100x at N=2000,
K=2, within 1e-12.
"""

from repro.experiments import weighted_frontier
from repro.experiments.reporting import format_result


def test_weighted_frontier(once):
    result = once(lambda: weighted_frontier(seed=0))
    print()
    print(format_result(result))
    row = result.rows[0]
    # correctness is non-negotiable whatever the timings
    assert row["regression_max_err"] <= 1e-12
    # the headline claim: exact weighted regression values at serving
    # scale in a fraction of the configuration engine's time
    assert row["regression_speedup"] >= 100.0
