"""Per-layer numbers: span self times, the layer probe and the layer replay.

Three sources, all taken from outside the program:

* **spans** — the program's own ``Tracer``, attached through the public
  ``attach_tracer`` on every other slice of the measured window.  Only
  whole traces whose root span lies inside a traced slice count.  A
  span's self time is its duration minus the part of it its children
  cover.
* **layer probe** — after the window, a few of the workload's recorded
  batches go through every layer once more, traced: each method on one
  engine, exact on a 4-shard router and a 2-worker service.  A span
  metric whose layer the workload's own traffic never reaches (the
  router on ``market-exact``, the service on ``sharded-audit``) is
  taken from the probe instead.
* **layer replay** — the splits the program does not expose, timed by
  calling the public functions of each layer in sequence on recorded
  batches: distances, sort, plan, recursion, scatter, top-k query,
  Monte Carlo values and the Bennett certificate solve.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Optional

import numpy as np

from repro.core.bounds import bennett_permutations
from repro.core.kernels import RankPlan, classification_rank_values, truncation_rank
from repro.core.mcserve import mc_values_from_distances
from repro.engine import DEFAULT_LADDER, ShardRouter, ValuationEngine, ValuationService
from repro.knn.distance import get_metric
from repro.knn.search import stable_argsort_rows, top_k

#: (name, unit, better) of every per-layer metric, in output order
PER_LAYER = [
    ("backends.distances_ms.p50", "ms", "lower"),
    ("backends.sort_ms.p50", "ms", "lower"),
    ("backends.rank_ms.p50", "ms", "lower"),
    ("backends.query_ms.p50", "ms", "lower"),
    ("backends.topk_ms.p50", "ms", "lower"),
    ("backends.tie_runs_per_row", "count", "lower"),
    ("kernels.plan_ms.p50", "ms", "lower"),
    ("kernels.recursion_ms.p50", "ms", "lower"),
    ("kernels.scatter_ms.p50", "ms", "lower"),
    ("kernels.exact_ms.p50", "ms", "lower"),
    ("kernels.truncated_ms.p50", "ms", "lower"),
    ("kernels.weighted_ms.p50", "ms", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.invalidations", "count", "lower"),
    ("engine.request_self_ms.p50", "ms", "lower"),
    ("engine.chunks_per_request", "count", "lower"),
    ("engine.merge_ms.p50", "ms", "lower"),
    ("engine.mutate_ms.p95", "ms", "lower"),
    ("sharding.request_ms.p50", "ms", "lower"),
    ("sharding.fanout_ms.p50", "ms", "lower"),
    ("sharding.merge_ms.p50", "ms", "lower"),
    ("sharding.kernel_ms.p50", "ms", "lower"),
    ("sharding.vs_engine_ratio", "ratio", "lower"),
    ("sharding.hedges", "count", "lower"),
    ("sharding.retries", "count", "lower"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.p95", "ms", "lower"),
    ("service.compute_ms.p50", "ms", "lower"),
    ("service.overhead_ms.p50", "ms", "lower"),
    ("service.shed", "count", "lower"),
    ("service.deadline_missed", "count", "lower"),
    ("service.queue_depth.max", "count", "lower"),
    ("degradation.picks.exact", "count", "higher"),
    ("degradation.picks.truncated-fine", "count", "lower"),
    ("degradation.picks.truncated-coarse", "count", "lower"),
    ("degradation.picks.mc", "count", "lower"),
    ("degradation.certificate_held_share", "ratio", "higher"),
    ("mcserve.values_ms.p50", "ms", "lower"),
    ("mcserve.replay_ms.p50", "ms", "lower"),
    ("mcserve.permutations", "count", "lower"),
    ("bounds.certificate_ms.p50", "ms", "lower"),
    ("loadgen.lag_ms.p95", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: the ladder's Monte Carlo rung: the (epsilon, delta) the replay solves for
MC_RUNG = DEFAULT_LADDER[-1]
#: what the probe asks of one engine, besides plain exact
PROBE_METHODS = (
    ("truncated", {"epsilon": 0.1}),
    ("weighted", {"weights": "rank"}),
    ("mc", {"epsilon": MC_RUNG.epsilon, "delta": MC_RUNG.delta}),
)


def pct(values, q: float) -> float:
    """Percentile ``q`` of ``values``; 0.0 when there are none."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class SpanSet:
    """Finished span records of whole traces, indexed by parent."""

    def __init__(self, records: list) -> None:
        self.records = records
        self.by_id = {r["span_id"]: r for r in records}
        self.children: dict = {}
        for r in records:
            if r["parent_id"] is not None:
                self.children.setdefault(r["parent_id"], []).append(r)

    @classmethod
    def within(cls, records: list, intervals: list) -> "SpanSet":
        """The traces whose root span lies inside one wall-clock interval."""
        keep = set()
        for r in records:
            if r["parent_id"] is None:
                a, b = r["ts"], r["ts"] + r["seconds"]
                if any(lo <= a and b <= hi for lo, hi in intervals):
                    keep.add(r["trace_id"])
        return cls([r for r in records if r["trace_id"] in keep])

    def named(self, name: str, pred: Optional[Callable] = None) -> list:
        return [
            r for r in self.records
            if r["name"] == name and (pred is None or pred(r))
        ]

    def ms(self, name: str, pred: Optional[Callable] = None) -> list:
        return [r["seconds"] * 1e3 for r in self.named(name, pred)]

    def kids(self, rec: dict, name: str) -> list:
        return [c for c in self.children.get(rec["span_id"], []) if c["name"] == name]

    def parent_name(self, rec: dict) -> Optional[str]:
        parent = self.by_id.get(rec["parent_id"])
        return None if parent is None else parent["name"]

    def self_ms(self, rec: dict) -> float:
        """Duration minus the union of the children's intervals."""
        a, b = rec["ts"], rec["ts"] + rec["seconds"]
        parts = sorted(
            (max(a, c["ts"]), min(b, c["ts"] + c["seconds"]))
            for c in self.children.get(rec["span_id"], [])
        )
        covered, lo, hi = 0.0, None, None
        for c0, c1 in parts:
            if c1 <= c0:
                continue
            if hi is None or c0 > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c0, c1
            else:
                hi = max(hi, c1)
        if hi is not None:
            covered += hi - lo
        return max(0.0, rec["seconds"] - covered) * 1e3

    def slowest_legs(self) -> list:
        """Per router chunk, the slowest ``shard.request`` leg (ms)."""
        out = []
        for req in self.named("router.request"):
            legs: dict = {}
            for leg in self.kids(req, "shard.request"):
                key = leg["attributes"].get("start", 0)
                legs[key] = max(legs.get(key, 0.0), leg["seconds"] * 1e3)
            out += legs.values()
        return out


def _is_mutation(rec: dict) -> bool:
    return str(rec["attributes"].get("kind", "")).startswith("mutate")


#: span metrics: name -> samples taken from a SpanSet
SPAN_SAMPLES: dict = {
    "backends.rank_ms.p50": lambda s: s.ms("backend.rank")
    + s.ms("engine.retrieve", lambda r: r["attributes"].get("k") == -1),
    "backends.query_ms.p50": lambda s: s.ms("backend.query")
    + s.ms("engine.retrieve", lambda r: r["attributes"].get("k", -1) >= 0),
    "kernels.exact_ms.p50": lambda s: s.ms("kernel.exact"),
    "kernels.truncated_ms.p50": lambda s: s.ms("kernel.truncated"),
    "kernels.weighted_ms.p50": lambda s: s.ms("kernel.weighted"),
    "engine.request_self_ms.p50": lambda s: [s.self_ms(r) for r in s.named("engine.request")],
    "engine.chunks_per_request": lambda s: [
        len(s.kids(r, "engine.chunk")) for r in s.named("engine.request")
    ],
    "engine.merge_ms.p50": lambda s: s.ms("engine.merge"),
    "engine.mutate_ms.p95": lambda s: s.ms("engine.mutate"),
    "sharding.request_ms.p50": lambda s: s.ms("router.request"),
    "sharding.fanout_ms.p50": lambda s: s.slowest_legs(),
    "sharding.merge_ms.p50": lambda s: s.ms("router.merge"),
    "sharding.kernel_ms.p50": lambda s: [
        r["seconds"] * 1e3 for r in s.records
        if r["name"].startswith("kernel.") and s.parent_name(r) == "router.request"
    ],
    "service.overhead_ms.p50": lambda s: [
        s.self_ms(r) for r in s.named("service.job") if not _is_mutation(r)
    ],
    "mcserve.values_ms.p50": lambda s: s.ms("kernel.mcserve"),
}


def _aggregate(name: str, samples: list) -> float:
    if name.endswith(".p95"):
        return pct(samples, 95)
    if name.endswith(".p50"):
        return pct(samples, 50)
    return float(np.mean(samples)) if samples else 0.0


def counters(stack) -> dict:
    """The cumulative counters the per-layer metrics difference."""
    out = {
        "hits": 0, "misses": 0, "invalidations": 0, "hedges": 0, "retries": 0,
        "picks": {},
    }
    if stack.controller is not None:
        out["picks"] = stack.controller.snapshot()["picks"]
    engine = stack.engine
    if engine is not None and engine.cache is not None:
        stats = engine.cache.stats.as_dict()
        out.update({k: stats[k] for k in ("hits", "misses", "invalidations")})
    if stack.router is not None:
        ops = stack.router.stats()["counters"]
        out["hedges"], out["retries"] = ops["hedges"], ops["retries"]
    return out


def replay(x_train, y_train, k: int, batches: list, metric: str = "euclidean") -> dict:
    """Time each layer's public function in sequence on recorded batches."""
    dist_fn = get_metric(metric)
    n = x_train.shape[0]
    k_star = truncation_rank(k, 0.1)
    steps: dict = {}
    tie_runs = []

    def timed(step: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        steps.setdefault(step, []).append((time.perf_counter() - start) * 1e3)
        return out

    for j, (x, y) in enumerate(batches):
        dist = timed("backends.distances_ms.p50", dist_fn, x, x_train)
        order = timed("backends.sort_ms.p50", stable_argsort_rows, dist)
        plan = timed("kernels.plan_ms.p50", RankPlan.from_order, order, y_train, y)
        ranked = timed(
            "kernels.recursion_ms.p50",
            lambda: classification_rank_values(plan.match_sorted(), k),
        )
        timed("kernels.scatter_ms.p50", plan.scatter, ranked)
        timed("backends.topk_ms.p50", top_k, x, x_train, k_star, metric)
        t_budget = timed(
            "bounds.certificate_ms.p50",
            bennett_permutations, MC_RUNG.epsilon, MC_RUNG.delta, n, k, 1.0 / k,
        )
        match = (y_train[None, :] == y[:, None]).astype(np.float64)
        timed(
            "mcserve.replay_ms.p50",
            mc_values_from_distances, dist, match, k, t_budget, np.random.default_rng(j),
        )
        ties = np.diff(np.take_along_axis(dist, order, axis=1), axis=1) == 0
        starts = ties[:, 0].astype(np.int64) + (ties[:, 1:] & ~ties[:, :-1]).sum(axis=1)
        tie_runs.append(float(starts.mean()))
    out = {name: statistics.median(v) for name, v in steps.items()}
    out["backends.tie_runs_per_row"] = float(np.mean(tie_runs)) if tie_runs else 0.0
    return out


def layer_probe(x_train, y_train, k: int, batches: list, tracer) -> dict:
    """Send recorded batches through one engine, a router and a service."""
    engine = ValuationEngine(x_train, y_train, k, cache=False).attach_tracer(tracer)
    router = ShardRouter(x_train, y_train, k, n_shards=4, cache=False, tracer=tracer)
    service = ValuationService(engine, n_workers=2)
    router_s, engine_s, jobs, perms = [], [], [], []
    try:
        for j, (x, y) in enumerate(batches):
            for method, params in PROBE_METHODS:
                res = engine.value(x, y, method=method, seed=j, **params)
                if method == "mc":
                    perms.append(res.extra["n_permutations"])
            start = time.perf_counter()
            router.value(x, y)
            router_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            engine.value(x, y)
            engine_s.append(time.perf_counter() - start)
            job = service.submit_batch(x, y)
            job.result(timeout=60)
            jobs.append(job)
    finally:
        service.shutdown(wait=True)
        router.close()
    ratio = statistics.median(router_s) / statistics.median(engine_s) if batches else 0.0
    return {"vs_engine_ratio": ratio, "jobs": jobs, "permutations": perms}


def per_layer_metrics(
    traffic, report, slicer, records: list, probe_intervals: list,
    probe: dict, replayed: dict, before: dict, after: dict,
) -> tuple[dict, list]:
    """Every per-layer metric; also the span metrics the probes supplied.

    ``probe_intervals`` are the wall-clock spans of the mutation probe
    and the layer probe.
    """
    window = SpanSet.within(records, [(s[2], s[3]) for s in slicer.traced])
    probed = SpanSet.within(records, probe_intervals)
    values: dict = {}
    from_probe = []
    for name, fn in SPAN_SAMPLES.items():
        samples = fn(window)
        if not samples:
            samples = fn(probed)
            if samples:
                from_probe.append(name)
        values[name] = _aggregate(name, samples)
    values.update(replayed)

    lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
    values["cache.hit_ratio"] = (after["hits"] - before["hits"]) / lookups if lookups else 0.0
    values["cache.invalidations"] = float(after["invalidations"] - before["invalidations"])
    values["sharding.hedges"] = float(after["hedges"] - before["hedges"])
    values["sharding.retries"] = float(after["retries"] - before["retries"])
    values["sharding.vs_engine_ratio"] = probe["vs_engine_ratio"]

    vals = [op for op in traffic.ops if op.kind == "value" and op.measured]
    jobs = [op.job for op in vals if op.job is not None and op.job.started_at is not None]
    if not jobs:
        jobs = probe["jobs"]
        from_probe.append("service.*")
    queue_ms = [j.queue_seconds * 1e3 for j in jobs]
    values["service.queue_wait_ms.p50"] = pct(queue_ms, 50)
    values["service.queue_wait_ms.p95"] = pct(queue_ms, 95)
    values["service.compute_ms.p50"] = pct(
        [j.compute_seconds * 1e3 for j in jobs if j.compute_seconds is not None], 50
    )
    values["service.shed"] = float(sum(op.status == "shed" for op in vals))
    values["service.deadline_missed"] = float(sum(op.status == "deadline" for op in vals))
    values["service.queue_depth.max"] = float(traffic.queue_depth_max)

    for rung in DEFAULT_LADDER:
        values[f"degradation.picks.{rung.name}"] = float(
            after["picks"].get(rung.name, 0) - before["picks"].get(rung.name, 0)
        )
    answered = [op for op in vals if op.status == "ok"]
    perms = [
        op.result.extra["n_permutations"]
        for op in answered if "n_permutations" in op.result.extra
    ]
    values["degradation.certificate_held_share"] = (
        report.certificates_held / report.certificates_checked
        if report.certificates_checked else 1.0
    )
    if not perms:
        perms = probe["permutations"]
        from_probe.append("mcserve.permutations")
    values["mcserve.permutations"] = float(statistics.median(perms)) if perms else 0.0

    values["loadgen.lag_ms.p95"] = pct(traffic.lags, 95) * 1e3
    values["trace.overhead_ratio"] = _overhead_ratio(answered, slicer)
    return values, from_probe


def _overhead_ratio(answered: list, slicer) -> float:
    """Median latency inside traced slices over that inside untraced ones."""

    def inside(op, slices) -> bool:
        return any(p0 <= op.origin and op.finished <= p1 for p0, p1, _, _ in slices)

    traced = [op.latency for op in answered if inside(op, slicer.traced)]
    untraced = [op.latency for op in answered if inside(op, slicer.untraced)]
    if not traced or not untraced:
        return 0.0
    return statistics.median(traced) / statistics.median(untraced)
