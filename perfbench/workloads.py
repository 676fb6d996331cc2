"""The three serving workloads: seeded inputs, the stack, traffic, checks.

A workload generates every array it sends from the seed and hands the
program nothing else.  It builds its serving stack through the public
constructors, drives traffic through the stack's front door (the
service or the router), and checks the answers it got against oracles:
``exact_knn_shapley`` for exact answers, a single engine for router
answers, and the published certificate for degraded or Monte Carlo
answers.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.exact import exact_knn_shapley
from repro.engine import (
    DegradationController,
    ShardRouter,
    ValuationEngine,
    ValuationService,
)
from repro.exceptions import AdmissionRejectedError, DeadlineExceededError
from repro.monitor.tracing import NOOP_TRACER
from repro.types import Dataset

#: largest difference allowed between an answer and an exact reference
EXACT_TOL = 1e-12
#: longest wait for in-flight work once the traffic stops
DRAIN_SECONDS = 60.0


@dataclass
class Op:
    """One operation of the traffic and what became of it."""

    index: int
    kind: str  # "value", "add" or "remove"
    due: float = 0.0  # open loop: seconds after the traffic start
    batch: int = 0  # valuation batch id; seller id for mutations
    method: str = "exact"
    params: dict = field(default_factory=dict)
    measured: bool = False  # inside the measured window
    origin: Optional[float] = None  # latency reference, perf_counter
    sent: Optional[float] = None
    finished: Optional[float] = None
    status: str = "pending"  # ok | shed | deadline | error
    result: object = None
    error: str = ""
    job: object = None
    verdict: Optional[bool] = None  # None: not sampled by the checks

    @property
    def latency(self) -> Optional[float]:
        """Seconds from the latency reference to the answer, if answered."""
        if self.status != "ok" or self.finished is None or self.origin is None:
            return None
        return self.finished - self.origin


@dataclass
class Traffic:
    """Everything one traffic run produced."""

    ops: list
    window: tuple  # perf_counter bounds of the measured window
    lags: list  # loadgen lateness samples, seconds
    loadgen_threads: int
    queue_depth_max: int = 0


@dataclass
class Stack:
    """The serving stack one workload builds."""

    engine: Optional[ValuationEngine] = None
    service: Optional[ValuationService] = None
    router: Optional[ShardRouter] = None
    controller: Optional[DegradationController] = None

    def attach_tracer(self, tracer) -> None:
        """Trace the whole stack (the service uses its engine's tracer)."""
        (self.router or self.engine).attach_tracer(tracer)

    @property
    def n_train(self) -> int:
        return (self.router or self.engine).n_train

    def close(self) -> None:
        if self.service is not None:
            self.service.shutdown(wait=True)
        if self.router is not None:
            self.router.close()


class CheckReport:
    """Outcome of the correctness checks of one run."""

    def __init__(self) -> None:
        self.checked = 0
        self.wrong: list[str] = []
        self.certificates_checked = 0
        self.certificates_held = 0

    def add(self, op: Op, good: bool, detail: str) -> None:
        op.verdict = bool(good)
        self.checked += 1
        if not good:
            self.wrong.append(f"{op.kind}#{op.index} {op.method}: {detail}")

    def certificate(self, held: bool) -> None:
        self.certificates_checked += 1
        self.certificates_held += int(held)


class TraceSlicer:
    """Attaches the tracer on every other slice of the measured window.

    Untraced and traced slices alternate, so the per-layer numbers and
    the tracing overhead come from the same traffic.  ``traced`` and
    ``untraced`` collect ``(perf0, perf1, wall0, wall1)`` per slice.
    """

    def __init__(self, attach: Callable, tracer, slice_seconds: float) -> None:
        self.attach = attach
        self.tracer = tracer
        self.slice_seconds = slice_seconds
        self.traced: list[tuple] = []
        self.untraced: list[tuple] = []
        self._open: Optional[tuple] = None

    def events(self, start: float, seconds: float) -> list[tuple[float, bool]]:
        if self.tracer is None:
            return []
        n = math.ceil(seconds / self.slice_seconds)
        out = [(start + i * self.slice_seconds, i % 2 == 1) for i in range(n)]
        out.append((start + seconds, False))
        return out

    def apply(self, on: bool) -> None:
        now = (time.perf_counter(), time.time())
        if self._open is not None:
            p0, w0, was_on = self._open
            (self.traced if was_on else self.untraced).append((p0, now[0], w0, now[1]))
        self.attach(self.tracer if on else NOOP_TRACER)
        self._open = (now[0], now[1], on)


def sample(rng: np.random.Generator, n: int, limit: int) -> list[int]:
    """Up to ``limit`` distinct positions of ``range(n)``, in order."""
    if n <= 0 or limit <= 0:
        return []
    return sorted(int(i) for i in rng.choice(n, size=min(n, limit), replace=False))


def max_abs(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return math.inf
    return float(np.max(np.abs(a - b)))


def settle(op: Op, deadline: float) -> None:
    """Wait for a service job and classify its outcome."""
    job = op.job
    try:
        op.result = job.result(timeout=max(0.0, deadline - time.perf_counter()))
        op.status = "ok"
    except DeadlineExceededError:
        op.status = "deadline"
    except TimeoutError:
        op.status = "error"
        op.error = "not settled within the drain window"
    except Exception as exc:  # a failed job is an outcome to count
        op.status = "error"
        op.error = repr(exc)
    op.finished = job.finished_at if job.finished_at is not None else time.perf_counter()


class Workload:
    """Seeded inputs, stack, traffic and checks of one named workload."""

    name = ""

    def __init__(self, spec: dict, seed: int) -> None:
        self.spec = spec
        self.cfg = spec["workloads"][self.name]
        self.seed = int(seed)
        self.k = int(spec["k"])
        self.d = int(self.cfg["d"])
        self.q = int(self.cfg["q"])
        self.w = self._rng(1).standard_normal(self.d)
        self._batches: dict[int, tuple] = {}
        self.x_train, self.y_train = self.training_set()

    # -- inputs --------------------------------------------------------
    def _rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def labelled(self, rng: np.random.Generator, n: int) -> tuple:
        """Gaussian points with binary labels from a noisy linear rule."""
        x = rng.standard_normal((n, self.d))
        y = (x @ self.w + 0.5 * rng.standard_normal(n) > 0).astype(np.int64)
        return x, y

    def training_set(self) -> tuple:
        return self.labelled(self._rng(0), int(self.cfg["n_train"]))

    def batch(self, i: int) -> tuple:
        """Query batch ``i`` (a pure function of the seed and ``i``)."""
        got = self._batches.get(i)
        if got is None:
            got = self._batches[i] = self.labelled(self._rng(2, i), self.q)
        return got

    def seller(self, j: int, stream: int = 3) -> tuple:
        """The points seller ``j`` brings to the market."""
        return self.labelled(self._rng(stream, j), int(self.spec["seller_points"]))

    def sample_batches(self, ops: list, n: int, stream: int) -> list[tuple]:
        """``n`` distinct query batches the traffic actually sent."""
        ids = sorted({op.batch for op in ops if op.kind == "value" and op.sent})
        return [self.batch(ids[i]) for i in sample(self._rng(stream), len(ids), n)]

    # -- stack -----------------------------------------------------------
    def build(self) -> Stack:
        raise NotImplementedError

    def warm(self, stack: Stack) -> None:
        """One untimed request per method, so lazy set-up is done."""
        raise NotImplementedError

    # -- traffic -----------------------------------------------------------
    def run(self, stack: Stack, seconds: float, slicer: TraceSlicer) -> Traffic:
        raise NotImplementedError

    def drive_open(
        self, ops: list, submit: Callable, seconds: float, slicer: TraceSlicer
    ) -> tuple:
        """Send ``ops`` at their due times from this one thread.

        Returns the measured window and the lateness of every measured
        send.  Latency counts from the due time, so a stalled sender
        shows up in the latency of everything it delayed.
        """
        warm = float(self.spec["warmup_seconds"])
        t0 = time.perf_counter() + 0.05
        events = [(t0 + op.due, 1, op) for op in ops]
        events += [(t, 0, on) for t, on in slicer.events(t0 + warm, seconds)]
        events.sort(key=lambda e: (e[0], e[1]))
        lags = []
        for due, kind, item in events:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            if kind == 0:
                slicer.apply(item)
                continue
            item.origin = due
            item.sent = time.perf_counter()
            if item.measured:
                lags.append(item.sent - due)
            submit(item)
        return (t0 + warm, t0 + warm + seconds), lags

    def settle_all(self, ops: list) -> None:
        deadline = time.perf_counter() + DRAIN_SECONDS
        for op in ops:
            if op.job is not None and op.status == "pending":
                settle(op, deadline)

    # -- mutations ---------------------------------------------------------
    def mutate(self, stack: Stack, kind: str, x=None, y=None, idx=None) -> tuple:
        """Apply one join or leave through the front door; ``(indices, s)``."""
        start = time.perf_counter()
        if stack.service is not None:
            if kind == "add":
                job = stack.service.submit_add(x, y)
            else:
                job = stack.service.submit_remove(idx)
            out = job.result(timeout=DRAIN_SECONDS)
            return out.indices, job.finished_at - start
        if kind == "add":
            got = stack.router.add_points(x, y)
        else:
            stack.router.remove_points(idx)
            got = idx
        return got, time.perf_counter() - start

    def mutation_probe(self, stack: Stack, pairs: int) -> tuple:
        """``pairs`` seller joins, each followed by the matching leave.

        Runs on the idle stack after the traffic.  Returns the latency
        of every operation and the number that misbehaved.
        """
        times, bad = [], 0
        n0 = stack.n_train
        for j in range(pairs):
            x, y = self.seller(j, stream=4)
            try:
                idx, s_add = self.mutate(stack, "add", x, y)
                _, s_remove = self.mutate(stack, "remove", idx=idx)
            except Exception:  # counted as a failed operation
                bad += 1
                continue
            times += [s_add, s_remove]
            want = np.arange(n0, n0 + x.shape[0])
            if not np.array_equal(idx, want) or stack.n_train != n0:
                bad += 1
        return times, bad

    # -- checks --------------------------------------------------------
    def check(self, traffic: Traffic) -> CheckReport:
        raise NotImplementedError

    def oracle(self, x_train, y_train, batch: int) -> np.ndarray:
        x, y = self.batch(batch)
        return exact_knn_shapley(Dataset(x_train, y_train, x, y), self.k).values


class MarketExact(Workload):
    """Buyers value a seller pool while sellers join and leave."""

    name = "market-exact"

    def training_set(self) -> tuple:
        x, y = super().training_set()
        n = x.shape[0]
        n_dup = int(round(float(self.cfg["duplicate_share"]) * n))
        pick = self._rng(5).permutation(n)[: 2 * n_dup]
        dst, src = pick[:n_dup], pick[n_dup:]
        # relisted seller data: exact copies, so every query sees ties
        x[dst] = x[src]
        y[dst] = y[src]
        return x, y

    def build(self) -> Stack:
        engine = ValuationEngine(self.x_train, self.y_train, self.k, backend="brute")
        service = ValuationService(engine, n_workers=2)
        return Stack(engine=engine, service=service)

    def warm(self, stack: Stack) -> None:
        x, y = self.batch(10**6)
        stack.service.submit_batch(x, y).result(timeout=DRAIN_SECONDS)
        stack.service.submit_batch(
            x, y, method="weighted", weights=self.cfg["weights"]
        ).result(timeout=DRAIN_SECONDS)

    def _deck(self, rng: np.random.Generator, size: int = 20) -> list:
        """Shuffled (weighted?, hot?) flags with the configured shares."""
        weighted = np.arange(size) < round(self.cfg["mix"]["weighted"] * size)
        hot = np.arange(size) < round(self.cfg["hot_share"] * size)
        return list(zip(rng.permutation(weighted), rng.permutation(hot)))

    def schedule(self, seconds: float) -> list:
        warm = float(self.spec["warmup_seconds"])
        horizon = warm + seconds
        rng = self._rng(6)
        # the arrival pattern is part of the workload's definition, the
        # same for every seed; the seed draws the data, batches and mix
        arrivals = np.random.default_rng(6)
        every = int(self.cfg["mutation_every"])
        ops, deck, t, n_mut = [], [], 0.0, 0
        while True:
            t += arrivals.exponential(1.0 / float(self.cfg["rate_rps"]))
            if t >= horizon:
                break
            i = len(ops)
            if (i + 1) % every == 0:
                n_mut += 1
                kind = "add" if n_mut % 2 else "remove"
                op = Op(i, kind, due=t, batch=(n_mut + 1) // 2, method=kind)
            else:
                if not deck:
                    deck = self._deck(rng)
                weighted, hot = deck.pop()
                batch = int(rng.integers(self.cfg["hot_batches"])) if hot else 1000 + i
                op = Op(i, "value", due=t, batch=batch)
                if weighted:
                    op.method = "weighted"
                    op.params = {"weights": self.cfg["weights"]}
                self.batch(batch)
            op.measured = warm <= t
            ops.append(op)
        return ops

    def run(self, stack: Stack, seconds: float, slicer: TraceSlicer) -> Traffic:
        ops = self.schedule(seconds)
        service = stack.service
        n, m = self.x_train.shape[0], int(self.spec["seller_points"])
        last_mutation: list = [None]
        depth = [0]

        def submit(op: Op) -> None:
            if op.kind == "value":
                x, y = self.batch(op.batch)
                op.job = service.submit_batch(x, y, method=op.method, **op.params)
            else:
                # joins and leaves apply in order: with two workers a
                # leave could otherwise overtake its join
                prev = last_mutation[0]
                if prev is not None:
                    try:
                        prev.job.result(timeout=DRAIN_SECONDS)
                    except Exception:  # settle_all classifies the failure
                        pass
                if op.kind == "add":
                    op.job = service.submit_add(*self.seller(op.batch))
                else:
                    op.job = service.submit_remove(np.arange(n, n + m))
                last_mutation[0] = op
            depth.append(service.resilience()["queue_depth"])

        window, lags = self.drive_open(ops, submit, seconds, slicer)
        self.settle_all(ops)
        return Traffic(ops, window, lags, loadgen_threads=1, queue_depth_max=max(depth))

    # the training set after m mutations: the base set, or the base set
    # plus the seller whose join was mutation m
    @staticmethod
    def _state_key(m: int) -> int:
        return 0 if m % 2 == 0 else (m + 1) // 2

    def _state(self, key: int) -> tuple:
        if key == 0:
            return self.x_train, self.y_train
        x, y = self.seller(key)
        return np.vstack((self.x_train, x)), np.concatenate((self.y_train, y))

    def check(self, traffic: Traffic) -> CheckReport:
        report = CheckReport()
        n, m = self.x_train.shape[0], int(self.spec["seller_points"])
        muts = [op for op in traffic.ops if op.kind != "value" and op.sent is not None]
        for op in muts:
            if op.status != "ok":
                continue
            res = op.result
            good = res.n_train == (n + m if op.kind == "add" else n)
            if op.kind == "add":
                good = good and np.array_equal(res.indices, np.arange(n, n + m))
            report.add(op, good, f"training set has {res.n_train} points")
        oracles: dict = {}
        engines: dict = {}

        def exact_ref(batch: int, key: int) -> np.ndarray:
            if (batch, key) not in oracles:
                oracles[batch, key] = self.oracle(*self._state(key), batch)
            return oracles[batch, key]

        def weighted_ref(batch: int, key: int) -> np.ndarray:
            if key not in engines:
                engines[key] = ValuationEngine(*self._state(key), self.k, cache=False, n_workers=1)
            x, y = self.batch(batch)
            return engines[key].value(
                x, y, method="weighted", weights=self.cfg["weights"]
            ).values

        rng = self._rng(7)
        answered = [
            op for op in traffic.ops
            if op.kind == "value" and op.measured and op.status == "ok"
        ]
        for method, limit, ref in (
            ("exact", self.cfg["check_exact"], exact_ref),
            ("weighted", self.cfg["check_weighted"], weighted_ref),
        ):
            pool = [op for op in answered if op.method == method]
            for j in sample(rng, len(pool), int(limit)):
                op = pool[j]
                # any state between the mutations applied before the
                # send and those sent before the answer could be seen
                lo = sum(1 for u in muts if u.finished is not None and u.finished < op.sent)
                hi = sum(1 for u in muts if u.sent < op.finished)
                keys = sorted({self._state_key(s) for s in range(lo, hi + 1)})
                err = min(max_abs(op.result.values, ref(op.batch, key)) for key in keys)
                report.add(op, err <= EXACT_TOL, f"off by {err:.3g} from every state it could see")
        return report


class ShardedAudit(Workload):
    """An auditor values a large corpus through a 4-shard router."""

    name = "sharded-audit"

    def __init__(self, spec: dict, seed: int) -> None:
        super().__init__(spec, seed)
        self._decks: dict[int, list] = {}

    def build(self) -> Stack:
        router = ShardRouter(
            self.x_train, self.y_train, self.k, n_shards=4, sharding="data",
            backend="brute", cache=False,
        )
        return Stack(router=router)

    def params(self, method: str, i: int) -> dict:
        cfg = self.cfg
        if method == "truncated":
            return {"epsilon": cfg["truncated_epsilon"]}
        if method == "weighted":
            return {"weights": cfg["weights"]}
        if method == "mc":
            return {"epsilon": cfg["mc_epsilon"], "delta": cfg["mc_delta"], "seed": i}
        return {}

    def warm(self, stack: Stack) -> None:
        x, y = self.batch(10**6)
        for method in self.cfg["mix"]:
            stack.router.value(x, y, method=method, **self.params(method, 0))

    def op_for(self, i: int) -> Op:
        """Operation ``i``: the mix holds exactly per deck of 10."""
        deck_no, pos = divmod(i, 10)
        deck = self._decks.get(deck_no)
        if deck is None:
            methods = [m for m, share in self.cfg["mix"].items() for _ in range(round(share * 10))]
            deck = self._decks[deck_no] = list(self._rng(6, deck_no).permutation(methods))
        method = str(deck[pos])
        return Op(i, "value", batch=1000 + i, method=method, params=self.params(method, i))

    def run(self, stack: Stack, seconds: float, slicer: TraceSlicer) -> Traffic:
        router = stack.router
        warm = float(self.spec["warmup_seconds"])
        counter, lock = itertools.count(), threading.Lock()
        ops: list = []
        gaps: list = []
        start = time.perf_counter()
        w0, w1 = start + warm, start + warm + seconds

        def client() -> None:
            prev_end = None
            while True:
                with lock:
                    op = self.op_for(next(counter))
                x, y = self.batch(op.batch)
                op.sent = op.origin = time.perf_counter()
                if op.sent >= w1:
                    return
                op.measured = op.sent >= w0
                if op.measured and prev_end is not None:
                    gaps.append(op.sent - prev_end)
                try:
                    op.result = router.value(x, y, method=op.method, **op.params)
                    op.status = "ok"
                except Exception as exc:  # counted as a failed request
                    op.status = "error"
                    op.error = repr(exc)
                op.finished = prev_end = time.perf_counter()
                ops.append(op)

        threads = [
            threading.Thread(target=client, name=f"loadgen-{c}", daemon=True)
            for c in range(int(self.cfg["clients"]))
        ]
        for t in threads:
            t.start()
        for when, on in slicer.events(w0, seconds):
            delay = when - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            slicer.apply(on)
        for t in threads:
            t.join(timeout=seconds + warm + DRAIN_SECONDS)
        if any(t.is_alive() for t in threads):
            raise RuntimeError("a load-generator client did not finish")
        ops.sort(key=lambda o: o.index)
        return Traffic(ops, (w0, w1), gaps, loadgen_threads=len(threads))

    def check(self, traffic: Traffic) -> CheckReport:
        report = CheckReport()
        ref = ValuationEngine(self.x_train, self.y_train, self.k, cache=False, n_workers=1)
        exact: dict = {}

        def exact_values(batch: int) -> np.ndarray:
            if batch not in exact:
                exact[batch] = ref.value(*self.batch(batch)).values
            return exact[batch]

        answered = [op for op in traffic.ops if op.measured and op.status == "ok"]
        # the single engine is the reference below; hold it to the oracle
        for op in answered[: int(self.cfg["oracle_spot_checks"])]:
            err = max_abs(exact_values(op.batch), self.oracle(self.x_train, self.y_train, op.batch))
            if err > EXACT_TOL:
                report.wrong.append(f"reference engine off by {err:.3g} from exact_knn_shapley")
        rng = self._rng(7)
        for method, limit in self.cfg["check_per_method"].items():
            pool = [op for op in answered if op.method == method]
            for j in sample(rng, len(pool), int(limit)):
                op = pool[j]
                if method == "mc":
                    eps = float(op.result.extra["certificate"]["epsilon"])
                    err = max_abs(op.result.values, exact_values(op.batch))
                    report.certificate(err <= eps + EXACT_TOL)
                    report.add(op, err <= eps + EXACT_TOL, f"error {err:.3g} over its epsilon {eps}")
                    continue
                if method == "exact":
                    want = exact_values(op.batch)
                else:
                    want = ref.value(*self.batch(op.batch), method=method, **op.params).values
                err = max_abs(op.result.values, want)
                report.add(op, err <= EXACT_TOL, f"off by {err:.3g} from one engine")
        return report


class OverloadBurst(Workload):
    """Buyer bursts overrun capacity; the ladder and shedding respond."""

    name = "overload-burst"

    def build(self) -> Stack:
        engine = ValuationEngine(
            self.x_train, self.y_train, self.k, backend="brute", cache=False
        )
        controller = DegradationController()
        service = ValuationService(
            engine, n_workers=2, max_queue=32, admission="shed", degradation=controller
        )
        return Stack(engine=engine, service=service, controller=controller)

    def warm(self, stack: Stack) -> None:
        # straight to the engine: the controller's latency averages
        # should only ever see served traffic
        x, y = self.batch(10**6)
        for rung in stack.controller.ladder:
            stack.engine.value(
                x, y, method=rung.method, epsilon=rung.epsilon or 0.1,
                delta=rung.delta or 0.05, seed=0,
            )

    def schedule(self, seconds: float) -> list:
        warm = float(self.spec["warmup_seconds"])
        horizon = warm + seconds
        period = float(self.cfg["burst_period_ms"]) / 1e3
        ops = []
        for b in itertools.count():
            t = b * period
            if t >= horizon:
                break
            for _ in range(int(self.cfg["burst_size"])):
                i = len(ops)
                op = Op(i, "value", due=t, batch=1000 + i, measured=warm <= t)
                self.batch(op.batch)
                ops.append(op)
        return ops

    def run(self, stack: Stack, seconds: float, slicer: TraceSlicer) -> Traffic:
        ops = self.schedule(seconds)
        service = stack.service
        deadline_ms = float(self.cfg["deadline_ms"])
        depth = [0]

        def submit(op: Op) -> None:
            x, y = self.batch(op.batch)
            try:
                op.job = service.submit_batch(x, y, deadline_ms=deadline_ms)
            except AdmissionRejectedError:
                op.status = "shed"
                op.finished = time.perf_counter()
            depth.append(service.resilience()["queue_depth"])

        window, lags = self.drive_open(ops, submit, seconds, slicer)
        self.settle_all(ops)
        return Traffic(ops, window, lags, loadgen_threads=1, queue_depth_max=max(depth))

    def check(self, traffic: Traffic) -> CheckReport:
        report = CheckReport()
        by_rung: dict[str, list] = {}
        for op in traffic.ops:
            if op.measured and op.status == "ok":
                rung = op.result.extra.get("degraded", {}).get("rung", "exact")
                by_rung.setdefault(rung, []).append(op)
        rng = self._rng(7)
        for rung, pool in sorted(by_rung.items()):
            for j in sample(rng, len(pool), int(self.cfg["check_per_rung"])):
                op = pool[j]
                err = max_abs(op.result.values, self.oracle(self.x_train, self.y_train, op.batch))
                if rung == "exact":
                    report.add(op, err <= EXACT_TOL, f"off by {err:.3g} from exact_knn_shapley")
                    continue
                eps = float(op.result.extra["degraded"]["certificate"]["epsilon"])
                report.certificate(err <= eps + EXACT_TOL)
                report.add(op, err <= eps + EXACT_TOL, f"{rung} error {err:.3g} over its epsilon {eps}")
        return report


WORKLOADS = {cls.name: cls for cls in (MarketExact, ShardedAudit, OverloadBurst)}
