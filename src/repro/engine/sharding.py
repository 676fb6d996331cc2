"""Sharded multi-engine valuation: scale *out*, not just up.

:class:`ShardRouter` puts a coordinator in front of N
:class:`~repro.engine.engine.ValuationEngine` instances and serves the
same surface as one engine, so an unmodified
:class:`~repro.engine.service.ValuationService` (or any caller of
``value``/``add_points``/``remove_points``) can front a fleet.

The training set is partitioned across shards.  Shapley values
themselves are **not** additive across training-set partitions (valuing
a slice is a different game), so the router shards *retrieval*
instead: each shard ranks (or top-k queries) its slice, the coordinator
merges the per-shard sorted results exactly — the merge key is
``(test row, distance, global index)``, matching the single engine's
distance-then-index tie-break bit for bit — and runs the valuation
kernel once over the merged :class:`~repro.core.kernels.RankPlan`.  The
result is identical to a single engine holding the full set
(<= 1e-12), while the O(n log n) retrieval work fans out across shards.
Splitting the *test batch* (eq 8: the batch value is the mean of
per-test values) is the engine's job: its chunks run on ``n_workers``
threads.

Robustness is part of the contract: each fan-out leg has a configurable
timeout (a timed-out leg is hedged), raised shard errors retry with
jittered exponential backoff, a per-shard circuit breaker stops
hammering a failing shard, and a failed shard either fails the request
(``on_shard_error="fail"``) or degrades it (``"partial"``) — the
surviving shards' exact answer is returned with the missing
contribution bounded and recorded in ``ValuationResult.extra["degraded"]``.
Each request is resolved once into a
:class:`~repro.engine.plan.RequestPlan` before any fan-out, so a
malformed request never counts against a shard.

Observability threads through the existing layers: one
:class:`~repro.monitor.telemetry.TelemetryHub` aggregates every shard
via ``hub.labeled("shard<i>")`` views, and a traced request produces a
single trace tree — ``router.request`` at the root with one
``shard.request`` child per fan-out leg (each nesting its shard
engine's own spans).  Mutations route to the owning shard under the
router's reader-writer lock, keeping the placement map and the global
index space (``numpy.delete`` semantics) consistent with a single
engine's.
"""

from __future__ import annotations

import random
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..exceptions import DeadlineExceededError, ParameterError, ShardError
from ..monitor.tracing import NOOP_TRACER
from ..stats import component_stats
from ..types import (
    ValuationResult,
    as_float_matrix,
    as_label_vector,
    as_new_points,
    as_removal_indices,
    is_integer,
)
from .engine import ValuationEngine, _RWLock, chunk_spans
from .plan import RequestPlan, _Budget, as_query_batch, plan_request

__all__ = ["Shard", "ShardRouter"]


@dataclass
class Shard:
    """One member of the fleet: a label and the engine behind it."""

    label: str
    engine: ValuationEngine


class _Breaker:
    """Per-shard circuit breaker: closed → open → half-open → closed.

    ``threshold`` consecutive failed requests open the circuit; while
    open, :meth:`allow` rejects without touching the shard.  After
    ``cooldown`` seconds the breaker goes half-open and admits exactly
    one probe; the probe's outcome closes the circuit (success) or
    re-opens it for another cooldown (failure).  The clock is
    injectable so tests and the fault harness can drive the lifecycle
    without sleeping.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold <= 0:
            raise ParameterError(
                f"breaker threshold must be positive, got {threshold}"
            )
        if cooldown <= 0:
            raise ParameterError(
                f"breaker cooldown must be positive, got {cooldown}"
            )
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self.clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half-open"``."""
        with self._lock:
            return self._state_locked()

    def allow(self) -> bool:
        """Whether a request may reach the shard right now."""
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "open":
                return False
            if self._probing:  # half-open admits one probe at a time
                return False
            self._probing = True
            return True

    def record(self, ok: bool) -> None:
        """Feed one request outcome into the breaker."""
        with self._lock:
            self._probing = False
            if ok:
                self._failures = 0
                self._opened_at = None
                return
            self._failures += 1
            if self._failures >= self.threshold or self._opened_at is not None:
                self._opened_at = self.clock()

    def release(self) -> None:
        """Hand back an admitted probe whose outcome says nothing of the shard."""
        with self._lock:
            self._probing = False


def _as_rectangle(rows, dist) -> tuple[np.ndarray, np.ndarray]:
    """One shard's neighbor rows as a rectangle; ragged rows are padded
    with local index 0 at ``+inf`` distance."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        return rows, dist
    lengths = np.array([len(r) for r in rows], dtype=np.intp)
    real = np.arange(lengths.max()) < lengths[:, None]
    local = np.zeros(real.shape, dtype=np.intp)
    padded = np.full(real.shape, np.inf)
    local[real] = np.concatenate(rows)
    padded[real] = np.concatenate(dist)
    return local, padded


class ShardRouter:
    """Fan a valuation request across shard engines and merge exactly.

    Serves the same duck-typed surface as a
    :class:`~repro.engine.engine.ValuationEngine` (``value``, ``run``,
    ``add_points``, ``remove_points``, ``n_train``, ``stats``), so a
    :class:`~repro.engine.service.ValuationService` can front a router
    unchanged.

    Args:
        x_train, y_train: The full training set being valued.
        k: The K of KNN.
        n_shards: Fleet size (>= 1).
        sharding: ``"data"``, the only layout: the training set is
            partitioned and retrieval merged exactly.  To split a test
            batch instead, use one engine with ``n_workers``.
        task: ``"classification"`` or ``"regression"``.
        metric: Distance metric, forwarded to every shard engine;
            ``None`` (default) adopts the backend's, and the router
            reports the metric its shard engines resolved.
        backend: Backend name forwarded to every shard engine
            (``"brute"``, ``"blocked"``, ``"lsh"``).
        backend_options: Keyword arguments for each shard's backend
            factory.
        hub: Optional :class:`~repro.monitor.telemetry.TelemetryHub`;
            shard ``i`` publishes through ``hub.labeled("shard<i>")``
            and the router's own streams go in unprefixed, so one hub
            describes the whole fleet.
        tracer: Optional tracer shared by the router and every shard.
        shard_timeout: Seconds one fan-out leg may take before the
            shard is declared failed for this request (``None`` waits
            forever).  A timed-out leg is *hedged* once (see
            ``hedge``) rather than retried in place — a stalled shard
            would stall an in-place retry too.
        on_shard_error: ``"fail"`` (default) raises
            :class:`~repro.exceptions.ShardError` when a shard is
            still failed after the retry; ``"partial"`` serves the
            surviving shards' result with the loss bounded and
            recorded in ``extra["degraded"]``.
        cache: Forwarded to every shard engine (see
            :class:`~repro.engine.engine.ValuationEngine`).
        engine_options: Extra keyword arguments for every shard
            engine (``n_workers``, ``chunk_size``, ...).
        max_retries: Retries per fan-out leg for *raised* shard
            errors, with exponential backoff and jitter between
            attempts.
        backoff_base: First-retry backoff in seconds; attempt ``a``
            waits ``backoff_base * 2**(a-1)``, jittered.
        backoff_jitter: Uniform jitter fraction added to each backoff
            (0 disables; 0.5 means up to +50%), decorrelating retry
            storms across concurrent requests.
        hedge: Whether a timed-out leg submits a duplicate (hedged)
            leg and races both — the classic tail-latency cure for a
            transiently slow shard.  The pool is sized ``2 *
            n_shards`` so hedges never queue behind primaries.
        breaker_threshold: Consecutive leg failures that open a
            shard's circuit breaker.
        breaker_cooldown: Seconds an open circuit rejects instantly
            before going half-open (single probe).
        breaker_clock: Injectable monotonic clock for the breakers
            (tests / fault harness).

    Raises:
        ParameterError: On an invalid fleet shape, sharding mode, or
            error policy, or when ``n_shards`` exceeds the training
            set size.
    """

    def __init__(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        k: int,
        n_shards: int = 2,
        sharding: str = "data",
        task: str = "classification",
        metric: Optional[str] = None,
        backend: str = "brute",
        backend_options: Optional[dict] = None,
        hub=None,
        tracer=None,
        shard_timeout: Optional[float] = None,
        on_shard_error: str = "fail",
        cache=True,
        engine_options: Optional[dict] = None,
        max_retries: int = 1,
        backoff_base: float = 0.05,
        backoff_jitter: float = 0.5,
        hedge: bool = True,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 30.0,
        breaker_clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if n_shards <= 0:
            raise ParameterError(f"n_shards must be positive, got {n_shards}")
        if max_retries < 0:
            raise ParameterError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        if backoff_base < 0 or backoff_jitter < 0:
            raise ParameterError(
                "backoff_base and backoff_jitter must be non-negative"
            )
        if sharding != "data":
            raise ParameterError(
                f"sharding must be 'data', got {sharding!r}; to split the "
                f"test batch, use one ValuationEngine with n_workers"
            )
        if on_shard_error not in ("fail", "partial"):
            raise ParameterError(
                f"on_shard_error must be 'fail' or 'partial', got "
                f"{on_shard_error!r}"
            )
        if shard_timeout is not None and not shard_timeout > 0:  # NaN too
            raise ParameterError(
                f"shard_timeout must be positive, got {shard_timeout}"
            )
        x_train = as_float_matrix(x_train, "x_train")
        y_train = as_label_vector(y_train, x_train.shape[0], "y_train")
        n = x_train.shape[0]
        if n_shards > n:
            raise ParameterError(
                f"cannot data-shard {n} training points across "
                f"{n_shards} shards"
            )
        self.k = int(k)
        self.task = task
        self.sharding = sharding
        self.n_shards = int(n_shards)
        self.shard_timeout = shard_timeout
        self.on_shard_error = on_shard_error
        self.max_retries = int(max_retries)
        self.backoff_base = float(backoff_base)
        self.backoff_jitter = float(backoff_jitter)
        self.hedge = bool(hedge)
        self.telemetry = None
        self.tracer = NOOP_TRACER
        self._breakers = [
            _Breaker(
                threshold=breaker_threshold,
                cooldown=breaker_cooldown,
                clock=breaker_clock,
            )
            for _ in range(self.n_shards)
        ]
        options = dict(engine_options or {})
        options.setdefault("cache", cache)

        def build(x, y) -> ValuationEngine:
            return ValuationEngine(
                x,
                y,
                k,
                task=task,
                metric=metric,
                backend=backend,
                backend_options=dict(backend_options or {}),
                **options,
            )

        self.shards: list[Shard] = []
        #: per-shard arrays of *global* training positions; strictly
        #: ascending (initial split is contiguous, appends receive new
        #: max positions, deletes preserve order), so a shard's local
        #: index order equals the global order within the shard
        self._placement: list[np.ndarray] = []
        splits = np.array_split(np.arange(n, dtype=np.intp), n_shards)
        for i, part in enumerate(splits):
            # contiguous parts: each shard aliases a row slice, no copy
            rows = slice(int(part[0]), int(part[-1]) + 1)
            self.shards.append(
                Shard(f"shard{i}", build(x_train[rows], y_train[rows]))
            )
            self._placement.append(part.copy())
        self.metric = self.shards[0].engine.metric
        self._y = y_train.copy()
        self._n_total = n
        self._n_features = int(x_train.shape[1])
        self._lock = _RWLock()
        self._ops_lock = threading.Lock()
        self._ops = {
            "requests": 0,
            "degraded_requests": 0,
            "shard_errors": 0,
            "shard_timeouts": 0,
            "retries": 0,
            "mutations": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "circuit_open_rejections": 0,
            "deadline_exceeded": 0,
        }
        self._timings = {
            "request_seconds": 0.0,
            "merge_seconds": 0.0,
            "last_request_seconds": 0.0,
        }
        # 2x so hedged legs never queue behind the primaries
        self._pool = ThreadPoolExecutor(
            max_workers=2 * self.n_shards, thread_name_prefix="shard-router"
        )
        self._closed = False
        if hub is not None:
            self.attach_telemetry(hub)
        if tracer is not None:
            self.attach_tracer(tracer)

    # ------------------------------------------------------------------
    @property
    def n_train(self) -> int:
        """Global number of training points across the fleet."""
        return self._n_total

    @property
    def n_features(self) -> int:
        """Feature width of the training set."""
        return self._n_features

    @property
    def ready(self) -> bool:
        """Whether the router still serves (``False`` after :meth:`close`).

        The readiness probe behind the observability server's
        ``/ready`` endpoint.
        """
        return not self._closed

    def resilience(self) -> dict:
        """Circuit-breaker posture, for the readiness probe.

        Returns ``{"breakers": {label: state}, "open_circuits":
        [labels], "any_open": bool}``; a half-open breaker is not
        listed as open — it is already probing its way back.
        """
        states = {
            shard.label: breaker.state
            for shard, breaker in zip(self.shards, self._breakers)
        }
        open_circuits = [
            label for label, state in states.items() if state == "open"
        ]
        return {
            "breakers": states,
            "open_circuits": open_circuits,
            "any_open": bool(open_circuits),
        }

    def attach_telemetry(self, hub) -> "ShardRouter":
        """Aggregate the whole fleet into one hub; returns ``self``.

        Shard ``i`` gets the ``hub.labeled("shard<i>")`` view (its
        streams arrive as ``shard<i>.engine.*``, ``shard<i>.backend.*``
        etc.), the router publishes its own ``router.*`` streams
        unprefixed.
        """
        self.telemetry = hub
        for shard in self.shards:
            shard.engine.attach_telemetry(hub.labeled(shard.label))
        return self

    def attach_tracer(self, tracer) -> "ShardRouter":
        """Trace router and shard engines through ``tracer``; returns ``self``.

        A traced request then yields one tree: ``router.request`` at
        the root, one ``shard.request`` child per fan-out leg, each
        nesting the shard engine's own retrieval/valuation spans.  The
        finished tree lands in ``ValuationResult.extra["trace"]``.
        """
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        for shard in self.shards:
            shard.engine.attach_tracer(self.tracer)
        return self

    # ------------------------------------------------------------------
    def value(
        self,
        x_test: np.ndarray,
        y_test: np.ndarray,
        method: str = "exact",
        epsilon: float = 0.1,
        store_per_test: bool = False,
        weights: str = "inverse_distance",
        mode: str = "auto",
        deadline_s: Optional[float] = None,
        delta: float = 0.05,
        n_permutations: Optional[int] = None,
        seed: Optional[int] = None,
    ) -> ValuationResult:
        """Shapley values for one test batch, served by the fleet.

        Same contract (and, for exact-search backends, bit-matched
        values <= 1e-12) as
        :meth:`repro.engine.engine.ValuationEngine.value` over the
        same training set.

        Args:
            x_test, y_test, method, epsilon, store_per_test, weights,
            mode, delta, n_permutations, seed: As for the engine;
                ``method="mc"`` fans out raw distances.
            deadline_s: Optional total budget in seconds.  Each
                fan-out leg's wait is capped by what is left, and the
                request raises
                :class:`~repro.exceptions.DeadlineExceededError` when
                the budget is spent, also when the merged answer is
                ready only after it; every such miss counts once in
                ``stats()["counters"]["deadline_exceeded"]``.

        Returns:
            A :class:`~repro.types.ValuationResult`; when shards were
            lost under the ``"partial"`` policy,
            ``extra["degraded"]`` records which, why, and the bound on
            the missing contribution.

        Raises:
            ParameterError: On an empty batch, an unknown method, a
                mismatched feature count, or a capability violation
                (e.g. regression via a classification-only kernel).
            ShardError: When the router is closed, a shard stays failed
                under the ``"fail"`` policy, or no shard survives under
                ``"partial"``.
            DeadlineExceededError: When ``deadline_s`` runs out
                mid-request.
        """
        if not self.ready:
            raise ShardError("the router is closed")
        x_test, y_test = as_query_batch(x_test, y_test)
        if x_test.shape[1] != self._n_features:
            raise ParameterError(
                f"x_test has {x_test.shape[1]} features, expected "
                f"{self._n_features}"
            )
        start = time.perf_counter()
        try:
            budget = _Budget.admit(deadline_s)
            with self._lock.read():
                with self.tracer.span(
                    "router.request",
                    method=method,
                    sharding=self.sharding,
                    n_shards=self.n_shards,
                    n_test=int(x_test.shape[0]),
                    n_train=self.n_train,
                ) as root:
                    # resolved before any fan-out: a malformed request is
                    # the caller's fault and must never count against a shard
                    plan = plan_request(
                        method, task=self.task, k=self.k, n_train=self.n_train,
                        epsilon=epsilon, weights=weights, mode=mode,
                        delta=delta, n_permutations=n_permutations,
                    )
                    for shard in self.shards:
                        shard.engine._check_backend(plan)
                    plan.annotate(root)
                    result = self._value_data_sharded(
                        plan, x_test, y_test, store_per_test, seed, root, budget
                    )
                if root:
                    result.extra["trace"] = root.summary()
        except DeadlineExceededError:
            self._count(deadline_exceeded=1)
            raise
        elapsed = time.perf_counter() - start
        degraded = "degraded" in result.extra
        with self._ops_lock:
            self._ops["requests"] += 1
            if degraded:
                self._ops["degraded_requests"] += 1
            self._timings["request_seconds"] += elapsed
            self._timings["last_request_seconds"] = elapsed
        hub = self.telemetry
        if hub is not None:
            hub.record("router.request_seconds", elapsed)
            if degraded:
                hub.count("router.degraded_requests")
        return result

    def run(self, *args, **kwargs) -> ValuationResult:
        """Alias of :meth:`value` (the serving-layer verb)."""
        return self.value(*args, **kwargs)

    # ------------------------------------------------------------------
    # fan-out machinery
    def _shard_call(self, idx: int, fn, root, **attrs):
        shard = self.shards[idx]
        with self.tracer.span(
            "shard.request", parent=root, shard=shard.label, **attrs
        ):
            return fn(idx, shard)

    def _finish_leg(
        self, i: int, fn, primary, root, budget, attrs: dict, counts: dict
    ) -> tuple[str, object]:
        """Drive one fan-out leg to an outcome.

        ``primary`` is the already-submitted future.  Timeouts hedge
        (submit a duplicate leg and race both); raised errors retry
        with exponential backoff + jitter up to ``max_retries``.
        Returns ``("ok", result)``, ``("fail", reason)``, or
        ``("deadline", reason)`` — deadline exhaustion, including a
        wait cut short by the request's budget rather than the shard's
        own timeout, is the *request's* fault, so it must not trip the
        shard's breaker.
        """
        pending = {primary}
        hedged = False
        attempts = 0
        reasons: list[str] = []
        while True:
            # the shard's window, capped by what the request has left
            timeout = self.shard_timeout
            left = None if budget is None else budget.remaining()
            capped = left is not None and (timeout is None or left <= timeout)
            if capped:
                if left <= 0:
                    return "deadline", "deadline exhausted mid fan-out"
                timeout = left
            done, pending = wait(
                pending, timeout=timeout, return_when=FIRST_COMPLETED
            )
            if not done:
                if capped:
                    return "deadline", "deadline exhausted mid fan-out"
                # every outstanding leg is past the shard's window
                if self.hedge and not hedged:
                    hedged = True
                    counts["hedges"] += 1
                    pending = set(pending)
                    pending.add(
                        self._pool.submit(
                            self._shard_call, i, fn, root, hedge=1, **attrs
                        )
                    )
                    continue
                counts["shard_timeouts"] += 1
                label = " (hedged)" if hedged else ""
                return "fail", f"timeout after {self.shard_timeout}s{label}"
            exc: Optional[BaseException] = None
            for f in done:
                if f.exception() is None:
                    if hedged and f is not primary:
                        counts["hedge_wins"] += 1
                    return "ok", f.result()
                exc = f.exception()
            if pending:
                # a raced leg is still in flight; let it finish the race
                continue
            reasons.append(repr(exc))
            if attempts >= self.max_retries:
                return "fail", "; ".join(reasons)
            attempts += 1
            counts["retries"] += 1
            delay = self.backoff_base * (2 ** (attempts - 1))
            if self.backoff_jitter:
                delay *= 1.0 + self.backoff_jitter * random.random()
            if budget is not None:
                delay = min(delay, max(0.0, budget.remaining()))
            if delay > 0:
                time.sleep(delay)
            primary = self._pool.submit(
                self._shard_call, i, fn, root, retry=attempts, **attrs
            )
            pending = {primary}
            hedged = False

    def _fan_out(self, fn, failed: dict, root, budget=None, **attrs) -> dict:
        """Run ``fn(i, shard)`` on every live shard; returns ``{i: result}``.

        Per leg: the shard's circuit breaker is consulted first (an
        open circuit fails the shard for this request without
        touching it), raised errors retry with exponential backoff +
        jitter, timed-out legs race a hedged duplicate, and every
        final outcome feeds the breaker (a deadline outcome only hands
        back a half-open probe).  Failures land in ``failed``
        as ``{shard index: reason}`` and the shard is skipped by
        later rounds of the same request.  Under the ``"fail"``
        policy any failure raises; under ``"partial"`` the surviving
        results are returned (raising only when none survive is the
        caller's job — it knows whether an empty round is fatal).
        Deadline exhaustion raises
        :class:`~repro.exceptions.DeadlineExceededError` under either
        policy — a request whose budget is gone has no useful partial
        to serve — and is checked before any breaker admits a probe.
        """
        if budget is not None:
            budget.check("before shard fan-out")
        counts = dict.fromkeys(
            (
                "shard_errors", "shard_timeouts", "retries", "hedges",
                "hedge_wins", "circuit_open_rejections",
            ),
            0,
        )
        live = []
        for i in range(self.n_shards):
            if i in failed:
                continue
            if not self._breakers[i].allow():
                failed[i] = "circuit open"
                counts["circuit_open_rejections"] += 1
                continue
            live.append(i)
        # all primaries launch before any leg is awaited, so legs run
        # concurrently and the collection wait is max, not sum
        primaries = {
            i: self._pool.submit(self._shard_call, i, fn, root, **attrs)
            for i in live
        }
        out: dict = {}
        deadline_reason = None
        for i in live:
            status, payload = self._finish_leg(
                i, fn, primaries[i], root, budget, attrs, counts
            )
            if status == "ok":
                out[i] = payload
                self._breakers[i].record(True)
            elif status == "fail":
                failed[i] = payload
                counts["shard_errors"] += 1
                self._breakers[i].record(False)
            else:  # deadline — the request dies, no failure is counted
                failed[i] = payload
                deadline_reason = payload
                self._breakers[i].release()
        if any(counts.values()):
            self._count(**counts)
        if deadline_reason is not None:
            raise DeadlineExceededError(
                f"request deadline spent during shard fan-out: "
                f"{deadline_reason}",
                deadline_s=budget.deadline_s,
                elapsed_s=budget.elapsed(),
            )
        lost = counts["shard_errors"] + counts["circuit_open_rejections"]
        if lost and self.on_shard_error == "fail":
            reasons = self._reasons(failed)
            raise ShardError(
                f"{len(failed)} shard(s) failed: {reasons}", reasons=reasons
            )
        return out

    def _survivors(self, failed: dict) -> Optional[np.ndarray]:
        """Global positions still served; ``None`` while none is lost.

        Raises:
            ShardError: If no shard survives.
        """
        if not failed:
            return None
        alive = [p for i, p in enumerate(self._placement) if i not in failed]
        if not alive:
            raise ShardError(
                "no shard survived the request", reasons=self._reasons(failed)
            )
        return np.sort(np.concatenate(alive))

    def _reasons(self, failed: dict) -> dict:
        """``{shard label: failure reason}`` for the failed shards."""
        return {self.shards[i].label: r for i, r in failed.items()}

    # ------------------------------------------------------------------
    def _value_data_sharded(
        self,
        plan: RequestPlan,
        x_test: np.ndarray,
        y_test: np.ndarray,
        store_per_test: bool,
        seed: Optional[int],
        root,
        budget=None,
    ) -> ValuationResult:
        """Data-sharded execution: fan retrieval out, merge, run the plan once.

        :meth:`~repro.engine.plan.RequestPlan.run_chunks` runs the
        chunks in order over this fetch: every live shard retrieves
        the plan's kind for its slice and the coordinator merges the
        slices exactly (:meth:`_merge`).  Chunks run in order because
        a shard lost in one chunk stays lost for the request.  The
        Monte Carlo budget is sized against the *full* training set,
        so its certificate holds for any surviving subgame under the
        ``"partial"`` policy (Theorem 5's budget grows with N).
        """
        n = self.n_train
        hub = self.telemetry
        path = plan.extra.get("weighted_path")
        if path is not None and hub is not None:
            hub.count(f"router.weighted_path.{path}")
        failed: dict = {}
        merge_seconds = 0.0

        def fetch(s: int, e: int, _at):
            nonlocal merge_seconds
            per_shard = self._fan_out(
                self._retrieve_leg(plan, x_test[s:e]),
                failed,
                root,
                budget=budget,
                start=s,
                stop=e,
            )
            positions = self._survivors(failed)
            with self.tracer.span(
                "router.merge", parent=root, start=s, stop=e
            ):
                merge_start = time.perf_counter()
                retrieved = self._merge(plan, per_shard, positions)
                merge_seconds += time.perf_counter() - merge_start
            return retrieved, positions

        # the engine's working-set heuristic, against the *global* n:
        # the merged (q, n) rank matrix lives at the coordinator
        spans = chunk_spans(x_test.shape[0], n)
        values, per_test, _ = plan.run_chunks(
            fetch, spans, self._y, y_test, store_per_test,
            seed=seed, budget=budget, tracer=self.tracer, parent=root,
        )
        self._record_merge(merge_seconds, len(spans))
        extra = self._result_extra(plan, len(spans))
        if store_per_test:
            extra["per_test"] = per_test
        if failed:
            reasons = self._reasons(failed)
            missing = sum(self._placement[i].shape[0] for i in failed)
            extra["degraded"] = {
                "policy": self.on_shard_error,
                "shards": sorted(reasons),
                "reasons": reasons,
                "bound": None,
                "semantics": "exact-subgame-over-surviving-shards",
                "missing_points": int(missing),
                "missing_fraction": missing / n,
            }
        return ValuationResult(values=values, method=plan.out_method, extra=extra)

    @staticmethod
    def _retrieve_leg(plan: RequestPlan, chunk: np.ndarray):
        """One fan-out leg's retrieval call for ``plan.retrieval``."""
        if plan.retrieval == "full":
            return lambda _i, sh: sh.engine.retrieve(chunk)
        if plan.retrieval == "topk":
            return lambda _i, sh: sh.engine.retrieve(chunk, k=plan.k_eff)
        return lambda _i, sh: sh.engine.distances(chunk)

    # ------------------------------------------------------------------
    # the exact cross-shard merge
    def _merge(
        self, plan: RequestPlan, per_shard: dict, positions: Optional[np.ndarray]
    ):
        """Merge one chunk's per-shard retrievals into the plan's kind.

        Raw distance columns go back in ascending global-position order.
        Neighbor rows — full rankings, top-k rows, or ragged rows padded
        with ``+inf`` — map to global positions and take one flattened
        ``lexsort`` on ``(row, distance, global index)``: the single
        engine's distance-then-index order, even across the
        non-contiguous placements mutations leave.  Top-k rows keep at
        most ``k_eff`` real entries.  ``positions`` (lost shards)
        compacts global positions to index ``self._y[positions]``.
        """
        items = sorted(per_shard.items())
        if plan.retrieval == "distances":
            gidx = np.concatenate([self._placement[i] for i, _ in items])
            dist = np.concatenate([d for _, d in items], axis=1)
            return dist[:, np.argsort(gidx)]
        items = [(i, *_as_rectangle(*res)) for i, res in items]
        gidx = np.concatenate(
            [self._placement[i][local] for i, local, _ in items], axis=1
        )
        dist = np.concatenate([d for _, _, d in items], axis=1)
        q, m = dist.shape
        rows = np.repeat(np.arange(q), m)
        flat = np.lexsort((gidx.ravel(), dist.ravel(), rows))
        order = gidx.ravel()[flat].reshape(q, m)
        if plan.retrieval == "full":
            dist = dist.ravel()[flat].reshape(q, m)
        if positions is not None:
            order = np.searchsorted(positions, order)
        if plan.retrieval == "full":
            return order, dist
        keep = np.minimum(np.isfinite(dist).sum(axis=1), plan.k_eff)
        return [row[:c] for row, c in zip(order, keep)]

    # ------------------------------------------------------------------
    def _record_merge(self, merge_seconds: float, n_chunks: int) -> None:
        with self._ops_lock:
            self._timings["merge_seconds"] += merge_seconds
        hub = self.telemetry
        if hub is not None:
            hub.record("router.merge_seconds", merge_seconds)
            hub.record("router.chunks", n_chunks)

    def _result_extra(self, plan: RequestPlan, n_chunks: int) -> dict:
        return {
            "k": self.k,
            "metric": self.metric,
            "backend": self.shards[0].engine.backend.name,
            **plan.extra,
            "sharding": self.sharding,
            "n_shards": self.n_shards,
            "n_chunks": n_chunks,
            "shards": [s.label for s in self.shards],
        }

    # ------------------------------------------------------------------
    # dynamic datasets: global-index mutations routed to owning shards
    def add_points(
        self, x_new: np.ndarray, y_new: np.ndarray, shard: Optional[int] = None
    ) -> np.ndarray:
        """Append training points; returns the global indices they received.

        The batch goes to one shard (``shard``, or the currently
        smallest).  Runs under the router's writer lock — and each
        engine's own writer lock — so no in-flight valuation observes a
        half-applied placement.

        Args:
            x_new, y_new: Points and labels joining the training set.
            shard: Optional explicit owning shard index.

        Returns:
            The global indices assigned, ``arange(n_before, n_after)``
            — identical to a single engine's.

        Raises:
            ParameterError: On shape mismatch, or a shard index that is
                not an integer in range (a boolean is refused too).
        """
        if shard is not None and not (
            is_integer(shard) and 0 <= shard < self.n_shards
        ):
            raise ParameterError(
                f"shard must be an integer index in [0, {self.n_shards}), "
                f"got {shard!r}"
            )
        with self._lock.write():
            x_new, y_new = as_new_points(x_new, y_new, self._n_features)
            m = x_new.shape[0]
            first = self._n_total
            with self.tracer.span(
                "router.mutate", kind="add", n_points=m
            ):
                if shard is None:
                    sizes = [p.shape[0] for p in self._placement]
                    shard = int(np.argmin(sizes))
                self.shards[shard].engine.add_points(x_new, y_new)
                self._placement[shard] = np.concatenate(
                    (
                        self._placement[shard],
                        np.arange(first, first + m, dtype=np.intp),
                    )
                )
                self._y = np.concatenate((self._y, y_new))
                self._n_total += m
            self._count(mutations=1)
            return np.arange(first, first + m, dtype=np.intp)

    def remove_points(self, idx) -> None:
        """Delete training points by global index (``numpy.delete`` semantics).

        Each index is routed to its owning shard; the placement map is
        renumbered exactly as ``numpy.delete`` renumbers a single
        engine's index space, so subsequent requests and mutations see
        identical global indices either way.

        Args:
            idx: Global indices to delete (scalar or array-like).

        Raises:
            ParameterError: On out-of-range or duplicate indices, or
                when a shard would be emptied (each shard engine
                must keep at least one point).
        """
        idx = as_removal_indices(idx)
        if idx.size == 0:
            return
        with self._lock.write():
            n = self._n_total
            if np.any((idx < 0) | (idx >= n)):
                raise ParameterError(
                    f"indices must be in [0, {n}), got {idx}"
                )
            if np.unique(idx).shape[0] != idx.shape[0]:
                raise ParameterError(f"duplicate indices in {idx}")
            removed = np.sort(idx)
            with self.tracer.span(
                "router.mutate", kind="remove", n_points=int(idx.size)
            ):
                # every share is checked before any shard is touched
                shares = [np.flatnonzero(np.isin(p, removed)) for p in self._placement]
                for shard, placed, local in zip(self.shards, self._placement, shares):
                    if local.size == placed.shape[0]:
                        raise ParameterError(
                            f"removing {local.size} point(s) would empty {shard.label}"
                        )
                for i, local in enumerate(shares):
                    if local.size:
                        self.shards[i].engine.remove_points(local)
                        self._placement[i] = np.delete(self._placement[i], local)
                # renumber survivors: global position p drops by the
                # number of removed positions below it (numpy.delete)
                for i in range(self.n_shards):
                    self._placement[i] -= np.searchsorted(removed, self._placement[i])
                self._y = np.delete(self._y, removed)
                self._n_total -= idx.size
            self._count(mutations=1)

    def _count(self, **tally: int) -> None:
        """Add to the router's counters and the hub's ``router.*`` streams."""
        with self._ops_lock:
            for name, n in tally.items():
                self._ops[name] += n
        hub = self.telemetry
        if hub is not None:
            for name, n in tally.items():
                for _ in range(n):
                    hub.count(f"router.{name}")

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Unified-schema snapshot of the router and its fleet.

        Returns:
            A :func:`repro.stats.component_stats` dict; each shard
            engine's own snapshot rides along under ``"shards"``.
        """
        with self._ops_lock:
            counters = dict(self._ops)
            timings = dict(self._timings)
        return component_stats(
            "shard_router",
            counters=counters,
            timings=timings,
            gauges={
                "n_shards": self.n_shards,
                "n_train": self.n_train,
                "k": self.k,
            },
            sharding=self.sharding,
            shards={s.label: s.engine.stats() for s in self.shards},
            breakers={
                s.label: b.state
                for s, b in zip(self.shards, self._breakers)
            },
        )

    def close(self) -> None:
        """Shut the fan-out pool down (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=False)

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
