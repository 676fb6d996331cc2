"""Queue-based serving of concurrent valuation requests.

The serving story of Section 3.2: a deployed system receives valuation
requests — batches of test queries against the training set — from
many clients at once.  :class:`ValuationService` puts a thread pool in
front of a :class:`~repro.engine.engine.ValuationEngine`: requests
enter a bounded queue as :class:`ValuationJob` handles, workers drain
the queue, and every job records its own latency split (queue wait vs
compute) so an operator can see where time goes under load.

Dynamic datasets ride the same queue: a :class:`MutationRequest`
(sellers joining or leaving) is just another job, applied atomically
under the engine's reader-writer lock — every valuation sees a fully
before- or fully after-mutation training set, never a torn one.  Jobs
are *popped* in submission order, but with more than one worker they
execute concurrently, so only a single-worker service guarantees that
a valuation submitted after a mutation observes it; multi-worker
clients that need that ordering should wait on the mutation job's
``result()`` first.

Because the engine is fit-once and its backends and cache are
thread-safe for reads, all workers share one engine: the index is
built once, and a ranking cached by one job is a hit for every
subsequent job over the same queries.
"""

from __future__ import annotations

import itertools
import math
import queue
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from ..exceptions import (
    AdmissionRejectedError,
    DeadlineExceededError,
    ParameterError,
)
from ..monitor.telemetry import Histogram
from ..monitor.tracing import NOOP_TRACER, TraceContext
from ..stats import component_stats
from ..types import ValuationResult, as_removal_indices, is_integer
from .engine import ValuationEngine

__all__ = [
    "ValuationRequest",
    "MutationRequest",
    "MutationResult",
    "ValuationJob",
    "ValuationService",
]


@dataclass(frozen=True)
class ValuationRequest:
    """One unit of serving work: value the training set for a test batch.

    Attributes
    ----------
    x_test, y_test:
        The query batch.
    method:
        ``"exact"``, ``"truncated"``, ``"lsh"``, ``"weighted"``, or
        any registered kernel name (see :mod:`repro.core.kernels`).
    epsilon:
        Truncation target for the approximate methods.
    weights:
        Weight-function name for ``method="weighted"``.
    mode:
        Execution-path selector for ``method="weighted"`` (``"auto"``
        picks the cheapest exact-equivalent path).
    store_per_test:
        Forwarded to :meth:`ValuationEngine.value`.
    tag:
        Free-form client identifier echoed in job stats.
    trace:
        Optional :class:`~repro.monitor.tracing.TraceContext` the
        served job should join.  Normally left ``None``:
        :meth:`ValuationService.submit` captures the submitting
        thread's current trace position automatically, which is how a
        job executed on a worker thread attaches to its caller's
        trace.
    deadline_ms:
        Optional end-to-end budget in milliseconds, measured from
        submission.  A job whose budget is spent on queue wait fails
        with :class:`~repro.exceptions.DeadlineExceededError` without
        touching the engine; otherwise the *remaining* budget
        propagates into the engine (and, through a sharded engine,
        shrinks per hop).  NaN is refused on construction.
    priority:
        An integer; higher runs first (0 default).  Ties drain in
        submission order.
    """

    x_test: np.ndarray
    y_test: np.ndarray
    method: str = "exact"
    epsilon: float = 0.1
    store_per_test: bool = False
    tag: str = ""
    # appended last: positional construction predating these fields
    # keeps its meaning
    weights: str = "inverse_distance"
    mode: str = "auto"
    trace: Optional[TraceContext] = None
    deadline_ms: Optional[float] = None
    priority: int = 0

    def __post_init__(self) -> None:
        if self.deadline_ms is not None and math.isnan(self.deadline_ms):
            raise ParameterError("deadline_ms must be a number, got nan")
        if not is_integer(self.priority):
            raise ParameterError(
                f"priority must be an integer, got {self.priority!r}"
            )


@dataclass(frozen=True)
class MutationRequest:
    """One training-set mutation: sellers joining or leaving the market.

    Mutations ride the same queue as valuations; the engine's
    reader-writer lock keeps each one atomic with respect to
    concurrently running valuations.  (Submission order is the
    *execution* order only for a single-worker service — see the
    module docstring.)

    Attributes
    ----------
    kind:
        ``"add"`` (requires ``x``, ``y``) or ``"remove"`` (requires
        ``idx``, ``numpy.delete`` semantics).
    x, y:
        Points and labels to append.
    idx:
        Training indices to delete, validated on construction
        (:func:`~repro.types.as_removal_indices`).
    tag:
        Free-form client identifier echoed in job stats.
    trace:
        Optional carried :class:`~repro.monitor.tracing.TraceContext`
        (see :class:`ValuationRequest`; captured automatically by
        :meth:`ValuationService.submit`).
    """

    kind: str
    x: Optional[np.ndarray] = None
    y: Optional[np.ndarray] = None
    idx: Optional[np.ndarray] = None
    tag: str = ""
    trace: Optional[TraceContext] = None

    def __post_init__(self) -> None:
        if self.kind not in ("add", "remove"):
            raise ParameterError(
                f"kind must be 'add' or 'remove', got {self.kind!r}"
            )
        if self.kind == "add" and (self.x is None or self.y is None):
            raise ParameterError("an 'add' mutation requires x and y")
        if self.kind == "remove":
            if self.idx is None:
                raise ParameterError("a 'remove' mutation requires idx")
            object.__setattr__(self, "idx", as_removal_indices(self.idx))


@dataclass(frozen=True)
class MutationResult:
    """Outcome of a served :class:`MutationRequest`.

    Attributes
    ----------
    kind:
        Echo of the request kind.
    indices:
        Indices the new points received (``"add"``) or the indices
        removed (``"remove"``).
    n_train:
        Training-set size after the mutation.
    extra:
        Free-form provenance.
    """

    kind: str
    indices: np.ndarray
    n_train: int
    extra: dict = field(default_factory=dict)


class ValuationJob:
    """Handle for a submitted request; thread-safe future-like object.

    A job moves ``queued -> running -> done | failed`` (or ``queued ->
    cancelled``).  :meth:`result` blocks until settled.
    """

    def __init__(
        self, job_id: int, request: Union[ValuationRequest, MutationRequest]
    ) -> None:
        self.job_id = job_id
        self.request = request
        self.status = "queued"
        self.error: BaseException | None = None
        self.submitted_at = time.perf_counter()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._result: ValuationResult | MutationResult | None = None
        self._done = threading.Event()

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Whether the job has settled (done, failed, or cancelled)."""
        return self._done.is_set()

    @property
    def queue_seconds(self) -> Optional[float]:
        """Time spent waiting in the queue, once running."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def compute_seconds(self) -> Optional[float]:
        """Time spent inside the engine, once settled."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def result(
        self, timeout: Optional[float] = None
    ) -> Union[ValuationResult, MutationResult]:
        """Block until the job settles and return its result.

        Raises
        ------
        TimeoutError
            If the job does not settle within ``timeout`` seconds.
        Exception
            Re-raises whatever the engine raised when the job failed.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} not finished within {timeout}s"
            )
        if self.status == "failed":
            assert self.error is not None
            raise self.error
        if self.status == "cancelled":
            raise ParameterError(f"job {self.job_id} was cancelled")
        assert self._result is not None
        return self._result

    def stats(self) -> dict:
        """Per-job bookkeeping snapshot."""
        if isinstance(self.request, MutationRequest):
            method = f"mutate-{self.request.kind}"
            n_test = 0
        else:
            method = self.request.method
            n_test = int(np.atleast_2d(self.request.x_test).shape[0])
        return {
            "job_id": self.job_id,
            "tag": self.request.tag,
            "method": method,
            "n_test": n_test,
            "status": self.status,
            "queue_seconds": self.queue_seconds,
            "compute_seconds": self.compute_seconds,
        }


_SENTINEL = object()


class ValuationService:
    """Thread-pool runner multiplexing requests over one engine.

    Parameters
    ----------
    engine:
        The shared :class:`ValuationEngine` (or any object with its
        ``value`` surface, e.g. a
        :class:`~repro.engine.sharding.ShardRouter`).
    n_workers:
        Worker threads draining the queue.
    max_queue:
        Bound on queued jobs; 0 means unbounded.  What happens at the
        bound is the ``admission`` policy's call.
    admission:
        ``"block"`` (default): ``submit`` blocks while the queue is
        full — the pre-existing backpressure behavior.  ``"shed"``:
        a full queue rejects the submission immediately with
        :class:`~repro.exceptions.AdmissionRejectedError` (requires
        ``max_queue > 0``), which is the load-shedding half of the
        overload story — the precision ladder is the other half.
    degradation:
        Optional
        :class:`~repro.engine.degradation.DegradationController`.
        When attached, ``method="exact"`` valuation requests are
        re-planned per job onto the controller's precision rung —
        exact when idle, Theorem-2 truncation under pressure, Monte
        Carlo with a Theorem-5 certificate under overload — and
        non-exact servings record the rung, its parameters, and the
        certified error bound in ``result.extra["degraded"]``.
        Requests for any other method are served as asked.

    Use as a context manager, or call :meth:`shutdown` explicitly.
    """

    def __init__(
        self,
        engine: ValuationEngine,
        n_workers: int = 2,
        max_queue: int = 0,
        admission: str = "block",
        degradation=None,
    ) -> None:
        if n_workers <= 0:
            raise ParameterError(f"n_workers must be positive, got {n_workers}")
        if admission not in ("block", "shed"):
            raise ParameterError(
                f"admission must be 'block' or 'shed', got {admission!r}"
            )
        if admission == "shed" and max_queue <= 0:
            raise ParameterError(
                "admission='shed' needs a bounded queue (max_queue > 0)"
            )
        self.engine = engine
        self.n_workers = int(n_workers)
        self.max_queue = int(max_queue)
        self.admission = admission
        self.degradation = degradation
        # priority queue entries are (-priority, seq, job): higher
        # priority first, submission order within a priority band, and
        # the seq tiebreak means job objects are never compared
        self._queue: "queue.PriorityQueue" = queue.PriorityQueue(
            maxsize=max_queue
        )
        self._seq = itertools.count()
        self._jobs: dict[int, ValuationJob] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._shutdown = False
        self._sheds = 0
        self._deadline_misses = 0
        self._last_shed: Optional[float] = None
        #: seconds after the last rejection during which
        #: :meth:`resilience` still reports ``shedding`` — keeps the
        #: readiness probe latched long enough for a poller to see it
        self.shed_window = 5.0
        # per-job latency distributions: bounded-memory histograms (the
        # stats()/export surface for p50/p95/p99), fed at job settle
        self._hist_lock = threading.Lock()
        self._queue_hist = Histogram()
        self._compute_hist = Histogram()
        self._workers = [
            threading.Thread(target=self._worker, daemon=True, name=f"valuation-{i}")
            for i in range(self.n_workers)
        ]
        for w in self._workers:
            w.start()

    # ------------------------------------------------------------------
    def _put_sentinel(self) -> None:
        """Enqueue a worker-retirement marker below every real job."""
        self._queue.put((math.inf, next(self._seq), _SENTINEL))

    def _worker(self) -> None:
        while True:
            _, _, item = self._queue.get()
            try:
                if item is _SENTINEL:
                    return
                job: ValuationJob = item
                job.started_at = time.perf_counter()
                job.status = "running"
                req = job.request
                tracer = getattr(self.engine, "tracer", None) or NOOP_TRACER
                # re-enter the submitter's trace: worker threads do not
                # inherit the caller's context, so the job carries its
                # TraceContext across the queue and re-activates it here
                with tracer.activate(req.trace):
                    with tracer.span(
                        "service.job", job_id=job.job_id, tag=req.tag
                    ) as span:
                        span.set("queue_seconds", job.queue_seconds)
                        try:
                            if isinstance(req, MutationRequest):
                                span.set("kind", f"mutate-{req.kind}")
                                job._result = self._apply_mutation(req)
                            else:
                                span.set("kind", req.method)
                                job._result = self._serve_valuation(job, span)
                            job.status = "done"
                        except BaseException as exc:  # surfaced via job.result()
                            job.error = exc
                            job.status = "failed"
                        finally:
                            span.set("status", job.status)
                            job.finished_at = time.perf_counter()
                            job._done.set()
                            self._publish_job(job)
            finally:
                self._queue.task_done()

    def _serve_valuation(self, job: ValuationJob, span) -> ValuationResult:
        """Run one valuation job: deadline gate, rung choice, engine call."""
        req = job.request
        hub = getattr(self.engine, "telemetry", None)
        remaining: Optional[float] = None
        if req.deadline_ms is not None:
            budget = req.deadline_ms / 1000.0
            waited = job.queue_seconds or 0.0
            remaining = budget - waited
            if remaining <= 0:
                with self._lock:
                    self._deadline_misses += 1
                if hub is not None:
                    hub.count("service.jobs_deadline_exceeded")
                raise DeadlineExceededError(
                    f"job {job.job_id} spent its {budget:.4f}s budget "
                    f"waiting in the queue ({waited:.4f}s)",
                    deadline_s=budget,
                    elapsed_s=waited,
                )
        kwargs: dict = {
            "method": req.method,
            "epsilon": req.epsilon,
            "weights": req.weights,
            "mode": req.mode,
            "store_per_test": req.store_per_test,
        }
        if remaining is not None:
            kwargs["deadline_s"] = remaining
        controller = self.degradation
        rung = None
        plan_info: dict = {}
        if (
            controller is not None
            and req.method == "exact"
            and getattr(self.engine, "task", "classification")
            == "classification"
        ):
            rung, plan_info = controller.plan(
                self._queue.qsize(), deadline_s=remaining
            )
            span.set("rung", rung.name)
            kwargs["method"] = rung.method
            if rung.method == "truncated":
                kwargs["epsilon"] = rung.epsilon
            elif rung.method == "mc":
                kwargs["epsilon"] = rung.epsilon
                kwargs["delta"] = rung.delta
                # deterministic but distinct per job
                kwargs["seed"] = job.job_id
            if hub is not None:
                hub.count(f"service.rung.{rung.name}")
        compute_start = time.perf_counter()
        result = self.engine.value(req.x_test, req.y_test, **kwargs)
        if rung is not None:
            controller.observe(
                rung.name, time.perf_counter() - compute_start
            )
            if rung.method != "exact":
                # every non-exact rung answers with the request plan's
                # certificate (Theorem 2 truncation or Theorem 5 mc)
                result.extra["degraded"] = {
                    "kind": "precision",
                    "rung": rung.name,
                    "method": rung.method,
                    "epsilon": float(rung.epsilon),
                    "certificate": result.extra.get("certificate"),
                    **plan_info,
                }
                if hub is not None:
                    hub.count("service.jobs_degraded")
        return result

    def _publish_job(self, job: ValuationJob) -> None:
        """Stream one settled job's latency split into telemetry.

        The service's own :class:`Histogram` s always update (they are
        the :meth:`stats` percentile source, hub or no hub); the
        attached hub additionally receives the per-job streams.
        """
        with self._hist_lock:
            if job.queue_seconds is not None:
                self._queue_hist.add(job.queue_seconds)
            if job.compute_seconds is not None:
                self._compute_hist.add(job.compute_seconds)
        hub = getattr(self.engine, "telemetry", None)
        if hub is None:
            return
        hub.count(f"service.jobs_{job.status}")
        if job.queue_seconds is not None:
            hub.record("service.queue_seconds", job.queue_seconds)
        if job.compute_seconds is not None:
            hub.record("service.compute_seconds", job.compute_seconds)

    def _apply_mutation(self, req: MutationRequest) -> MutationResult:
        if req.kind == "add":
            indices = self.engine.add_points(req.x, req.y)
        else:
            indices = req.idx
            self.engine.remove_points(indices)
        return MutationResult(
            kind=req.kind, indices=indices, n_train=self.engine.n_train
        )

    # ------------------------------------------------------------------
    def submit(
        self, request: Union[ValuationRequest, MutationRequest]
    ) -> ValuationJob:
        """Enqueue a request; returns its :class:`ValuationJob` handle.

        Blocks while the queue is at ``max_queue``.  The enqueue happens
        under the shutdown lock so a concurrent :meth:`shutdown` cannot
        retire the workers between the accept check and the put (which
        would strand the job unserved); workers keep draining, so a
        blocked put always completes.

        If the submitting thread is inside a traced span and the
        request carries no explicit ``trace``, the current
        :class:`~repro.monitor.tracing.TraceContext` is captured onto
        the request, so the job joins the caller's trace when a worker
        thread serves it.

        Under ``admission="shed"`` a full queue raises
        :class:`~repro.exceptions.AdmissionRejectedError` instead of
        blocking; nothing is enqueued and no job handle exists.
        """
        if request.trace is None:
            tracer = getattr(self.engine, "tracer", None) or NOOP_TRACER
            ctx = tracer.current()
            if ctx is not None:
                request = replace(request, trace=ctx)
        priority = int(getattr(request, "priority", 0))
        with self._lock:
            if self._shutdown:
                raise ParameterError("service is shut down")
            job = ValuationJob(next(self._ids), request)
            self._jobs[job.job_id] = job
            entry = (-priority, next(self._seq), job)
            if self.admission == "shed":
                try:
                    self._queue.put_nowait(entry)
                except queue.Full:
                    del self._jobs[job.job_id]
                    self._sheds += 1
                    self._last_shed = time.monotonic()
                    hub = getattr(self.engine, "telemetry", None)
                    if hub is not None:
                        hub.count("service.jobs_shed")
                    raise AdmissionRejectedError(
                        f"queue full ({self.max_queue} jobs); request shed",
                        queue_depth=self._queue.qsize(),
                        max_queue=self.max_queue,
                    ) from None
            else:
                self._queue.put(entry)
        hub = getattr(self.engine, "telemetry", None)
        if hub is not None:
            hub.record("service.queue_depth", float(self._queue.qsize()))
        return job

    def submit_batch(
        self, x_test: np.ndarray, y_test: np.ndarray, **kwargs
    ) -> ValuationJob:
        """Convenience wrapper building the :class:`ValuationRequest`.

        Args:
            x_test: Test feature matrix, shape ``(n_test, d)``.
            y_test: Test labels/targets, shape ``(n_test,)``.
            **kwargs: Forwarded to :class:`ValuationRequest`
                (``method``, ``epsilon``, ``store_per_test``, ...).

        Returns:
            The queued job's :class:`ValuationJob` handle.

        Raises:
            ParameterError: When the service is shut down.
        """
        return self.submit(ValuationRequest(x_test, y_test, **kwargs))

    def submit_add(
        self, x_new: np.ndarray, y_new: np.ndarray, tag: str = ""
    ) -> ValuationJob:
        """Enqueue an ``"add"`` :class:`MutationRequest`.

        Args:
            x_new: Features of the points to add, shape ``(m, d)``.
            y_new: Their labels/targets, shape ``(m,)``.
            tag: Free-form marker echoed in the job's stats.

        Returns:
            The queued job's :class:`ValuationJob` handle; its result
            is the new training-set size.

        Raises:
            ParameterError: When the service is shut down.
        """
        return self.submit(MutationRequest(kind="add", x=x_new, y=y_new, tag=tag))

    def submit_remove(self, idx, tag: str = "") -> ValuationJob:
        """Enqueue a ``"remove"`` :class:`MutationRequest`.

        Args:
            idx: Training-point indices to delete (current numbering).
            tag: Free-form marker echoed in the job's stats.

        Returns:
            The queued job's :class:`ValuationJob` handle; its result
            is the new training-set size.

        Raises:
            ParameterError: When the service is shut down, or at once
                when ``idx`` holds boolean or non-integer indices.
        """
        return self.submit(MutationRequest(kind="remove", idx=idx, tag=tag))

    def job(self, job_id: int) -> ValuationJob:
        """Look up a job handle by id.

        Raises:
            ParameterError: When ``job_id`` was never issued by this
                service.
        """
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ParameterError(f"unknown job id {job_id}") from None

    def wait_all(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted job has settled."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        with self._lock:
            jobs = list(self._jobs.values())
        for j in jobs:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.perf_counter())
            if not j._done.wait(remaining):
                raise TimeoutError("jobs still pending at timeout")

    def stats(self) -> dict:
        """Aggregate serving statistics.

        Conforms to the unified component-stats schema
        (:mod:`repro.stats`).  Per-job latency is published through the
        service's bounded :class:`Histogram` s — ``timings`` carries
        p50/p95/p99 for the queue-wait and compute splits, and the full
        bucket snapshots ride along under ``"histograms"`` — while the
        pre-schema keys (``n_jobs``, ``by_status``,
        ``total_compute_seconds``, ``mean_queue_seconds``, ...) are
        kept as aliases at their historical positions for existing
        dashboards (now derived from the histograms' exact
        count/total moments).
        """
        with self._lock:
            jobs = list(self._jobs.values())
        by_status: dict[str, int] = {}
        for j in jobs:
            by_status[j.status] = by_status.get(j.status, 0) + 1
        with self._hist_lock:
            queue_snap = self._queue_hist.snapshot()
            compute_snap = self._compute_hist.snapshot()
        total_compute = float(compute_snap["total"])
        mean_queue = (
            float(queue_snap["mean"]) if queue_snap["count"] else 0.0
        )
        percentiles = {
            f"{split}_p{p}": float(snap[f"p{p}"]) if snap["count"] else 0.0
            for split, snap in (("queue", queue_snap), ("compute", compute_snap))
            for p in (50, 95, 99)
        }
        with self._lock:
            sheds = self._sheds
            deadline_misses = self._deadline_misses
        extras: dict = {}
        if self.degradation is not None:
            extras["degradation"] = self.degradation.snapshot()
        return component_stats(
            "valuation_service",
            counters={
                "jobs": len(jobs),
                "jobs_shed": sheds,
                "jobs_deadline_exceeded": deadline_misses,
                **{f"jobs_{s}": c for s, c in sorted(by_status.items())},
            },
            timings={
                "total_compute_seconds": total_compute,
                "mean_queue_seconds": mean_queue,
                **percentiles,
            },
            gauges={
                "queue_depth": self._queue.qsize(),
                "n_workers": self.n_workers,
                "max_queue": self.max_queue,
            },
            histograms={
                "queue_seconds": queue_snap,
                "compute_seconds": compute_snap,
            },
            # legacy keys
            n_jobs=len(jobs),
            by_status=by_status,
            queue_depth=self._queue.qsize(),
            n_workers=self.n_workers,
            total_compute_seconds=total_compute,
            mean_queue_seconds=mean_queue,
            admission=self.admission,
            **extras,
        )

    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether the service still accepts submissions.

        The readiness probe the observability server's ``/ready``
        endpoint answers with: ``True`` until :meth:`shutdown` flips
        it, at which point a load balancer should stop routing here
        while in-flight jobs drain.
        """
        return not self._shutdown

    def resilience(self) -> dict:
        """Overload and fault posture, for the readiness probe.

        ``shedding`` is true while the queue is at its bound (under
        ``admission="shed"``) or within :attr:`shed_window` seconds of
        the last rejection, so a polling probe cannot miss a burst.
        An engine exposing its own ``resilience()`` — the shard
        router's circuit-breaker states — rides along, with any open
        circuits bubbled to the top level.
        """
        depth = self._queue.qsize()
        with self._lock:
            recently_shed = (
                self._last_shed is not None
                and time.monotonic() - self._last_shed < self.shed_window
            )
            sheds = self._sheds
        full = self.max_queue > 0 and depth >= self.max_queue
        out = {
            "shedding": bool(
                recently_shed or (self.admission == "shed" and full)
            ),
            "queue_depth": depth,
            "max_queue": self.max_queue,
            "admission": self.admission,
            "sheds": sheds,
            "open_circuits": [],
        }
        sub = getattr(self.engine, "resilience", None)
        if callable(sub):
            engine_res = sub()
            out["engine"] = engine_res
            out["open_circuits"] = list(engine_res.get("open_circuits", []))
        return out

    def _fail_queued(self, reason: str) -> None:
        """Settle every still-queued job with a typed failure.

        The typed alternative to stranding callers: a job that will
        never run fails with
        :class:`~repro.exceptions.AdmissionRejectedError` so its
        ``result()`` raises instead of blocking forever.  Covers both
        jobs still sitting in the queue and jobs whose queue entry
        vanished (the dropped-job fault).
        """
        while True:
            try:
                _, _, item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SENTINEL and not item.done:
                item.error = AdmissionRejectedError(
                    f"job {item.job_id} abandoned: {reason}",
                    queue_depth=self._queue.qsize(),
                )
                item.status = "failed"
                item.finished_at = time.perf_counter()
                item._done.set()
                self._publish_job(item)
            self._queue.task_done()
        self._settle_orphans(reason)

    def _settle_orphans(self, reason: str) -> None:
        """Fail tracked jobs still ``queued`` though nothing holds them.

        After the queue has drained (or been failed wholesale), any
        job whose queue entry vanished without a worker serving it —
        the dropped-job fault — would otherwise strand its caller on
        ``result()``; it gets the same typed failure instead.
        """
        with self._lock:
            orphans = [
                j for j in self._jobs.values()
                if j.status == "queued" and not j.done
            ]
        for job in orphans:
            job.error = AdmissionRejectedError(
                f"job {job.job_id} abandoned: {reason}"
            )
            job.status = "failed"
            job.finished_at = time.perf_counter()
            job._done.set()
            self._publish_job(job)

    def _alive_workers(self) -> int:
        return sum(1 for w in self._workers if w.is_alive())

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, then drain, cancel, or fail the queue.

        With ``wait`` (default) every already-submitted job is served
        before the workers retire — unless the workers have already
        exited (crash, fault injection), in which case the queued jobs
        are failed with a typed
        :class:`~repro.exceptions.AdmissionRejectedError` instead of
        leaving their callers blocked on ``result()`` forever.
        Without ``wait``, jobs still sitting in the queue are marked
        ``cancelled`` and their waiters released; jobs already running
        finish either way.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        if wait:
            # drain, but never behind a dead worker pool: re-check
            # liveness while waiting so a crashed pool converts the
            # backlog into typed failures instead of a hang
            with self._queue.all_tasks_done:
                while self._queue.unfinished_tasks:
                    if self._alive_workers() == 0:
                        break
                    self._queue.all_tasks_done.wait(timeout=0.05)
            if self._queue.unfinished_tasks and self._alive_workers() == 0:
                self._fail_queued("the worker pool exited before it ran")
        else:
            while True:
                try:
                    _, _, item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _SENTINEL:
                    item.status = "cancelled"
                    item.finished_at = time.perf_counter()
                    item._done.set()
                self._queue.task_done()
        for _ in self._workers:
            self._put_sentinel()
        for w in self._workers:
            w.join()
        # a job whose queue entry vanished (dropped-job fault) is now
        # provably unreachable: no worker remains to serve it
        self._settle_orphans("its queue entry was lost before a worker ran it")

    def __enter__(self) -> "ValuationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=exc_type is None)
