"""Batched, cached, parallel execution of the KNN Shapley algorithms.

:class:`ValuationEngine` is the execution layer between the valuation
math in :mod:`repro.core` and a retrieval-scale workload.  It owns a
fitted :class:`~repro.engine.backends.NeighborBackend` and a
:class:`~repro.engine.cache.RankCache`, and evaluates each request by

1. splitting the test queries into chunks,
2. running chunks concurrently (``concurrent.futures`` threads — the
   heavy numpy kernels release the GIL),
3. merging the per-chunk Shapley *partial sums*.

Step 3 is lossless: by the additivity property (eq 8 of the paper) the
multi-test Shapley value is the mean of single-test values, so partial
sums over any partition of the test set merge exactly.  Chunking also
bounds memory — the ``(n_test, n_train)`` rank and per-test value
matrices of the single-shot path never fully materialize — and is what
the cache and the parallelism hang off.

The engine serves every fast path of the paper by dispatching through
the kernel registry of :mod:`repro.core.kernels` — each request builds
:class:`~repro.core.kernels.RankPlan` chunks from the backend and hands
them to the named kernel, so any registered kernel (including
third-party ones) gets batching, caching and parallel merging for
free:

* ``method="exact"`` — Theorem 1 (classification) / Theorem 6
  (regression) over a full ranking; exact-search backends only.
* ``method="truncated"`` — Theorem 2 over top-``K*`` neighbors, any
  backend.
* ``method="lsh"`` — Theorem 4: the truncated kernel over an LSH
  backend's approximate neighbors.
* ``method="weighted"`` — Theorem 7 over a full ranking with
  distances (classification eq 26 / regression eq 27).  The kernel
  picks an execution path per request (``mode="auto"``: the O(N) K=1
  collapse, the O(N·poly(K)) piecewise counting/moment paths for
  rank-only weights on either task, or the batched configuration
  engine — materialized within its memory budget, streaming past it —
  see
  :meth:`repro.core.kernels.WeightedKernel.select_path`); the chosen
  path is surfaced in ``ValuationResult.extra["weighted_path"]`` and
  counted in :meth:`ValuationEngine.stats`.
* any other name — looked up in the kernel registry and routed by its
  :class:`~repro.core.kernels.KernelCapabilities`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Optional, Sequence

import numpy as np

from ..core.bounds import bennett_permutations, certified_epsilon
from ..core.kernels import (
    RankPlan,
    ValuationKernel,
    available_kernels,
    get_kernel,
    weighted_config_cache_stats,
)
from ..core.mcserve import mc_values_from_distances
from ..core.truncated import truncation_rank
from ..exceptions import DeadlineExceededError, ParameterError
from ..knn.distance import get_metric
from ..monitor.tracing import NOOP_TRACER
from ..stats import component_stats
from ..types import (
    Dataset,
    ValuationResult,
    as_float_matrix,
    as_label_vector,
    as_new_points,
)
from .backends import LSHNeighborBackend, NeighborBackend, make_backend
from .cache import RankCache, array_fingerprint

__all__ = ["ValuationEngine", "resolve_method_kernel"]

#: Built-in method names and the registered kernel each resolves to
#: (``None`` marks task-dependent resolution).
_METHOD_KERNELS = {
    "exact": None,  # "exact" kernel for classification, "regression" else
    "truncated": "truncated",
    "lsh": "truncated",
    "weighted": "weighted",
}


def _default_workers() -> int:
    return max(1, min(4, os.cpu_count() or 1))


def resolve_method_kernel(method: str, task: str) -> ValuationKernel:
    """Map a request ``method`` name to a registered valuation kernel.

    The single resolution rule shared by :class:`ValuationEngine` and
    the shard router (:class:`repro.engine.sharding.ShardRouter`), so a
    request means the same kernel wherever it lands.

    Args:
        method: ``"exact"``, ``"truncated"``, ``"lsh"``, ``"weighted"``,
            or any name registered via
            :func:`repro.core.kernels.register_kernel`.
        task: ``"classification"`` or ``"regression"`` — disambiguates
            ``"exact"``, which is task-dependent.

    Returns:
        The resolved :class:`~repro.core.kernels.ValuationKernel`.

    Raises:
        ParameterError: If ``method`` names neither a built-in method
            nor a registered kernel.
    """
    if method in _METHOD_KERNELS:
        name = _METHOD_KERNELS[method]
        if name is None:
            name = "exact" if task == "classification" else "regression"
        return get_kernel(name)
    if method in available_kernels():
        # third-party kernels dispatch under their registry name
        return get_kernel(method)
    raise ParameterError(
        f"unknown method {method!r}; expected one of "
        f"{tuple(_METHOD_KERNELS)} or a registered kernel "
        f"{available_kernels()}"
    )


def as_query_batch(x_test, y_test) -> tuple[np.ndarray, np.ndarray]:
    """Validate a valuation request's query batch.

    The front-door rule shared by :class:`ValuationEngine` and the
    shard router: a valuation is a mean over test points (eq 8), so an
    empty batch has no value and is rejected rather than answered with
    ``0/0``.

    Raises:
        ParameterError: If the batch has no test points.
        DataValidationError: If ``x_test`` is not a finite matrix or
            ``y_test`` does not match it.
    """
    x_test = as_float_matrix(x_test, "x_test")
    if x_test.shape[0] == 0:
        raise ParameterError(
            "the query batch is empty; valuation needs at least one test point"
        )
    return x_test, as_label_vector(y_test, x_test.shape[0], "y_test")


class _RWLock:
    """Many concurrent readers or one exclusive writer.

    Valuations (reads) dominate and run concurrently; mutations
    (writes) are rare and must see no in-flight valuation while they
    swap the training arrays, backend index, and fingerprint as a
    unit.  No writer preference — under sustained read load a writer
    waits, which matches the serving workload (mutations are market
    events, not the hot path).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writing = False

    @contextmanager
    def read(self):
        with self._cond:
            while self._writing:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self):
        with self._cond:
            while self._writing or self._readers:
                self._cond.wait()
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


class ValuationEngine:
    """Fit-once valuation executor over a pluggable neighbor backend.

    Parameters
    ----------
    x_train, y_train:
        The training set being valued.
    k:
        The K of KNN.
    task:
        ``"classification"`` or ``"regression"`` (the truncated and LSH
        paths are classification-only, as in the paper).
    metric:
        Distance metric for exact backends (LSH is l2).
    backend:
        Registered backend name (``"brute"``, ``"blocked"``, ``"lsh"``)
        or a pre-built :class:`NeighborBackend`.
    backend_options:
        Keyword arguments for the backend factory (ignored when
        ``backend`` is an instance).
    cache:
        ``True`` (default) for a private :class:`RankCache`, ``False``
        to disable memoization, or a shared :class:`RankCache`.
    n_workers:
        Thread count for chunk execution; defaults to
        ``min(4, cpu_count)``.
    chunk_size:
        Test points per chunk; defaults to a size keeping each chunk's
        working set a few million elements.
    """

    def __init__(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        k: int,
        task: str = "classification",
        metric: str = "euclidean",
        backend="brute",
        backend_options: Optional[dict] = None,
        cache=True,
        n_workers: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> None:
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        if task not in ("classification", "regression"):
            raise ParameterError(
                f"task must be 'classification' or 'regression', got {task!r}"
            )
        self.x_train = as_float_matrix(x_train, "x_train")
        self.y_train = as_label_vector(y_train, self.x_train.shape[0], "y_train")
        self.k = int(k)
        self.task = task
        self.metric = metric
        options = dict(backend_options or {})
        if isinstance(backend, str) and backend in ("brute", "blocked"):
            options.setdefault("metric", metric)
        self.backend: NeighborBackend = make_backend(backend, **options)
        if (
            isinstance(self.backend, LSHNeighborBackend)
            and metric != "euclidean"
        ):
            raise ParameterError("the LSH backend supports only the l2 metric")
        self.backend.fit(self.x_train)
        if cache is True:
            self.cache: Optional[RankCache] = RankCache()
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        if n_workers is not None and n_workers <= 0:
            raise ParameterError(f"n_workers must be positive, got {n_workers}")
        self.n_workers = int(n_workers) if n_workers else _default_workers()
        if chunk_size is not None and chunk_size <= 0:
            raise ParameterError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        self._train_fp = array_fingerprint(self.x_train)
        self._state_lock = _RWLock()
        #: optional :class:`repro.monitor.TelemetryHub` (see
        #: :meth:`attach_telemetry`)
        self.telemetry = None
        #: the request tracer; the shared no-op by default (see
        #: :meth:`attach_tracer`), so untraced serving pays nothing
        self.tracer = NOOP_TRACER
        self._ops_lock = threading.Lock()
        self._ops = {"requests": 0, "chunks": 0, "mutations": 0}
        self._timings = {
            "compute_seconds": 0.0,
            "merge_seconds": 0.0,
            "last_request_seconds": 0.0,
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, dataset: Dataset, k: int, **kwargs) -> "ValuationEngine":
        """Build an engine over a :class:`~repro.types.Dataset`'s training split."""
        return cls(dataset.x_train, dataset.y_train, k, **kwargs)

    @property
    def n_train(self) -> int:
        """Number of training points being valued."""
        return int(self.x_train.shape[0])

    # ------------------------------------------------------------------
    def _chunk_spans(self, n_test: int) -> list[tuple[int, int]]:
        if self.chunk_size is not None:
            size = self.chunk_size
        else:
            # keep each chunk's (q, n) working set around 2^21 elements
            size = int(max(1, min(256, 2**21 // max(1, self.n_train))))
        return [(s, min(n_test, s + size)) for s in range(0, n_test, size)]

    def _run_chunks(self, worker, spans: Sequence[tuple[int, int]]) -> list:
        """Run ``worker(start, stop)`` over spans, possibly in threads.

        Results come back ordered by span so the merge — and therefore
        the floating-point summation order — is deterministic.
        """
        if self.n_workers <= 1 or len(spans) <= 1:
            return [worker(s, e) for s, e in spans]
        with ThreadPoolExecutor(
            max_workers=min(self.n_workers, len(spans))
        ) as pool:
            futures = [pool.submit(worker, s, e) for s, e in spans]
            return [f.result() for f in futures]

    def _cache_key(self, test_fp: str) -> tuple:
        return (self._train_fp, test_fp, self.backend.cache_token())

    # ------------------------------------------------------------------
    # observability and maintenance (the repro.monitor surface)
    def attach_telemetry(self, hub) -> "ValuationEngine":
        """Publish engine and backend streams into ``hub`` from now on.

        Returns ``self`` for chaining.  The hub sees per-request
        compute and partial-sum-merge timings from the engine plus the
        backend's retrieval streams; the cache keeps its own counters,
        consumed via :meth:`stats`.
        """
        self.telemetry = hub
        self.backend.telemetry = hub
        return self

    def attach_tracer(self, tracer) -> "ValuationEngine":
        """Trace every request through ``tracer`` from now on.

        Returns ``self`` for chaining.  Each served request then opens
        an ``engine.request`` root span with one ``engine.chunk`` child
        per executed chunk (each holding its ``backend.rank`` /
        ``backend.query`` retrieval and ``kernel.<name>`` spans), an
        ``engine.merge`` child, and attributes for the cache outcome
        and — for ``method="weighted"`` — the chosen execution path;
        the finished tree lands in ``ValuationResult.extra["trace"]``.
        Pass :data:`repro.monitor.NOOP_TRACER` to turn tracing off
        again.
        """
        self.tracer = tracer if tracer is not None else NOOP_TRACER
        return self

    def _record_request(
        self, n_chunks: int, elapsed: float, merge_seconds: float
    ) -> None:
        with self._ops_lock:
            self._ops["requests"] += 1
            self._ops["chunks"] += n_chunks
            self._timings["compute_seconds"] += elapsed
            self._timings["merge_seconds"] += merge_seconds
            self._timings["last_request_seconds"] = elapsed
        hub = self.telemetry
        if hub is not None:
            hub.record("engine.request_seconds", elapsed)
            hub.record("engine.merge_seconds", merge_seconds)
            hub.record("engine.chunks", n_chunks)

    def _record_weighted_path(self, path: str) -> None:
        """Count which weighted execution path served a request."""
        key = f"weighted_path_{path}"
        with self._ops_lock:
            self._ops[key] = self._ops.get(key, 0) + 1
        hub = self.telemetry
        if hub is not None:
            hub.count(f"engine.weighted_path.{path}")

    def stats(self) -> dict:
        """Unified-schema snapshot (see :mod:`repro.stats`).

        The cache's and backend's own snapshots ride along under
        ``"cache"`` / ``"backend"`` so one call captures the engine
        stack; each nested dict follows the same schema.  The shared
        weighted configuration-array cache
        (:func:`repro.core.kernels.weighted_config_cache_stats`) rides
        along under ``"weighted_config_cache"`` — it is process-wide,
        repeated here so one engine snapshot captures it.
        """
        with self._ops_lock:
            counters = dict(self._ops)
            timings = dict(self._timings)
        return component_stats(
            "valuation_engine",
            counters=counters,
            timings=timings,
            gauges={
                "n_train": self.n_train,
                "n_workers": self.n_workers,
                "k": self.k,
            },
            cache=self.cache.stats() if self.cache is not None else None,
            backend=self.backend.stats(),
            weighted_config_cache=weighted_config_cache_stats(),
        )

    def run_exclusive(self, fn):
        """Run ``fn()`` under the exclusive side of the state lock.

        The maintenance entry point: a background scheduler re-tuning
        or compacting this engine's backend must not interleave with
        in-flight valuations (they read the backend mid-request).  Any
        cache entries keyed by the backend's *previous* result
        semantics become unreachable when the token changes, so they
        are pre-invalidated here rather than left to age out of the
        LRU.  Returns ``fn()``'s result.
        """
        with self._state_lock.write():
            token_before = self.backend.cache_token()
            try:
                return fn()
            finally:
                if (
                    self.cache is not None
                    and self.backend.cache_token() != token_before
                ):
                    self.cache.invalidate(self._train_fp)

    # ------------------------------------------------------------------
    def _resolve_kernel(self, method: str) -> ValuationKernel:
        """Map a request method to a registered valuation kernel."""
        return resolve_method_kernel(method, self.task)

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
        """Shapley values of the training set for one test batch.

        Parameters
        ----------
        x_test, y_test:
            The query batch (labels of the training task's type); an
            empty batch raises :class:`~repro.exceptions.ParameterError`.
        method:
            ``"exact"``, ``"truncated"``, ``"lsh"``, ``"weighted"``,
            ``"mc"`` (the sort-free Monte Carlo estimator of
            :mod:`repro.core.mcserve` with a Theorem 5 certificate),
            or the name of any kernel registered with
            :func:`repro.core.kernels.register_kernel`.
        epsilon:
            Truncation target for the approximate methods; for
            ``method="mc"`` the ``(epsilon, delta)`` target that sizes
            the permutation budget via Theorem 5.
        store_per_test:
            Keep the full ``(n_test, n_train)`` per-test value matrix
            in ``extra["per_test"]``.  Off by default: it is the one
            thing that cannot be memory-bounded.
        weights:
            Weight-function name for ``method="weighted"`` (see
            :mod:`repro.knn.weights`); ignored by the other methods.
        mode:
            Execution-path selector for ``method="weighted"``
            (``"auto"`` | ``"piecewise"`` | ``"vectorized"`` |
            ``"streaming"`` | ``"reference"``, see
            :meth:`repro.core.kernels.WeightedKernel.select_path`);
            ignored by the other methods.  The resolved path lands in
            ``extra["weighted_path"]`` and the engine's path counters.
        deadline_s:
            Optional compute budget in seconds, measured from request
            entry.  Checked before every chunk: when the budget is
            already spent the request raises
            :class:`~repro.exceptions.DeadlineExceededError` instead
            of starting more work (a running chunk is never aborted
            mid-kernel, so overshoot is bounded by one chunk).
        delta:
            Failure probability for the ``method="mc"`` certificate;
            ignored by the other methods.
        n_permutations:
            Explicit permutation count for ``method="mc"``; ``None``
            (default) sizes the budget from ``(epsilon, delta)`` via
            Theorem 5.  An explicit count is inverted back into the
            epsilon it certifies.
        seed:
            Seed for the ``method="mc"`` permutation stream; ``None``
            draws fresh entropy.
        """
        x_test, y_test = as_query_batch(x_test, y_test)
        check_deadline = self._deadline_check(deadline_s)
        if method == "mc":
            # Monte Carlo serves from raw distances — no kernel, no
            # ranking — so it dispatches before kernel resolution
            return self._value_mc(
                x_test, y_test, epsilon, delta, n_permutations, seed,
                store_per_test, check_deadline,
            )
        kernel = self._resolve_kernel(method)
        caps = kernel.capabilities
        with self._state_lock.read():
            if x_test.shape[1] != self.x_train.shape[1]:
                raise ParameterError(
                    f"x_test has {x_test.shape[1]} features, expected "
                    f"{self.x_train.shape[1]}"
                )
            if self.task != "classification" and not caps.supports_regression:
                raise ParameterError(
                    "the truncated/LSH approximations are defined for "
                    "classification"
                )
            if method == "lsh" and not isinstance(
                self.backend, LSHNeighborBackend
            ):
                raise ParameterError(
                    "method='lsh' requires the 'lsh' backend; this engine "
                    f"runs {self.backend.name!r}"
                )
            params: dict = {}
            if kernel.name == "weighted":
                params = {"weights": weights, "task": self.task, "mode": mode}
            with self.tracer.span(
                "engine.request",
                method=method,
                kernel=kernel.name,
                backend=self.backend.name,
                n_test=int(x_test.shape[0]),
                n_train=self.n_train,
            ) as root:
                if caps.needs_full_ranking:
                    result = self._value_ranked(
                        kernel, method, x_test, y_test, params,
                        store_per_test, root, check_deadline,
                    )
                else:
                    result = self._value_topk(
                        kernel, method, x_test, y_test, epsilon,
                        store_per_test, root, check_deadline,
                    )
            if root:
                # summarized after the span closed, so the root's own
                # duration is final when it lands in the result
                result.extra["trace"] = root.summary()
            return result

    @staticmethod
    def _deadline_check(deadline_s: Optional[float]):
        """Closure raising once ``deadline_s`` is spent; ``None`` → no-op."""
        if deadline_s is None:
            return lambda: None
        if deadline_s <= 0:
            raise DeadlineExceededError(
                f"deadline budget already spent ({deadline_s:.4f}s remaining)",
                deadline_s=float(deadline_s),
                elapsed_s=0.0,
            )
        t0 = time.perf_counter()

        def check() -> None:
            elapsed = time.perf_counter() - t0
            if elapsed >= deadline_s:
                raise DeadlineExceededError(
                    f"deadline of {deadline_s:.4f}s exceeded after "
                    f"{elapsed:.4f}s",
                    deadline_s=float(deadline_s),
                    elapsed_s=elapsed,
                )

        return check

    def run(self, *args, **kwargs) -> ValuationResult:
        """Alias of :meth:`value` (the serving-layer verb)."""
        return self.value(*args, **kwargs)

    # convenience wrappers -------------------------------------------------
    def exact(self, x_test, y_test, **kwargs) -> ValuationResult:
        """Exact values (Theorem 1 / 6); see :meth:`value`."""
        return self.value(x_test, y_test, method="exact", **kwargs)

    def truncated(self, x_test, y_test, epsilon: float = 0.1, **kwargs):
        """(epsilon, 0)-approximate values (Theorem 2); see :meth:`value`."""
        return self.value(
            x_test, y_test, method="truncated", epsilon=epsilon, **kwargs
        )

    def lsh(self, x_test, y_test, epsilon: float = 0.1, **kwargs):
        """(epsilon, delta)-approximate values (Theorem 4); see :meth:`value`."""
        return self.value(x_test, y_test, method="lsh", epsilon=epsilon, **kwargs)

    def weighted(self, x_test, y_test, weights: str = "inverse_distance", **kwargs):
        """Exact weighted-KNN values (Theorem 7); see :meth:`value`."""
        return self.value(
            x_test, y_test, method="weighted", weights=weights, **kwargs
        )

    # ------------------------------------------------------------------
    def retrieve(
        self, x_test: np.ndarray, k: Optional[int] = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Ranked retrieval over this engine's training set, no valuation.

        The building block of the sharded tier
        (:class:`repro.engine.sharding.ShardRouter`): each shard engine
        answers retrieval for its slice and the router merges the
        sorted results exactly before running the kernel once.  Runs
        under the read side of the engine lock and reuses the rank
        cache, so interleaved ``retrieve``/``value`` traffic shares
        work.

        Args:
            x_test: Query batch, shape ``(n_test, n_features)``.
            k: ``None`` (default) returns the full distance-sorted
                ranking — ties broken by training index — via
                ``backend.rank_with_distances``.  An integer returns
                the top ``min(k, n_train)`` neighbors per query via
                ``backend.query`` (rows may be ragged for candidate-set
                backends such as LSH).

        Returns:
            ``(order, distances)`` — for ``k=None`` two
            ``(n_test, n_train)`` arrays; for integer ``k`` the
            backend's neighbor rows and their distances.

        Raises:
            ParameterError: If the feature count mismatches the
                training set, ``k`` is not positive, or ``k=None`` on
                a backend without full-ranking support.
        """
        x_test = as_float_matrix(x_test, "x_test")
        if k is not None and k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        with self._state_lock.read():
            if x_test.shape[1] != self.x_train.shape[1]:
                raise ParameterError(
                    f"x_test has {x_test.shape[1]} features, expected "
                    f"{self.x_train.shape[1]}"
                )
            start = time.perf_counter()
            with self.tracer.span(
                "engine.retrieve",
                backend=self.backend.name,
                n_test=int(x_test.shape[0]),
                k=-1 if k is None else int(k),
            ) as span:
                if k is None:
                    if not self.backend.supports_full_ranking:
                        raise ParameterError(
                            f"backend {self.backend.name!r} cannot produce "
                            "full rankings; retrieve with an explicit k"
                        )
                    out = self._retrieve_ranked(x_test, span)
                else:
                    k_eff = min(int(k), self.n_train)
                    self.backend.prepare(x_test, k_eff)
                    out = self.backend.query(x_test, k_eff)
            hub = self.telemetry
            if hub is not None:
                hub.count("engine.retrievals")
                hub.record(
                    "engine.retrieve_seconds", time.perf_counter() - start
                )
            return out

    def _retrieve_ranked(self, x_test: np.ndarray, span):
        """Full-ranking retrieval through the rank cache."""
        key = None
        if self.cache is not None:
            key = self._cache_key(array_fingerprint(x_test))
            got = self.cache.get_ranking_with_distances(key)
            if got is not None:
                span.set("cache", "hit")
                return got
            span.set("cache", "miss")
        else:
            span.set("cache", "off")
        order, dist = self.backend.rank_with_distances(x_test)
        if (
            key is not None
            and order.size <= self.cache.max_entry_elements
        ):
            self.cache.put_ranking(key, order, distances=dist)
        return order, dist

    def distances(self, x_test: np.ndarray) -> np.ndarray:
        """Raw test-to-train distances, no ranking and no sort.

        The retrieval primitive of the Monte Carlo serving rung
        (:mod:`repro.core.mcserve`): the estimator scans distances in
        permutation order, so sorting them first would forfeit the
        rung's entire latency advantage.  The sharded tier fans this
        out per shard and concatenates columns by placement.  Runs
        under the read side of the engine lock against the backend's
        live training matrix.

        Args:
            x_test: Query batch, shape ``(n_test, n_features)``.

        Returns:
            ``(n_test, n_train)`` float64 distances under this
            engine's metric.
        """
        x_test = as_float_matrix(x_test, "x_test")
        with self._state_lock.read():
            if x_test.shape[1] != self.x_train.shape[1]:
                raise ParameterError(
                    f"x_test has {x_test.shape[1]} features, expected "
                    f"{self.x_train.shape[1]}"
                )
            start = time.perf_counter()
            dist = get_metric(self.metric)(x_test, self.backend.data)
            hub = self.telemetry
            if hub is not None:
                hub.count("engine.distance_scans")
                hub.record(
                    "engine.distances_seconds", time.perf_counter() - start
                )
            return dist

    # ------------------------------------------------------------------
    # dynamic datasets: mutate the training set being valued
    def add_points(self, x_new: np.ndarray, y_new: np.ndarray) -> np.ndarray:
        """Append training points; returns the indices they received.

        Runs under the exclusive side of the engine's reader-writer
        lock, so no valuation observes a half-applied mutation.  Exact
        backends absorb the append in place; the LSH backend inserts
        into its existing buckets and only falls back to a warned
        refit when ``n`` drifts beyond its tuned size.  Cached
        rankings of the *old* training set are evicted by fingerprint
        — entries for other datasets sharing the cache survive.
        """
        with self._state_lock.write():
            with self.tracer.span("engine.mutate", kind="add") as span:
                x_new, y_new = as_new_points(x_new, y_new, self.x_train.shape[1])
                span.set("n_points", int(x_new.shape[0]))
                first = self.n_train
                self.y_train = np.concatenate((self.y_train, y_new))
                self.backend.partial_fit(x_new)
                # alias the backend's index — one training-set copy, not two
                self.x_train = self.backend.data
                self._invalidate_train_fp()
                return np.arange(first, first + x_new.shape[0], dtype=np.intp)

    def remove_points(self, idx) -> None:
        """Delete training points by index (``numpy.delete`` semantics)."""
        idx = np.atleast_1d(np.asarray(idx, dtype=np.intp))
        if idx.size == 0:
            return
        with self._state_lock.write():
            with self.tracer.span(
                "engine.mutate", kind="remove", n_points=int(idx.size)
            ):
                # backend.forget validates range/uniqueness/non-emptiness
                # against the same n before anything is touched
                self.backend.forget(idx)
                self.x_train = self.backend.data
                self.y_train = np.delete(self.y_train, idx)
                self._invalidate_train_fp()

    def _invalidate_train_fp(self) -> None:
        old_fp = self._train_fp
        self._train_fp = array_fingerprint(self.x_train)
        if self.cache is not None:
            self.cache.invalidate(old_fp)
        with self._ops_lock:
            self._ops["mutations"] += 1
        hub = self.telemetry
        if hub is not None:
            hub.count("engine.mutations")

    # ------------------------------------------------------------------
    def _value_ranked(
        self,
        kernel: ValuationKernel,
        method: str,
        x_test: np.ndarray,
        y_test: np.ndarray,
        params: dict,
        store_per_test: bool,
        root,
        check_deadline=lambda: None,
    ) -> ValuationResult:
        """Generic chunked execution of a full-ranking kernel.

        ``root`` is the request's root :class:`~repro.monitor.tracing.Span`
        (the shared null span when tracing is off); chunk spans parent
        to it *explicitly* because pool threads do not inherit the
        caller's context.
        """
        if not self.backend.supports_full_ranking:
            raise ParameterError(
                f"backend {self.backend.name!r} cannot produce the full "
                f"rankings the {method!r} method needs; use "
                "method='truncated' or 'lsh'"
            )
        weighted_path = None
        if kernel.name == "weighted" and hasattr(kernel, "select_path"):
            # resolve (and validate) the execution path once up front —
            # the choice is deterministic, so every chunk takes it
            weighted_path = kernel.select_path(
                self.k,
                params.get("weights", "inverse_distance"),
                task=params.get("task", "classification"),
                mode=params.get("mode", "auto"),
                n_train=self.n_train,
            )
            self._record_weighted_path(weighted_path)
            root.set("weighted_path", weighted_path)
        start = time.perf_counter()
        n, n_test = self.n_train, x_test.shape[0]
        need_dist = kernel.capabilities.needs_distances
        key = None
        cached_order = None
        cached_dist = None
        if self.cache is not None:
            key = self._cache_key(array_fingerprint(x_test))
            if need_dist:
                got = self.cache.get_ranking_with_distances(key)
                if got is not None:
                    cached_order, cached_dist = got
            else:
                cached_order = self.cache.get_ranking(key)
            root.set("cache", "hit" if cached_order is not None else "miss")
        else:
            root.set("cache", "off")
        spans = self._chunk_spans(n_test)
        collect_order = (
            self.cache is not None
            and cached_order is None
            and n_test * n <= self.cache.max_entry_elements
        )
        tracer = self.tracer

        def worker(s: int, e: int):
            check_deadline()
            with tracer.span("engine.chunk", parent=root, start=s, stop=e) as chunk:
                dist = None
                if cached_order is not None:
                    order = cached_order[s:e]
                    if need_dist:
                        dist = cached_dist[s:e]
                else:
                    with tracer.span(
                        "backend.rank", parent=chunk, backend=self.backend.name
                    ):
                        if need_dist:
                            order, dist = self.backend.rank_with_distances(
                                x_test[s:e]
                            )
                        else:
                            order = self.backend.rank(x_test[s:e])
                plan = RankPlan.from_order(
                    order, self.y_train, y_test[s:e], distances=dist
                )
                with tracer.span(f"kernel.{kernel.name}", parent=chunk):
                    partial, per_test = kernel.column_sums_from_plan(
                        plan, self.k, store_per_test, **params
                    )
                return (
                    partial,
                    order if collect_order else None,
                    dist if (collect_order and need_dist) else None,
                    per_test,
                )

        results = self._run_chunks(worker, spans)
        with tracer.span("engine.merge", parent=root, n_chunks=len(spans)):
            merge_start = time.perf_counter()
            total = np.zeros(n, dtype=np.float64)
            for partial, _, _, _ in results:
                total += partial
            values = total / n_test
            merge_seconds = time.perf_counter() - merge_start
        if collect_order and key is not None:
            self.cache.put_ranking(
                key,
                np.concatenate([r[1] for r in results], axis=0),
                distances=(
                    np.concatenate([r[2] for r in results], axis=0)
                    if need_dist
                    else None
                ),
            )
        elapsed = time.perf_counter() - start
        self._record_request(len(spans), elapsed, merge_seconds)
        extra = {
            "k": self.k,
            "metric": self.metric,
            "backend": self.backend.name,
            "kernel": kernel.name,
            "n_chunks": len(spans),
            "n_workers": self.n_workers,
            "cache": (
                self.cache.stats.as_dict() if self.cache is not None else None
            ),
            "elapsed_seconds": elapsed,
        }
        if kernel.name == "weighted":
            extra["weights"] = params.get("weights")
            extra["task"] = params.get("task")
            extra["mode"] = params.get("mode")
            extra["weighted_path"] = weighted_path
        if store_per_test:
            extra["per_test"] = np.concatenate([r[3] for r in results], axis=0)
        if method == "exact":
            out_method = (
                "exact" if self.task == "classification" else "exact-regression"
            )
        elif method == "weighted":
            out_method = "exact-weighted"
        else:
            out_method = method
        return ValuationResult(values=values, method=out_method, extra=extra)

    # ------------------------------------------------------------------
    def _value_topk(
        self,
        kernel: ValuationKernel,
        method: str,
        x_test: np.ndarray,
        y_test: np.ndarray,
        epsilon: float,
        store_per_test: bool,
        root,
        check_deadline=lambda: None,
    ) -> ValuationResult:
        """Generic chunked execution of a top-``K*`` (prefix) kernel.

        ``root`` is the request's root span (the shared null span when
        tracing is off), explicitly parented into the chunk workers.
        """
        start = time.perf_counter()
        n, n_test = self.n_train, x_test.shape[0]
        k_star = truncation_rank(self.k, epsilon)
        k_eff = min(k_star, n)
        tracer = self.tracer
        with tracer.span("backend.prepare", parent=root, k=k_eff):
            self.backend.prepare(x_test, k_eff)
        key = None
        cached_idx = None
        if self.cache is not None:
            key = self._cache_key(array_fingerprint(x_test))
            cached_idx = self.cache.get_topk(key, k_eff)
            root.set("cache", "hit" if cached_idx is not None else "miss")
        else:
            root.set("cache", "off")
        root.set("k_star", k_star)
        spans = self._chunk_spans(n_test)
        exactly_k = True  # rectangular results can be cached

        def worker(s: int, e: int):
            check_deadline()
            with tracer.span("engine.chunk", parent=root, start=s, stop=e) as chunk:
                if cached_idx is not None:
                    idx_rows = cached_idx[s:e]
                else:
                    with tracer.span(
                        "backend.query", parent=chunk, backend=self.backend.name
                    ):
                        idx_rows, _ = self.backend.query(x_test[s:e], k_eff)
                rectangular = all(
                    np.asarray(row).shape[0] == k_eff for row in idx_rows
                )
                plan = RankPlan.from_neighbor_rows(
                    idx_rows, self.y_train, y_test[s:e]
                )
                with tracer.span(f"kernel.{kernel.name}", parent=chunk):
                    dense = kernel.values_from_plan(
                        plan, self.k, k_star=k_star, exact_anchor=True
                    )
                partial = dense.sum(axis=0)
                return (
                    partial,
                    idx_rows if cached_idx is None else None,
                    rectangular,
                    dense if store_per_test else None,
                )

        results = self._run_chunks(worker, spans)
        with tracer.span("engine.merge", parent=root, n_chunks=len(spans)):
            merge_start = time.perf_counter()
            total = np.zeros(n, dtype=np.float64)
            for partial, _, rect, _ in results:
                total += partial
                exactly_k = exactly_k and rect
            values = total / n_test
            merge_seconds = time.perf_counter() - merge_start
        if (
            key is not None
            and cached_idx is None
            and exactly_k
            and not isinstance(self.backend, LSHNeighborBackend)
        ):
            idx = np.vstack(
                [np.asarray(r[1], dtype=np.intp).reshape(-1, k_eff) for r in results]
            )
            self.cache.put_topk(key, k_eff, idx)
        elapsed = time.perf_counter() - start
        self._record_request(len(spans), elapsed, merge_seconds)
        extra = {
            "k": self.k,
            "metric": self.metric,
            "backend": self.backend.name,
            "kernel": kernel.name,
            "epsilon": epsilon,
            "k_star": k_star,
            "n_chunks": len(spans),
            "n_workers": self.n_workers,
            "cache": (
                self.cache.stats.as_dict() if self.cache is not None else None
            ),
            "elapsed_seconds": elapsed,
        }
        if isinstance(self.backend, LSHNeighborBackend):
            extra["delta"] = self.backend.delta
            extra["params"] = self.backend.params
            if self.backend.last_stats is not None:
                extra["mean_candidates"] = self.backend.last_stats.mean_candidates
        if store_per_test:
            extra["per_test"] = np.concatenate([r[3] for r in results], axis=0)
        return ValuationResult(values=values, method=method, extra=extra)

    # ------------------------------------------------------------------
    def _value_mc(
        self,
        x_test: np.ndarray,
        y_test: np.ndarray,
        epsilon: float,
        delta: float,
        n_permutations: Optional[int],
        seed: Optional[int],
        store_per_test: bool,
        check_deadline,
    ) -> ValuationResult:
        """Sort-free Monte Carlo estimation with a Theorem 5 certificate.

        The overload rung of the precision ladder: cost is
        ``T * O(K ln N)`` heap events over raw distances per test
        point, with ``T`` independent of N for fixed ``(epsilon,
        delta)`` (Figure 11's flattening curve) — no ranking, no sort,
        no kernel.  Chunk results merge by eq 8 additivity exactly
        like the other paths, and each chunk draws its permutations
        from its own spawned child stream so the output is
        deterministic in ``seed`` regardless of thread scheduling.
        """
        if self.task != "classification":
            raise ParameterError(
                "method='mc' replays the unweighted KNN classification "
                "utility and is defined for classification only"
            )
        r = 1.0 / self.k
        with self._state_lock.read():
            if x_test.shape[1] != self.x_train.shape[1]:
                raise ParameterError(
                    f"x_test has {x_test.shape[1]} features, expected "
                    f"{self.x_train.shape[1]}"
                )
            start = time.perf_counter()
            n, n_test = self.n_train, x_test.shape[0]
            if n_permutations is None:
                t_budget = bennett_permutations(
                    epsilon, delta, n, self.k, r
                )
                cert_eps = float(epsilon)
            else:
                if n_permutations <= 0:
                    raise ParameterError(
                        "n_permutations must be positive, got "
                        f"{n_permutations}"
                    )
                t_budget = int(n_permutations)
                # an explicit budget certifies the epsilon it buys,
                # not the one the caller asked for
                cert_eps = certified_epsilon(
                    t_budget, delta, n, self.k, r
                )
            spans = self._chunk_spans(n_test)
            streams = np.random.SeedSequence(seed).spawn(len(spans))
            metric_fn = get_metric(self.metric)
            data = self.backend.data
            y_train = self.y_train
            tracer = self.tracer
            with tracer.span(
                "engine.request",
                method="mc",
                backend=self.backend.name,
                n_test=n_test,
                n_train=n,
                n_permutations=t_budget,
            ) as root:

                def worker(s: int, e: int):
                    check_deadline()
                    with tracer.span(
                        "engine.chunk", parent=root, start=s, stop=e
                    ) as chunk:
                        with tracer.span("engine.distances", parent=chunk):
                            dist = metric_fn(x_test[s:e], data)
                        match = (
                            y_train[None, :] == y_test[s:e, None]
                        ).astype(np.float64)
                        with tracer.span("kernel.mcserve", parent=chunk):
                            per_test = mc_values_from_distances(
                                dist,
                                match,
                                self.k,
                                t_budget,
                                np.random.default_rng(streams[spans.index((s, e))]),
                            )
                        return (
                            per_test.sum(axis=0),
                            per_test if store_per_test else None,
                        )

                results = self._run_chunks(worker, spans)
                with tracer.span(
                    "engine.merge", parent=root, n_chunks=len(spans)
                ):
                    merge_start = time.perf_counter()
                    total = np.zeros(n, dtype=np.float64)
                    for partial, _ in results:
                        total += partial
                    values = total / n_test
                    merge_seconds = time.perf_counter() - merge_start
            elapsed = time.perf_counter() - start
            self._record_request(len(spans), elapsed, merge_seconds)
            extra = {
                "k": self.k,
                "metric": self.metric,
                "backend": self.backend.name,
                "kernel": "mcserve",
                "epsilon": cert_eps,
                "delta": float(delta),
                "n_permutations": t_budget,
                "certificate": {
                    "epsilon": cert_eps,
                    "delta": float(delta),
                    "n_permutations": t_budget,
                    "bound": "bennett-theorem5",
                },
                "n_chunks": len(spans),
                "n_workers": self.n_workers,
                "elapsed_seconds": elapsed,
            }
            if store_per_test:
                extra["per_test"] = np.concatenate(
                    [r[1] for r in results], axis=0
                )
            if root:
                extra["trace"] = root.summary()
            return ValuationResult(values=values, method="mc", extra=extra)
