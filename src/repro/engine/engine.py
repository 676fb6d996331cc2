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

Each request is resolved once into a
:class:`~repro.engine.plan.RequestPlan` (kernel, retrieval kind,
checks), so any kernel of the :mod:`repro.core.kernels` registry
(including third-party ones) gets batching, caching and parallel
merging for free:

* ``method="exact"`` — Theorem 1 (classification) / Theorem 6
  (regression) over a full ranking; exact-search backends only.
* ``method="truncated"`` — Theorem 2 over top-``K*`` neighbors, any
  backend.
* ``method="lsh"`` — Theorem 4: the truncated kernel over an LSH
  backend's approximate neighbors.
* ``method="weighted"`` — Theorem 7 over a full ranking with
  distances (classification eq 26 / regression eq 27).  The plan
  picks the kernel's execution path per request (``mode="auto"``: the
  O(N) K=1 collapse, the O(N·poly(K)) piecewise counting/moment paths
  for rank-only weights on either task, or the batched configuration
  engine, which enumerates in fixed-size blocks);
  the chosen path is surfaced in
  ``ValuationResult.extra["weighted_path"]`` and counted in
  :meth:`ValuationEngine.stats`.
* ``method="mc"`` — Theorem 5's sort-free Monte Carlo sampler over raw
  distances, with its certificate.
* any other name — looked up in the kernel registry and routed by its
  :class:`~repro.core.kernels.KernelCapabilities`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

import numpy as np

from ..exceptions import ParameterError
from ..monitor.tracing import NOOP_TRACER
from ..stats import component_stats
from ..types import (
    Dataset,
    ValuationResult,
    as_float_matrix,
    as_label_vector,
    as_new_points,
    as_removal_indices,
)
from .backends import LSHNeighborBackend, NeighborBackend, make_backend, usable_cores
from .cache import RankCache, array_fingerprint, dataset_fingerprint
from .plan import RequestPlan, _Budget, as_query_batch, plan_request

__all__ = ["ValuationEngine"]


def _default_workers() -> int:
    return min(4, usable_cores())


def chunk_spans(
    n_test: int, n_train: int, size: Optional[int] = None
) -> list[tuple[int, int]]:
    """Split ``n_test`` test rows into ``(start, stop)`` chunks.

    The default size keeps each chunk's ``(q, n_train)`` working set
    around 2^21 elements.
    """
    if size is None:
        size = int(max(1, min(256, 2**21 // max(1, n_train))))
    return [(s, min(n_test, s + size)) for s in range(0, n_test, size)]


def build_backend(
    backend, backend_options: Optional[dict], metric: Optional[str]
) -> NeighborBackend:
    """The unfitted backend an engine with these arguments would use.

    A ``"brute"`` or ``"blocked"`` name gets ``metric`` (default
    euclidean) unless ``backend_options`` names one; an instance is
    passed through.  Callers that must refuse a backend before it fits
    check it here and hand the instance to the engine.
    """
    options = dict(backend_options or {})
    if isinstance(backend, str) and backend in ("brute", "blocked"):
        options.setdefault("metric", metric or "euclidean")
    return make_backend(backend, **options)


def _stack(parts) -> np.ndarray:
    """Chunks stacked along the test axis; one chunk is kept as is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=0)


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
        Distance metric.  ``None`` (default) adopts the backend's
        metric (``"euclidean"`` for the default brute backend and for
        LSH); an explicit value that conflicts with it raises, so the
        ranking, the Monte Carlo distance scan and ``extra["metric"]``
        always share one geometry.
    backend:
        Registered backend name (``"brute"``, ``"blocked"``, ``"lsh"``)
        or a pre-built :class:`NeighborBackend`.
    backend_options:
        Keyword arguments for the backend factory (ignored when
        ``backend`` is an instance).
    cache:
        ``True`` (default) for a private :class:`RankCache`, ``False``
        to disable memoization, or a shared :class:`RankCache`.  With
        a cache, the training set is hashed once, here; engines built
        over equal arrays share entries, and each mutation derives the
        next identity from what changed.  Without one, nothing is
        hashed.
    n_workers:
        Thread count for chunk execution; defaults to ``min(4, usable
        cores)``, the CPUs this process may run on (its affinity mask,
        not the host's CPU count).
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
        metric: Optional[str] = None,
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
        self.backend: NeighborBackend = build_backend(backend, backend_options, metric)
        # the backend ranks in its own metric: adopt it, refuse a conflict
        backend_metric = getattr(self.backend, "metric", None)
        if metric is not None and backend_metric not in (None, metric):
            raise ParameterError(
                f"metric {metric!r} conflicts with the backend's "
                f"{backend_metric!r}; an engine ranks and scores in one "
                "geometry"
            )
        self.metric = metric or backend_metric or "euclidean"
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
        # the training set's cache identity; only a cache reads it, so
        # an engine without one never hashes the training set
        self._train_fp = (
            None if self.cache is None else array_fingerprint(self.x_train)
        )
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
    def _check_features(self, x_test: np.ndarray) -> None:
        if x_test.shape[1] != self.x_train.shape[1]:
            raise ParameterError(
                f"x_test has {x_test.shape[1]} features, expected "
                f"{self.x_train.shape[1]}"
            )

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
        ``backend.query`` retrieval and ``kernel.<name>`` spans;
        ``backend.rank`` records the row ``blocks`` it ran in), an
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
        stack; each nested dict follows the same schema.
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
            ``"reference"``, resolved once per
            request by :func:`repro.engine.plan.plan_request`);
            ignored by the other methods.  The resolved path lands in
            ``extra["weighted_path"]`` and the engine's path counters.
        deadline_s:
            Optional compute budget in seconds, measured from request
            entry.  Checked before every chunk, between the
            configuration blocks of ``method="weighted"``'s
            ``vectorized`` path, and once after the last chunk: when
            the budget is spent the request raises
            :class:`~repro.exceptions.DeadlineExceededError` instead
            of starting more work or returning a late answer (other
            kernels are never aborted mid-chunk, so their raise comes
            at most one chunk late).
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
        budget = _Budget.admit(deadline_s)
        with self._state_lock.read():
            self._check_features(x_test)
            with self.tracer.span(
                "engine.request",
                method=method,
                backend=self.backend.name,
                n_test=int(x_test.shape[0]),
                n_train=self.n_train,
            ) as root:
                plan = plan_request(
                    method, task=self.task, k=self.k, n_train=self.n_train,
                    epsilon=epsilon, weights=weights, mode=mode, delta=delta,
                    n_permutations=n_permutations,
                )
                self._check_backend(plan)
                if plan.extra.get("weighted_path") is not None:
                    self._record_weighted_path(plan.extra["weighted_path"])
                plan.annotate(root)
                result = self._execute(
                    plan, x_test, y_test, store_per_test, budget, seed, root
                )
            if root:
                # summarized after the span closed, so the root's own
                # duration is final when it lands in the result
                result.extra["trace"] = root.summary()
            return result

    def _check_backend(self, plan: RequestPlan) -> None:
        """Reject a plan this engine's backend cannot retrieve for."""
        if plan.method == "lsh" and not isinstance(
            self.backend, LSHNeighborBackend
        ):
            raise ParameterError(
                "method='lsh' requires the 'lsh' backend, not "
                f"{self.backend.name!r}"
            )
        if plan.retrieval == "full" and not self.backend.supports_full_ranking:
            raise ParameterError(
                f"backend {self.backend.name!r} cannot produce the full "
                f"rankings the {plan.method!r} method needs; use "
                "method='truncated' or 'lsh'"
            )

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
            self._check_features(x_test)
            start = time.perf_counter()
            with self.tracer.span(
                "engine.retrieve",
                backend=self.backend.name,
                n_test=int(x_test.shape[0]),
                k=-1 if k is None else int(k),
            ) as span:
                if k is None and not self.backend.supports_full_ranking:
                    raise ParameterError(
                        f"backend {self.backend.name!r} cannot produce "
                        "full rankings; retrieve with an explicit k"
                    )
                out = self._retrieve_all(
                    "full" if k is None else "topk", x_test, span,
                    k_eff=None if k is None else min(int(k), self.n_train),
                )
            hub = self.telemetry
            if hub is not None:
                hub.count("engine.retrievals")
                hub.record(
                    "engine.retrieve_seconds", time.perf_counter() - start
                )
            return out

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
            self._check_features(x_test)
            start = time.perf_counter()
            dist = self._retrieve_all("distances", x_test, None)
            hub = self.telemetry
            if hub is not None:
                hub.count("engine.distance_scans")
                hub.record(
                    "engine.distances_seconds", time.perf_counter() - start
                )
            return dist

    def _retrieve_all(self, kind: str, x_test: np.ndarray, span, k_eff=None):
        """A whole batch through :meth:`_retrieval`, distances included,
        with no backend span under the leg's own ``span``."""
        fetch, store = self._retrieval(
            kind, x_test, span, k_eff=k_eff, need_dist=True, tracer=NOOP_TRACER
        )
        out = fetch(0, x_test.shape[0], span)
        if store is not None:
            store()
        return out

    # ------------------------------------------------------------------
    # dynamic datasets: mutate the training set being valued
    def add_points(self, x_new: np.ndarray, y_new: np.ndarray) -> np.ndarray:
        """Append training points; returns the indices they received.

        Runs under the exclusive side of the engine's reader-writer
        lock, so no valuation observes a half-applied mutation.  Exact
        backends absorb the append in place; the LSH backend inserts
        into its existing buckets and only falls back to a warned
        refit when ``n`` drifts beyond its tuned size.  Cached
        rankings of the *old* training set are evicted by its identity
        — entries for other datasets sharing the cache survive — and
        the new identity is derived from the appended rows alone.
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
                self._invalidate_train_fp("add", x_new)
                return np.arange(first, first + x_new.shape[0], dtype=np.intp)

    def remove_points(self, idx) -> None:
        """Delete training points by index (``numpy.delete`` semantics)."""
        idx = as_removal_indices(idx)
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
                self._invalidate_train_fp("remove", np.sort(idx))

    def _invalidate_train_fp(self, op: str, change: np.ndarray) -> None:
        """Chain the training identity through one mutation; evict the old one.

        The new identity hashes the old one, ``op`` and the fingerprint
        of ``change`` alone (the appended rows, or the sorted removal
        indices), so a join or leave costs O(change), not O(N·d).
        Appends stack and deletes follow ``numpy.delete``, so equal
        histories from equal arrays mean equal training sets.  Equal
        sets reached through different histories get different
        identities: a miss, never a wrong hit.
        """
        if self.cache is not None:
            old_fp = self._train_fp
            self._train_fp = dataset_fingerprint(change, extra=(old_fp, op))
            self.cache.invalidate(old_fp)
        with self._ops_lock:
            self._ops["mutations"] += 1
        hub = self.telemetry
        if hub is not None:
            hub.count("engine.mutations")

    # ------------------------------------------------------------------
    def _execute(
        self,
        plan: RequestPlan,
        x_test: np.ndarray,
        y_test: np.ndarray,
        store_per_test: bool,
        budget: Optional[_Budget],
        seed: Optional[int],
        root,
    ) -> ValuationResult:
        """Chunked execution of a resolved plan: retrieve, kernel, merge.

        :meth:`RequestPlan.run_chunks` runs the chunks on this
        engine's threads over its cache-plus-backend fetch.  ``root``
        is the request's root :class:`~repro.monitor.tracing.Span`
        (the shared null span when tracing is off); chunk spans parent
        to it *explicitly* because pool threads do not inherit the
        caller's context.
        """
        start = time.perf_counter()
        spans = chunk_spans(x_test.shape[0], self.n_train, self.chunk_size)
        fetch, store = self._retrieval(
            plan.retrieval, x_test, root, k_eff=plan.k_eff,
            need_dist=(
                plan.retrieval == "full"
                and plan.kernel.capabilities.needs_distances
            ),
        )
        values, per_test, merge_seconds = plan.run_chunks(
            lambda s, e, chunk: (fetch(s, e, chunk), None),
            spans, self.y_train, y_test, store_per_test,
            seed=seed, budget=budget, workers=self.n_workers,
            tracer=self.tracer, parent=root,
            chunk_span="engine.chunk", merge_span="engine.merge",
        )
        if store is not None:
            store()
        elapsed = time.perf_counter() - start
        self._record_request(len(spans), elapsed, merge_seconds)
        extra = {
            "k": self.k,
            "metric": self.metric,
            "backend": self.backend.name,
            **plan.extra,
            "n_chunks": len(spans),
            "n_workers": self.n_workers,
            "elapsed_seconds": elapsed,
        }
        if plan.retrieval != "distances":
            extra["cache"] = (
                self.cache.stats.as_dict() if self.cache is not None else None
            )
        if plan.retrieval == "topk" and isinstance(self.backend, LSHNeighborBackend):
            extra["delta"] = self.backend.delta
            extra["params"] = self.backend.params
            if self.backend.last_stats is not None:
                extra["mean_candidates"] = self.backend.last_stats.mean_candidates
        if store_per_test:
            extra["per_test"] = per_test
        return ValuationResult(values=values, method=plan.out_method, extra=extra)

    def _retrieval(
        self,
        kind: str,
        x_test: np.ndarray,
        root,
        *,
        k_eff: Optional[int] = None,
        need_dist: bool = False,
        tracer=None,
    ):
        """The chunk fetch for one retrieval ``kind``, under the cache rules.

        Returns ``(fetch, store)``: ``fetch(s, e, chunk)`` retrieves test
        rows ``[s, e)`` in the form
        :meth:`~repro.engine.plan.RequestPlan.chunk_partial` takes, plus
        distances with every ranking or top-k row when ``need_dist``
        (the top-k cache holds rows only).  ``store()``, when not
        ``None``, caches the fetched chunks once every chunk ran — full
        rankings that fit one entry, or rectangular top-k rows from a
        non-LSH backend.  Backend spans open through ``tracer``.
        """
        backend, cache = self.backend, self.cache
        tracer = self.tracer if tracer is None else tracer
        if kind == "distances":
            index = backend.search_index(self.metric)

            def scan(s: int, e: int, chunk):
                with tracer.span("engine.distances", parent=chunk):
                    return index.distances(x_test[s:e])

            return scan, None
        full = kind == "full"
        if not full:
            with tracer.span("backend.prepare", parent=root, k=k_eff):
                backend.prepare(x_test, k_eff)
        key = cached = None
        if cache is None:
            root.set("cache", "off")
        elif full or not need_dist:
            key = self._cache_key(array_fingerprint(x_test))
            if not full:
                cached = cache.get_topk(key, k_eff)
            elif need_dist:
                cached = cache.get_ranking_with_distances(key)
            else:
                order = cache.get_ranking(key)
                cached = None if order is None else (order, None)
            root.set("cache", "miss" if cached is None else "hit")
        if cached is not None:
            if not full:
                return (lambda s, e, chunk: cached[s:e]), None
            order, dist = cached
            return (
                lambda s, e, chunk: (order[s:e], dist if dist is None else dist[s:e])
            ), None

        def fetch(s: int, e: int, chunk):
            if not full:
                with tracer.span("backend.query", parent=chunk, backend=backend.name):
                    got = backend.query(x_test[s:e], k_eff)
                    return got if need_dist else got[0]
            with tracer.span("backend.rank", parent=chunk, backend=backend.name) as span:
                if need_dist:
                    got = backend.rank_with_distances(x_test[s:e])
                else:
                    got = backend.rank(x_test[s:e]), None
                span.set("blocks", backend.rank_blocks())
                return got

        if key is None or (
            x_test.shape[0] * self.n_train > cache.max_entry_elements
            if full
            else isinstance(backend, LSHNeighborBackend)
        ):
            return fetch, None
        kept: dict = {}

        def fetch_kept(s: int, e: int, chunk):
            kept[s] = fetch(s, e, chunk)
            return kept[s]

        def store() -> None:
            chunks = [kept[s] for s in sorted(kept)]
            if full:
                orders, dists = zip(*chunks)
                cache.put_ranking(
                    key,
                    _stack(orders),
                    distances=_stack(dists) if need_dist else None,
                )
            elif all(np.asarray(row).shape[0] == k_eff for rows in chunks for row in rows):
                rows = [np.asarray(r, dtype=np.intp).reshape(-1, k_eff) for r in chunks]
                cache.put_topk(key, k_eff, np.vstack(rows))

        return fetch_kept, store
