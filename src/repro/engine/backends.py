"""Pluggable neighbor-search backends for the valuation engine.

Every valuation algorithm in the paper reduces to one of two retrieval
primitives over a *fixed* training set:

* a full ascending distance ranking per test point (Theorem 1 / 6), or
* the top ``K*`` nearest neighbors per test point (Theorems 2-4).

:class:`NeighborBackend` names exactly that contract, fit-once /
query-many, so the engine can swap the physical execution plan without
touching the valuation math:

* ``"brute"`` — :class:`BruteForceBackend`, exact search over the whole
  matrix at once; the fastest plan when the ``(q, n)`` distance block
  fits comfortably in memory.  A large full ranking runs in row blocks
  on otherwise idle cores.
* ``"blocked"`` — :class:`BlockedExactBackend`, exact search with
  chunked distance computation: top-``k`` queries stream over training
  blocks with a running merge, so peak memory is ``O(q_block * (block
  + k))`` instead of ``O(q * n)`` and a ``q x n`` rank matrix never
  fully materializes.
* ``"lsh"`` — :class:`LSHNeighborBackend`, an adapter over
  :class:`repro.lsh.tables.LSHIndex` with the paper's Section 6.1
  parameter tuning, giving sublinear approximate top-``K*`` retrieval.

Backends register themselves in a name registry
(:func:`register_backend` / :func:`make_backend`) so downstream code —
and tests — can enumerate and construct them uniformly.
"""

from __future__ import annotations

import os
import queue
import threading
import time
import warnings
from abc import ABC, abstractmethod
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from ..exceptions import NotFittedError, ParameterError
from ..knn.distance import get_metric
from ..knn.search import KNNSearchIndex, stable_argsort_rows, stable_sort_rows
from ..rng import SeedLike
from ..stats import component_stats
from ..types import as_removal_indices

__all__ = [
    "NeighborBackend",
    "BruteForceBackend",
    "BlockedExactBackend",
    "LSHNeighborBackend",
    "register_backend",
    "available_backends",
    "make_backend",
    "usable_cores",
]

class NeighborBackend(ABC):
    """Fit-once / query-many neighbor retrieval behind the engine.

    Subclasses implement :meth:`query` (top-``k``) and, when they can,
    :meth:`rank` (full ascending ranking) and set
    :attr:`supports_full_ranking`.
    """

    #: registry name; overridden by subclasses
    name: str = "abstract"
    #: whether :meth:`rank` is implemented (exact backends only)
    supports_full_ranking: bool = False
    #: whether :meth:`partial_fit` / :meth:`forget` update the index in
    #: place; ``False`` means mutation falls back to a full refit
    supports_incremental_mutation: bool = False

    def __init__(self) -> None:
        self._data: np.ndarray | None = None
        self._exact_index: KNNSearchIndex | None = None
        #: optional :class:`repro.monitor.TelemetryHub`; when attached,
        #: retrieval calls publish latency (and, for LSH, candidate
        #: statistics plus a query reservoir) into it
        self.telemetry = None
        self._ops_lock = threading.Lock()
        self._ops: Dict[str, int] = {
            "queries": 0,
            "fits": 0,
            "partial_fits": 0,
            "forgets": 0,
        }

    # ------------------------------------------------------------------
    def fit(self, data: np.ndarray) -> "NeighborBackend":
        """Index ``data``; returns ``self`` for chaining."""
        data = np.ascontiguousarray(np.atleast_2d(data), dtype=np.float64)
        if data.shape[0] == 0:
            raise ParameterError("cannot fit a backend on zero points")
        self._data = data
        self._fit(data)
        self._count("fits")
        return self

    def _fit(self, data: np.ndarray) -> None:
        """Subclass hook run after :meth:`fit` stores the data."""

    def _require_fitted(self) -> np.ndarray:
        if self._data is None:
            raise NotFittedError(f"{type(self).__name__}.fit must be called first")
        return self._data

    @property
    def n(self) -> int:
        """Number of indexed points."""
        return int(self._require_fitted().shape[0])

    @property
    def data(self) -> np.ndarray:
        """The indexed points, ``(n, d)``.

        Callers must treat this as read-only; mutation goes through
        :meth:`partial_fit` / :meth:`forget`.  Exposed so the owning
        engine can alias the index's array instead of keeping a second
        copy of the training set.
        """
        return self._require_fitted()

    @property
    def n_features(self) -> int:
        """Feature dimensionality of the indexed points."""
        return int(self._require_fitted().shape[1])

    def search_index(self, metric: str) -> KNNSearchIndex:
        """Exact search over the indexed points, with their row norms kept.

        Built at the first call, not in :meth:`fit`, and kept for as
        long as the data array it was built on: a join or leave
        replaces that array, so the next call builds anew.  Exact
        retrieval and the engine's Monte Carlo distance scan read the
        kept norms instead of recomputing them per request.
        """
        data = self._require_fitted()
        index = self._exact_index
        if index is None or index.data is not data or index.metric != metric:
            index = self._exact_index = KNNSearchIndex(data, metric)
        return index

    # ------------------------------------------------------------------
    # dynamic datasets: append / delete indexed points
    def partial_fit(self, points: np.ndarray) -> None:
        """Append ``points`` to the index; they take the next indices.

        Exact backends (whose index *is* the data matrix) absorb the
        append in place; backends with derived structures fall back to
        a refit via the :meth:`_partial_fit` hook.
        """
        data = self._require_fitted()
        points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
        if points.shape[0] == 0:
            return
        if points.shape[1] != data.shape[1]:
            raise ParameterError(
                f"new points have {points.shape[1]} features, expected "
                f"{data.shape[1]}"
            )
        self._data = np.ascontiguousarray(np.vstack((data, points)))
        self._partial_fit(points)
        self._count("partial_fits")

    def _partial_fit(self, points: np.ndarray) -> None:
        """Subclass hook after an append; the default refits."""
        self._fit(self._data)

    def forget(self, idx) -> None:
        """Delete the points at ``idx``; later indices shift down.

        Index semantics match ``numpy.delete``: all positions refer to
        the indexing *before* the call.
        """
        data = self._require_fitted()
        idx = as_removal_indices(idx)
        if idx.size == 0:
            return
        n = data.shape[0]
        if np.any(idx < 0) or np.any(idx >= n):
            raise ParameterError(
                f"forget indices must lie in [0, {n}), got {idx.tolist()}"
            )
        if np.unique(idx).size != idx.size:
            raise ParameterError(f"forget indices must be unique, got {idx.tolist()}")
        if idx.size >= n:
            raise ParameterError("cannot forget every indexed point")
        self._data = np.ascontiguousarray(np.delete(data, idx, axis=0))
        self._forget(idx)
        self._count("forgets")

    def _forget(self, idx: np.ndarray) -> None:
        """Subclass hook after a delete; the default refits."""
        self._fit(self._data)

    # ------------------------------------------------------------------
    # telemetry: counters and the publishing chokepoint
    def _count(self, op: str, n: int = 1) -> None:
        with self._ops_lock:
            self._ops[op] = self._ops.get(op, 0) + int(n)

    def record_retrieval(self, n_queries: int, seconds: float) -> None:
        """Publish one retrieval batch (count + latency) to telemetry.

        Concrete backends call this from their ``query`` / ``rank``
        paths; with no hub attached it is a counter bump and nothing
        else, cheap enough for the serving hot path.
        """
        self._count("queries", n_queries)
        hub = self.telemetry
        if hub is not None:
            hub.record(f"backend.{self.name}.query_seconds", seconds)
            hub.count(f"backend.{self.name}.queries", n_queries)

    def spot_query(
        self, queries: np.ndarray, k: int
    ) -> tuple[Sequence[np.ndarray], Sequence[np.ndarray]]:
        """Top-``k`` retrieval *without* telemetry publication.

        Monitoring spot checks (recall proxies) retrieve through the
        backend they are measuring; routing them through :meth:`query`
        would feed the check's own traffic back into the drift streams
        it informs.  The LSH backend (the one the recall detectors
        watch) overrides this to skip its publication; the default
        simply forwards.
        """
        return self.query(queries, k)

    def stats(self) -> dict:
        """Unified-schema snapshot (see :mod:`repro.stats`)."""
        with self._ops_lock:
            counters = dict(self._ops)
        gauges: dict = {}
        if self._data is not None:
            gauges["n"] = int(self._data.shape[0])
            gauges["n_features"] = int(self._data.shape[1])
        return component_stats(
            f"backend.{self.name}", counters=counters, gauges=gauges
        )

    # ------------------------------------------------------------------
    def prepare(self, queries: np.ndarray, k: int) -> None:
        """Optional hook called once per query batch before chunking.

        The engine splits query sets into chunks; backends whose setup
        depends on the *whole* batch (LSH parameter tuning) do it here
        so every chunk then hits the same index.
        """

    @abstractmethod
    def query(
        self, queries: np.ndarray, k: int
    ) -> tuple[Sequence[np.ndarray], Sequence[np.ndarray]]:
        """Top-``k`` neighbors per query, nearest first.

        Returns ``(indices, distances)``, each indexable row-wise.
        Exact backends return rectangular ``(q, min(k, n))`` arrays;
        approximate backends may return ragged lists whose rows fall
        short of ``k``.
        """

    def rank(self, queries: np.ndarray) -> np.ndarray:
        """Full ascending distance ranking, shape ``(q, n)``.

        Ties are broken by index.  Only exact backends implement this;
        the default raises so callers can route approximate backends to
        the truncated algorithms instead.
        """
        raise ParameterError(
            f"backend {self.name!r} cannot produce full rankings; "
            "use the truncated / LSH valuation path"
        )

    def rank_with_distances(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Full ranking plus the sorted distances, each ``(q, n)``.

        The incremental valuation path needs both: the sorted distance
        rows are what new points binary-search into.  Exact backends
        implement it; the default raises like :meth:`rank`.
        """
        raise ParameterError(
            f"backend {self.name!r} cannot produce full rankings; "
            "use the truncated / LSH valuation path"
        )

    def rank_blocks(self) -> int:
        """Row blocks the calling thread's last full ranking ran in.

        1 for backends that never split a ranking.
        """
        return 1

    def cache_token(self) -> str:
        """A string identifying this backend's *result semantics*.

        Two backends with the same token return the same neighbors for
        the same data, so cached rankings are interchangeable between
        them.  All exact backends share a token per metric; stochastic
        backends must include their randomness.
        """
        return f"exact:{getattr(self, 'metric', 'euclidean')}"


# ----------------------------------------------------------------------
# one full ranking on the idle cores

#: the fewest distance entries a row block of a split ranking keeps
SPLIT_FLOOR = 1 << 17


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask, not the host's count."""
    count = getattr(os, "process_cpu_count", None)
    if count is not None:
        n = count()
    else:
        try:
            n = len(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            n = os.cpu_count()
    return max(1, n or 1)


class _Block:
    """One row block handed to a helper; ``done`` is set once it ran."""

    __slots__ = ("fn", "error", "done")

    def __init__(self, fn: Callable[[], None]) -> None:
        self.fn = fn
        self.error: Optional[BaseException] = None
        self.done = threading.Event()


class _RankHelpers:
    """Process-wide helper threads that run row blocks of one ranking.

    *Occupancy* is the full rankings in flight in the process plus the
    helpers running a block.  A ranking gets a helper only while
    occupancy is below :func:`usable_cores`, and only one that is idle
    at that moment: the caller never waits for a helper to free up, it
    runs the rest itself.  So nested callers (engine chunk threads,
    service workers, router legs) cannot deadlock, and a split never
    oversubscribes: a helper starts a block only while rankings plus
    busy helpers stay within the cores.  A helper's block never ranks
    again, so waiting for the blocks a caller handed out always ends.

    The helpers are daemon threads named ``repro-rank-<i>``, at most
    ``usable_cores() - 1`` of them, started at the first split.  No
    engine owns them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rankings = 0
        self._busy = 0
        self._idle: list = []
        self._started = 0

    @contextmanager
    def ranking(self):
        """Count one full ranking in flight for the duration."""
        with self._lock:
            self._rankings += 1
        try:
            yield
        finally:
            with self._lock:
                self._rankings -= 1

    def claim(self, wanted: int, cores: int) -> list:
        """Inboxes of up to ``wanted`` idle helpers, within occupancy."""
        with self._lock:
            take = min(wanted, cores - self._rankings - self._busy)
            while len(self._idle) < take and self._started < cores - 1:
                inbox: queue.SimpleQueue = queue.SimpleQueue()
                threading.Thread(
                    target=self._serve, args=(inbox,),
                    name=f"repro-rank-{self._started}", daemon=True,
                ).start()
                self._started += 1
                self._idle.append(inbox)
            take = max(0, min(take, len(self._idle)))
            claimed = [self._idle.pop() for _ in range(take)]
            self._busy += take
        return claimed

    def _serve(self, inbox: queue.SimpleQueue) -> None:
        while True:
            block = inbox.get()
            try:
                block.fn()
            except BaseException as exc:  # handed back to the caller
                block.error = exc
            # idle again before the caller wakes, so its next ranking
            # can claim this helper
            with self._lock:
                self._busy -= 1
                self._idle.append(inbox)
            block.done.set()

    @staticmethod
    def run(inboxes: list, jobs: list, own: Callable[[], None]) -> None:
        """Hand ``jobs[i]`` to ``inboxes[i]``, run ``own``, wait for all."""
        blocks = [_Block(job) for job in jobs]
        for inbox, block in zip(inboxes, blocks):
            inbox.put(block)
        try:
            own()
        finally:
            for block in blocks:
                block.done.wait()
        for block in blocks:
            if block.error is not None:
                raise block.error


_HELPERS = _RankHelpers()


# ----------------------------------------------------------------------
class BruteForceBackend(NeighborBackend):
    """Exact search computing the whole distance block at once.

    A full ranking (:meth:`rank`, :meth:`rank_with_distances`) runs in
    up to :func:`usable_cores` row blocks when cores are idle.  Each
    block computes its rows' distances and sorts them into its slice of
    one ``(q, n)`` result; a row's distances and order do not depend on
    the rows beside it, so the result is bit-identical to one block.
    Every block keeps at least two rows (a one-row product goes through
    BLAS ``gemv``, which sums in another order than ``gemm``) and about
    ``SPLIT_FLOOR`` distance entries, below which a thread handoff
    costs more than it saves.

    Parameters
    ----------
    metric:
        Distance metric name from :mod:`repro.knn.distance`.
    """

    name = "brute"
    supports_full_ranking = True
    supports_incremental_mutation = True

    def __init__(self, metric: str = "euclidean") -> None:
        super().__init__()
        get_metric(metric)  # validate eagerly
        self.metric = metric
        self._ops.update(rank_splits=0, rank_split_declined=0)
        self._last = threading.local()

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        start = time.perf_counter()
        idx, dist = self.search_index(self.metric).query(queries, k)
        self.record_retrieval(idx.shape[0], time.perf_counter() - start)
        return idx, dist

    def rank(self, queries: np.ndarray) -> np.ndarray:
        # same metric as query() — not a rank-equivalent shortcut — so
        # tie-breaks agree bit-for-bit with top_k and a cached full
        # ranking can serve top-k requests interchangeably
        start = time.perf_counter()
        (order,) = self._ranked(
            queries, lambda dist: (stable_argsort_rows(dist),), (np.intp,)
        )
        self.record_retrieval(order.shape[0], time.perf_counter() - start)
        return order

    def rank_with_distances(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        start = time.perf_counter()
        order, sorted_dist = self._ranked(
            queries, stable_sort_rows, (np.intp, np.float64)
        )
        self.record_retrieval(order.shape[0], time.perf_counter() - start)
        return order, sorted_dist

    def rank_blocks(self) -> int:
        return getattr(self._last, "blocks", 1)

    def _ranked(self, queries: np.ndarray, sort, dtypes: tuple) -> tuple:
        """``sort(distances)`` of every query row, in 1..cores row blocks.

        ``sort`` returns one ``(rows, n)`` array per entry of ``dtypes``.
        """
        data = self._require_fitted()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        metric = get_metric(self.metric)
        norms = self.search_index(self.metric).data_norms
        q, n = queries.shape[0], data.shape[0]
        with _HELPERS.ranking():
            cores = usable_cores()
            wanted = min(cores, q // max(2, -(-SPLIT_FLOOR // n))) - 1
            helpers = _HELPERS.claim(wanted, cores) if wanted > 0 else []
            self._count("rank_splits" if helpers else "rank_split_declined")
            self._last.blocks = len(helpers) + 1
            if not helpers:
                return sort(metric(queries, data, norms))
            outs = tuple(np.empty((q, n), dtype=dtype) for dtype in dtypes)
            cuts = [q * i // (len(helpers) + 1) for i in range(len(helpers) + 2)]

            def block(s: int, e: int) -> None:
                for out, part in zip(outs, sort(metric(queries[s:e], data, norms))):
                    out[s:e] = part

            _HELPERS.run(
                helpers,
                [partial(block, s, e) for s, e in zip(cuts[1:-1], cuts[2:])],
                partial(block, 0, cuts[1]),
            )
            return outs

    # the index *is* the data matrix: base-class mutation needs no refit
    def _partial_fit(self, points: np.ndarray) -> None:
        pass

    def _forget(self, idx: np.ndarray) -> None:
        pass


# ----------------------------------------------------------------------
class BlockedExactBackend(NeighborBackend):
    """Exact search over training blocks with bounded memory.

    Distances are computed ``block_size`` training points at a time; a
    top-``k`` query keeps a running merge of the best candidates, so a
    query batch of ``q`` points costs ``O(q * (block_size + k))`` peak
    memory however large the training set is.  Full rankings are
    produced one ``query_block`` of test points at a time.  Results are
    identical (including index tie-breaks) to the brute backend.

    Parameters
    ----------
    metric:
        Distance metric name.
    block_size:
        Training points per distance block.
    query_block:
        Test points ranked per slab in :meth:`rank`.
    """

    name = "blocked"
    supports_full_ranking = True
    supports_incremental_mutation = True

    def __init__(
        self,
        metric: str = "euclidean",
        block_size: int = 4096,
        query_block: int = 64,
    ) -> None:
        super().__init__()
        if block_size <= 0:
            raise ParameterError(f"block_size must be positive, got {block_size}")
        if query_block <= 0:
            raise ParameterError(f"query_block must be positive, got {query_block}")
        get_metric(metric)
        self.metric = metric
        self.block_size = int(block_size)
        self.query_block = int(query_block)

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        data = self._require_fitted()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        start = time.perf_counter()
        n = data.shape[0]
        k_eff = min(k, n)
        kernel = get_metric(self.metric)
        out_idx = np.empty((queries.shape[0], k_eff), dtype=np.intp)
        out_dist = np.empty((queries.shape[0], k_eff), dtype=np.float64)
        for qs in range(0, queries.shape[0], self.query_block):
            qe = min(queries.shape[0], qs + self.query_block)
            q = queries[qs:qe]
            best_dist = np.empty((qe - qs, 0), dtype=np.float64)
            best_idx = np.empty((qe - qs, 0), dtype=np.intp)
            for ts in range(0, n, self.block_size):
                te = min(n, ts + self.block_size)
                block_dist = kernel(q, data[ts:te])
                block_idx = np.broadcast_to(
                    np.arange(ts, te, dtype=np.intp), block_dist.shape
                )
                cand_dist = np.concatenate((best_dist, block_dist), axis=1)
                cand_idx = np.concatenate((best_idx, block_idx), axis=1)
                # primary key distance, secondary key training index —
                # the same tie-break contract as knn.search.top_k
                order = np.lexsort((cand_idx, cand_dist), axis=-1)[:, :k_eff]
                best_dist = np.take_along_axis(cand_dist, order, axis=1)
                best_idx = np.take_along_axis(cand_idx, order, axis=1)
            out_idx[qs:qe] = best_idx
            out_dist[qs:qe] = best_dist
        self.record_retrieval(out_idx.shape[0], time.perf_counter() - start)
        return out_idx, out_dist

    def rank(self, queries: np.ndarray) -> np.ndarray:
        start = time.perf_counter()
        order = self._rank_slabs(queries, want_distances=False)[0]
        self.record_retrieval(order.shape[0], time.perf_counter() - start)
        return order

    def rank_with_distances(
        self, queries: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        start = time.perf_counter()
        order, sorted_dist = self._rank_slabs(queries, want_distances=True)
        assert sorted_dist is not None
        self.record_retrieval(order.shape[0], time.perf_counter() - start)
        return order, sorted_dist

    def _rank_slabs(
        self, queries: np.ndarray, want_distances: bool
    ) -> tuple[np.ndarray, np.ndarray | None]:
        data = self._require_fitted()
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        n = data.shape[0]
        kernel = get_metric(self.metric)
        order = np.empty((queries.shape[0], n), dtype=np.intp)
        sorted_dist = (
            np.empty((queries.shape[0], n), dtype=np.float64)
            if want_distances
            else None
        )
        dist = np.empty((self.query_block, n), dtype=np.float64)
        for qs in range(0, queries.shape[0], self.query_block):
            qe = min(queries.shape[0], qs + self.query_block)
            buf = dist[: qe - qs]
            for ts in range(0, n, self.block_size):
                te = min(n, ts + self.block_size)
                buf[:, ts:te] = kernel(queries[qs:qe], data[ts:te])
            if sorted_dist is None:
                order[qs:qe] = stable_argsort_rows(buf)
            else:
                order[qs:qe], sorted_dist[qs:qe] = stable_sort_rows(buf)
        return order, sorted_dist

    # the index *is* the data matrix: base-class mutation needs no refit
    def _partial_fit(self, points: np.ndarray) -> None:
        pass

    def _forget(self, idx: np.ndarray) -> None:
        pass


# ----------------------------------------------------------------------
class LSHNeighborBackend(NeighborBackend):
    """Adapter exposing :class:`repro.lsh.tables.LSHIndex` to the engine.

    Retrieval is approximate: a query may return fewer than ``k``
    neighbors, which is exactly what the truncated recursion of
    Theorem 2 tolerates.  Distances are Euclidean (the 2-stable family
    hashes l2 space).

    Mutations are absorbed in place while the indexed size stays close
    to the size the tables were tuned for: :meth:`partial_fit` hashes
    new points into the existing per-table buckets, and :meth:`forget`
    tombstones (queries skip the dead; :meth:`compact` scrubs them out
    without rehashing, preserving query results bit-for-bit).  Once
    ``n`` drifts more than :attr:`refit_drift` (25%) from the tuned
    size, the tuning assumptions of Section 6.1 no longer hold.  What
    happens then depends on whether a maintenance owner is attached:

    * with an :attr:`on_drift` hook (a
      :class:`repro.monitor.MaintenanceScheduler` installs one), the
      backend keeps absorbing mutations in place and the hook schedules
      a silent background :meth:`retune` — serving never warns and
      never stalls on an inline rebuild;
    * without one, the legacy escape hatch fires: a ``RuntimeWarning``
      and a full refit on the next query.

    :meth:`retune` is the adaptive-maintenance entry point: it
    re-estimates the relative contrast from current data (and, when
    given, a sample of recent queries — the telemetry reservoir),
    re-runs the Section 6.1 selection, and rebuilds.  Per-index
    telemetry counters (in-place inserts, tombstones) reset on every
    (re)build so monitored ratios always describe the live index.

    Tuning follows the paper's Section 6.1 recipe and happens lazily,
    because the table count depends on how many neighbors (``K*``) the
    valuation will request.  Two modes:

    * with ``tune_with_queries`` (default), :meth:`prepare` normalizes
      the data so the mean *query*-to-training distance is 1 and
      estimates the relative contrast from the query batch — the
      procedure of :func:`repro.lsh.valuation.lsh_knn_shapley`;
    * otherwise the contrast is estimated from the training set against
      itself, the only option in streaming settings where queries
      arrive after the index must exist.

    Parameters
    ----------
    delta:
        Allowed per-batch retrieval failure probability (Theorem 3).
    params:
        Pre-tuned :class:`repro.lsh.tuning.LSHParameters`; skips all
        estimation when given.
    alpha:
        Code-length multiplier forwarded to the tuner.
    tune_with_queries:
        See above.
    seed:
        Seed for contrast subsampling and hash projections.
    """

    name = "lsh"
    supports_full_ranking = False
    supports_incremental_mutation = True

    #: fractional drift of ``n`` from the tuned size beyond which
    #: mutations degrade to a warned full refit
    refit_drift = 0.25

    def __init__(
        self,
        delta: float = 0.1,
        params=None,
        alpha: float = 0.5,
        tune_with_queries: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if not 0 < delta < 1:
            raise ParameterError(f"delta must lie in (0, 1), got {delta}")
        self.delta = float(delta)
        self.alpha = float(alpha)
        self.tune_with_queries = bool(tune_with_queries)
        self.metric = "euclidean"
        self._seed = seed
        self._fixed_params = params
        self.params = params
        self._index = None
        self._scale = 1.0
        self._built_k = 0
        self._tuned_n = 0
        #: drift hook: called with this backend when a mutation finds
        #: the index outside its tuned band; returning True means a
        #: maintenance owner scheduled the recovery (keep mutating in
        #: place, no warning), False/None falls back to the warned refit
        self.on_drift: Optional[Callable[["LSHNeighborBackend"], bool]] = None
        self._baseline_candidates: float | None = None
        self._ops.update(
            builds=0,
            retunes=0,
            compactions=0,
            inserts_in_place=0,
            tombstones_in_place=0,
            deferred_refits=0,
            warned_refits=0,
        )
        #: external index -> internal LSHIndex id; ``None`` = identity
        #: (the two diverge only after a tombstoning ``forget``)
        self._ids: np.ndarray | None = None
        #: in-place mutations absorbed since the last (re)build — part
        #: of the cache token, since they change query results
        self._churn = 0
        self.build_seconds = 0.0
        self.last_stats = None
        # guards rebuilds: ValuationService workers share one backend,
        # and a rebuild swaps _index/_scale/params as a unit
        self._build_lock = threading.Lock()

    def _fit(self, data: np.ndarray) -> None:
        # tuning is deferred to the first prepare/query, when k is known
        self._index = None
        self._built_k = 0
        self._ids = None

    def _drifted(self) -> bool:
        """Whether the index left the band the tables were tuned for.

        Two signals: the *alive* count (tuning assumed it), and the
        index's *internal* row count — tombstones and appends both
        leave rows in the tables, so balanced add/remove churn grows
        the internal size without moving the alive count.  Bounding
        both means a refit (which compacts) always arrives before the
        index outgrows its tuned band, whatever the churn pattern.
        """
        n_now = self._data.shape[0]
        if abs(n_now - self._tuned_n) > self.refit_drift * self._tuned_n:
            return True
        return (
            self._index is not None
            and self._index.n > (1.0 + self.refit_drift) * self._tuned_n
        )

    # ------------------------------------------------------------------
    # the monitoring surface (read by repro.monitor detectors)
    @property
    def built_k(self) -> int:
        """The ``k`` the live index was built for (0 before any build)."""
        return self._built_k

    @property
    def scale(self) -> float:
        """Normalization scale the live index applies to raw data."""
        return self._scale

    @property
    def tuned_n(self) -> int:
        """Indexed size the live tuning assumed (0 before any build)."""
        return self._tuned_n

    @property
    def tombstone_ratio(self) -> float:
        """Fraction of internal index rows that are tombstoned."""
        index = self._index
        return 0.0 if index is None else index.tombstone_ratio

    @property
    def internal_n(self) -> int:
        """Internal index rows including tombstones (0 before a build).

        Balanced add/remove churn grows this without moving the alive
        count — the second signal :meth:`_drifted` bounds.
        """
        index = self._index
        return 0 if index is None else index.n

    @property
    def baseline_candidates(self) -> float | None:
        """Mean candidate-set size of the first batch after a build.

        The reference level candidate-distribution drift is measured
        against; ``None`` until the first post-build query.
        """
        return self._baseline_candidates

    @property
    def needs_refit(self) -> bool:
        """Whether the live index has left its tuned band."""
        with self._build_lock:
            return self._index is not None and self._drifted()

    def _handle_drift(self) -> bool:
        """Dispatch a drifted mutation; True = keep mutating in place.

        With an :attr:`on_drift` hook that accepts the signal, the
        recovery (a re-tune) is the hook owner's job and the mutation
        proceeds in place, silently.  Without one, the legacy escape
        hatch warns and drops the index for a full refit on the next
        query.
        """
        hook = self.on_drift
        if hook is not None and hook(self):
            self._count("deferred_refits")
            return True
        warnings.warn(
            "the LSH backend's indexed size drifted more than "
            f"{self.refit_drift:.0%} from the tuned size "
            f"({self._tuned_n}); falling back to a full refit on the "
            "next query",
            RuntimeWarning,
            stacklevel=4,
        )
        self._count("warned_refits")
        self._fit(self._data)
        return False

    def _partial_fit(self, points: np.ndarray) -> None:
        with self._build_lock:
            if self._index is None:
                # not built yet — the lazy build will index everything
                return
            if self._drifted() and not self._handle_drift():
                # warned path: the index is dropped, the next query's
                # lazy rebuild indexes everything including `points`
                return
            # in-place: hash the new points into the existing buckets
            # (in the index's normalized space); identity of external
            # and internal ids is preserved because appends land at the
            # end of both numberings
            new_internal = self._index.insert(points * self._scale)
            if self._ids is not None:
                self._ids = np.concatenate((self._ids, new_internal))
            self._churn += 1
            self._count("inserts_in_place", points.shape[0])

    def _forget(self, idx: np.ndarray) -> None:
        with self._build_lock:
            if self._index is None:
                return
            if self._drifted() and not self._handle_drift():
                return
            if self._ids is None:
                # identity held until now: the index's internal count
                # equals the pre-delete external count
                self._ids = np.arange(self._data.shape[0] + idx.size, dtype=np.intp)
            self._index.remove(self._ids[idx])
            self._ids = np.delete(self._ids, idx)
            self._churn += 1
            self._count("tombstones_in_place", idx.size)

    def _build(self, queries: Optional[np.ndarray], k: int) -> None:
        from ..lsh.contrast import ContrastEstimate, estimate_relative_contrast
        from ..lsh.tables import LSHIndex
        from ..lsh.tuning import tune_lsh

        data = self._require_fitted()
        n = data.shape[0]
        start = time.perf_counter()
        if self._fixed_params is not None:
            params = self._fixed_params
            contrast = params.contrast
            self._scale = 1.0 / contrast.d_mean if contrast.d_mean > 0 else 1.0
        elif self.tune_with_queries and queries is not None:
            # the paper's procedure (lsh_knn_shapley): estimate in raw
            # space, normalize so D_mean = 1, tune in normalized space.
            # The scale must come from the *raw* estimate — the
            # normalized one reports d_mean = 1.0 by construction, and
            # deriving the scale from it builds the index on
            # unnormalized data with a width tuned for unit space (the
            # recall collapse the monitor's spot checks flag instantly)
            k_c = min(k, n)
            est = estimate_relative_contrast(
                data, queries, k=k_c, seed=self._seed
            )
            self._scale = 1.0 / est.d_mean if est.d_mean > 0 else 1.0
            contrast = ContrastEstimate(
                d_mean=1.0,
                d_k=est.d_k * self._scale,
                contrast=est.contrast,
                k=k_c,
            )
            params = tune_lsh(
                contrast, n=n, k_star=k_c, delta=self.delta, alpha=self.alpha
            )
        else:
            k_c = min(k, max(1, n - 1))
            est = estimate_relative_contrast(data, data, k=k_c, seed=self._seed)
            self._scale = 1.0 / est.d_mean if est.d_mean > 0 else 1.0
            contrast = ContrastEstimate(
                d_mean=1.0,
                d_k=est.d_k * self._scale,
                contrast=est.contrast,
                k=k_c,
            )
            params = tune_lsh(
                contrast, n=n, k_star=k_c, delta=self.delta, alpha=self.alpha
            )
        self.params = params
        self._index = LSHIndex(
            n_tables=params.n_tables,
            n_bits=params.n_bits,
            width=params.width,
            seed=self._seed,
        ).build(data * self._scale)
        self._built_k = k
        self._tuned_n = n
        self._ids = None
        # a fresh index has no tombstones and no in-place churn: reset
        # the per-index telemetry so monitored ratios (tombstones /
        # internal rows, inserts since build) describe the live tables
        # instead of going negative against a compacted index
        self._churn = 0
        self._baseline_candidates = None
        with self._ops_lock:
            self._ops["builds"] += 1
            self._ops["inserts_in_place"] = 0
            self._ops["tombstones_in_place"] = 0
        self.build_seconds = time.perf_counter() - start
        hub = self.telemetry
        if hub is not None:
            hub.record("backend.lsh.build_seconds", self.build_seconds)

    def prepare(self, queries: Optional[np.ndarray], k: int) -> None:
        """Tune and build the index for batches requesting ``k``.

        ``queries`` may be ``None`` (streaming: build before any query
        exists), which forces the self-contrast tuning mode.
        """
        if queries is not None:
            queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        self._ensure_built(queries, k)

    def _ensure_built(
        self, queries: Optional[np.ndarray], k: int
    ) -> tuple["object", float, Optional[np.ndarray]]:
        """Build if needed; return a consistent ``(index, scale, ids)``.

        The triple is captured under the build lock as one snapshot:
        maintenance (a retune or compaction) swaps ``_index`` and
        ``_ids`` together, so a query that keeps using its snapshot
        stays internally consistent even while a swap lands.
        """
        with self._build_lock:
            if self._index is None or k > self._built_k:
                self._build(queries, k)
            return self._index, self._scale, self._ids

    def query(
        self, queries: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        start = time.perf_counter()
        idx, dist, stats = self._query_impl(queries, k)
        seconds = time.perf_counter() - start
        if self._baseline_candidates is None:
            # the first batch against a fresh index anchors the level
            # candidate-distribution drift is measured from
            self._baseline_candidates = stats.mean_candidates
        self.record_retrieval(len(idx), seconds)
        hub = self.telemetry
        if hub is not None:
            hub.record("backend.lsh.mean_candidates", stats.mean_candidates)
            if stats.n_returned.size:
                hub.record(
                    "backend.lsh.fill",
                    float(stats.n_returned.mean()) / max(1, min(k, self.n)),
                )
            # the query reservoir: what contrast re-estimation samples
            hub.observe("queries", queries)
        return idx, dist

    def spot_query(
        self, queries: np.ndarray, k: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        idx, dist, _ = self._query_impl(queries, k)
        return idx, dist

    def _query_impl(self, queries: np.ndarray, k: int):
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        index, scale, ids = self._ensure_built(queries, k)
        idx, dist, stats = index.query(queries * scale, min(k, self.n))
        self.last_stats = stats
        if ids is not None:
            # tombstoning broke id identity: translate the index's
            # internal ids back to current external training indices
            # (using the snapshot taken with the index — re-reading
            # self._ids here could pair an old index with a mapping a
            # concurrent compaction already reset)
            lookup = np.full(index.n, -1, dtype=np.intp)
            lookup[ids] = np.arange(ids.shape[0], dtype=np.intp)
            idx = [lookup[row] for row in idx]
        # the index works in normalized space; report true distances
        inv = 1.0 / scale if scale != 0 else 1.0
        return idx, [d * inv for d in dist], stats

    # ------------------------------------------------------------------
    # adaptive maintenance: re-tune and compact without interrupting
    # service (owners run these under their exclusive lock — see
    # ValuationEngine.run_exclusive)
    def retune(self, queries: Optional[np.ndarray] = None, k: Optional[int] = None):
        """Re-estimate the contrast on current data and rebuild, silently.

        The background-maintenance replacement for both the warned
        drift refit and the never-refreshed contrast estimate: the
        Section 6.1 selection (:func:`repro.lsh.tuning.tune_lsh`) is
        re-run against a *fresh* :class:`~repro.lsh.contrast.ContrastEstimate`
        measured on the data as it is now — against ``queries`` (a
        telemetry reservoir sample of recent traffic, the
        ``tune_with_queries`` mode) when given, else against the data
        itself — and the tables are rebuilt with the new parameters,
        compacting all tombstones as a side effect.

        With fixed ``params`` (user-pinned tuning) the rebuild still
        happens — it compacts and re-indexes — but the parameters stay
        pinned.  Returns the parameters now live, or ``None`` when the
        index was never built (nothing to re-tune; the lazy build will
        tune from scratch).
        """
        with self._build_lock:
            if self._index is None:
                return None
            if queries is not None:
                queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
                if queries.shape[0] == 0:
                    queries = None
            self._build(queries, int(k or self._built_k or 1))
            self._count("retunes")
            return self.params

    def compact(self) -> int:
        """Scrub tombstones from the live index; results are unchanged.

        Delegates to :meth:`repro.lsh.tables.LSHIndex.compact`, which
        filters bucket arrays in place without rehashing, so query
        results are bit-identical before and after — the cache token
        deliberately does not change.  Restores the identity mapping
        between external training indices and internal ids (appends
        land at the end of both numberings and deletions preserve
        order, so the alive internal order *is* the external order).
        Returns the number of rows scrubbed.

        Like :meth:`retune`, this *swaps in* a new index object
        (:meth:`~repro.lsh.tables.LSHIndex.compacted`) rather than
        mutating the live one, and the swap replaces ``_index`` and
        ``_ids`` as one unit under the build lock — an in-flight query
        holding the previous snapshot finishes against the old tables
        and old mapping, consistently.
        """
        with self._build_lock:
            if self._index is None:
                return 0
            dead = self._index.n - self._index.n_alive
            if dead == 0:
                return 0
            self._index, _ = self._index.compacted()
            self._ids = None
            self._count("compactions")
            return dead

    def stats(self) -> dict:
        """Unified-schema snapshot including per-index LSH gauges."""
        out = super().stats()
        index = self._index
        params = self.params
        gauges = out["gauges"]
        gauges.update(
            tuned_n=self._tuned_n,
            built_k=self._built_k,
            scale=self._scale,
            churn=self._churn,
            tombstone_ratio=self.tombstone_ratio,
        )
        if index is not None:
            gauges["internal_n"] = index.n
            gauges["n_alive"] = index.n_alive
        if params is not None:
            gauges.update(
                width=params.width,
                n_bits=params.n_bits,
                n_tables=params.n_tables,
                tuned_contrast=params.contrast.contrast,
            )
        if self._baseline_candidates is not None:
            gauges["baseline_candidates"] = self._baseline_candidates
        out["timings"]["build_seconds"] = self.build_seconds
        return out

    def cache_token(self) -> str:
        p = self.params
        tuned = (
            f"w={p.width},m={p.n_bits},l={p.n_tables}" if p is not None else "untuned"
        )
        # `build` counts rebuilds: an unseeded rebuild redraws its hash
        # projections, so entries cached against the previous index
        # must not be served even when the tuning round-trips
        return (
            f"lsh:{tuned}:scale={self._scale!r}:seed={self._seed!r}"
            f":build={self._ops['builds']}:churn={self._churn}"
        )


# ----------------------------------------------------------------------
_BACKEND_REGISTRY: Dict[str, Callable[..., NeighborBackend]] = {}


def register_backend(name: str, factory: Callable[..., NeighborBackend]) -> None:
    """Register a backend factory under ``name`` (overwrites quietly)."""
    if not name:
        raise ParameterError("backend name must be non-empty")
    _BACKEND_REGISTRY[name] = factory


def available_backends() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(_BACKEND_REGISTRY)


def make_backend(
    spec: Union[str, NeighborBackend], **options
) -> NeighborBackend:
    """Construct (or pass through) a backend.

    ``spec`` may be a registered name — constructed with ``options`` —
    or an already-built :class:`NeighborBackend` instance, in which
    case ``options`` must be empty.
    """
    if isinstance(spec, NeighborBackend):
        if options:
            raise ParameterError(
                "options cannot be applied to an already-constructed backend"
            )
        return spec
    try:
        factory = _BACKEND_REGISTRY[spec]
    except KeyError:
        raise ParameterError(
            f"unknown backend {spec!r}; available: {available_backends()}"
        ) from None
    return factory(**options)


register_backend("brute", BruteForceBackend)
register_backend("blocked", BlockedExactBackend)
register_backend("lsh", LSHNeighborBackend)
