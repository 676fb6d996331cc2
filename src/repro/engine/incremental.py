"""Incremental valuation of a dynamic training set.

The data-market workload the paper motivates (Sections 3-4) is not
static: sellers join and leave, and every membership change shifts the
Shapley value of *every* remaining point.  Re-running the full
valuation per event costs an O(n d) distance pass plus an O(n log n)
sort per test point.  But the Theorem 1 recursion is rank-local (see
:mod:`repro.core.delta`): a single insertion or deletion moves exactly
one rank per test point, so the fitted state can be *repaired* —
binary-search the new position, splice one entry, re-run the recursion
over the affected suffix, shift the prefix by a constant — in O(n)
array work per test point with no distances against incumbents and no
sort at all.

:class:`IncrementalValuator` keeps that fitted state: per test point,
the ascending distance ranking, the sorted distances, the label-match
vector, and the rank-space Shapley values.  ``add_points`` /
``remove_points`` apply exact delta updates; ``values()`` aggregates by
additivity (eq 8); ``recompute()`` re-derives the rank-space values
from the (exactly maintained) rankings in one vectorized pass — still
no distance computation or sort — producing output bit-identical to a
from-scratch :func:`~repro.core.exact.exact_knn_shapley_from_order`
run on the current dataset.

The valuator is a client of :class:`~repro.engine.engine.ValuationEngine`,
the one owner of a training set: the engine builds the backend, ranks
the test batch and applies every join and leave (validating it before
anything changes); the valuator keeps only the fitted per-test rank
state and repairs it after each engine mutation.  The repair is
Theorem 1's recursion, the one rank-local valuation — the Theorem 6
regression recursion needs global rank-weighted label sums and the
weighted game is coalition-dependent — so the valuator serves the
``exact`` classification kernel only.

Floating-point contract
-----------------------
The maintained rankings, distances, and match vectors round-trip
mutations *bit-for-bit* (an add followed by the matching remove
restores them exactly), so ``recompute()`` after a round trip equals
the original valuation bit-for-bit.  The incrementally repaired value
vector itself carries one rounding per prefix shift (see
:mod:`repro.core.delta`), keeping ``values()`` within ~1e-15 — and
always within the 1e-12 acceptance bound — of a full recompute.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core.delta import rank_factor, suffix_rank_values_rows
from ..core.kernels import RankPlan, get_kernel
from ..exceptions import NotFittedError, ParameterError
from ..knn.distance import get_metric
from ..stats import component_stats
from ..types import (
    ValuationResult,
    as_float_matrix,
    as_label_vector,
    as_removal_indices,
)
from .backends import NeighborBackend
from .engine import ValuationEngine, build_backend

__all__ = ["IncrementalValuator"]


class IncrementalValuator:
    """Exact KNN Shapley values under training-set churn.

    Parameters
    ----------
    x_train, y_train:
        The initial training set (class labels).
    k:
        The K of KNN.
    metric:
        Distance metric name, resolved by the engine: default ``None``
        adopts the backend's metric, and an explicit conflicting value
        raises, so inserted points are scored in the geometry the
        incumbents were ranked in.
    backend:
        Registered backend name or instance.  Must support full
        rankings (``"brute"`` or ``"blocked"``; the LSH backend cannot
        place points into a total order, so dynamic LSH deployments
        refit instead — see the engine-level mutation path).
    backend_options:
        Keyword arguments for the backend factory.

    Not thread-safe: one mutator at a time (the engine/service layers
    add locking when serving concurrently).
    """

    def __init__(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        k: int,
        metric: Optional[str] = None,
        backend="brute",
        backend_options: Optional[dict] = None,
    ) -> None:
        # refuse before the engine fits the backend on the training set
        backend = build_backend(backend, backend_options, metric)
        if not backend.supports_full_ranking:
            raise ParameterError(
                f"backend {backend.name!r} cannot produce the full "
                "rankings incremental valuation maintains; use 'brute' or "
                "'blocked'"
            )
        #: the owner of the training set, its backend and its mutations
        self.engine = ValuationEngine(
            x_train,
            y_train,
            k,
            metric=metric,
            backend=backend,
            cache=False,
            n_workers=1,
        )
        self.k = self.engine.k
        self._distance = get_metric(self.metric)
        self.x_test: np.ndarray | None = None
        self.y_test: np.ndarray | None = None
        self._order: np.ndarray | None = None  # (q, n) ascending ranks
        self._dist: np.ndarray | None = None  # (q, n) sorted distances
        self._match: np.ndarray | None = None  # (q, n) 0/1 label matches
        self._s: np.ndarray | None = None  # (q, n) rank-space values
        self._values: np.ndarray | None = None  # aggregate, None = dirty
        self.n_mutations = 0
        self.last_mutation_seconds = 0.0
        self.total_mutation_seconds = 0.0
        #: optional :class:`repro.monitor.TelemetryHub`
        self.telemetry = None

    # ------------------------------------------------------------------
    # read-through views of the engine's training set
    @property
    def x_train(self) -> np.ndarray:
        """The current training points (the engine's; read-only)."""
        return self.engine.x_train

    @property
    def y_train(self) -> np.ndarray:
        """The current training labels (the engine's; read-only)."""
        return self.engine.y_train

    @property
    def backend(self) -> NeighborBackend:
        """The engine's fitted neighbor backend."""
        return self.engine.backend

    @property
    def metric(self) -> str:
        """The metric the engine resolved."""
        return self.engine.metric

    @property
    def n_train(self) -> int:
        """Current number of training points."""
        return self.engine.n_train

    @property
    def n_test(self) -> int:
        """Number of fitted test points (0 before :meth:`fit`)."""
        return 0 if self.x_test is None else int(self.x_test.shape[0])

    def _require_fitted(self) -> None:
        if self._order is None:
            raise NotFittedError(
                "IncrementalValuator.fit must be called with a test batch first"
            )

    def attach_telemetry(self, hub) -> "IncrementalValuator":
        """Publish mutation latency into ``hub`` (and the engine's and
        backend's streams alongside); returns ``self`` for chaining."""
        self.telemetry = hub
        self.engine.attach_telemetry(hub)
        return self

    def _record_mutation(self, kind: str, n_points: int, seconds: float) -> None:
        self.last_mutation_seconds = seconds
        self.total_mutation_seconds += seconds
        hub = self.telemetry
        if hub is not None:
            hub.record("incremental.mutation_seconds", seconds)
            hub.count(f"incremental.{kind}", n_points)

    def stats(self) -> dict:
        """Unified-schema snapshot (see :mod:`repro.stats`)."""
        return component_stats(
            "incremental_valuator",
            counters={"mutations": self.n_mutations},
            timings={
                "last_mutation_seconds": self.last_mutation_seconds,
                "total_mutation_seconds": self.total_mutation_seconds,
            },
            gauges={"n_train": self.n_train, "n_test": self.n_test},
            backend=self.backend.stats(),
        )

    # ------------------------------------------------------------------
    def fit(self, x_test: np.ndarray, y_test: np.ndarray) -> "IncrementalValuator":
        """Rank the current training set for ``(x_test, y_test)``.

        This is the one full-cost step — everything after it is delta
        work.  Refitting with a new test batch replaces the state.
        """
        x_test = as_float_matrix(x_test, "x_test")
        y_test = as_label_vector(y_test, x_test.shape[0], "y_test")
        order, dist = self.engine.retrieve(x_test)
        self.x_test = x_test
        self.y_test = y_test
        # int32 halves the splice bandwidth of the widest integer state
        self._order = np.ascontiguousarray(order, dtype=np.int32)
        self._dist = np.ascontiguousarray(dist)
        # int8: 0/1 matches enter the recursion bit-identically to the
        # float form while costing an eighth of the splice bandwidth
        self._match = (self.y_train[order] == y_test[:, None]).astype(np.int8)
        self._resync()
        return self

    def _resync(self) -> ValuationResult:
        """Re-derive rank-space values from the rankings (no sort)."""
        plan = RankPlan.from_order(self._order, self.y_train, self.y_test)
        per_test = get_kernel("exact").values_from_plan(plan, self.k)
        values = per_test.mean(axis=0)
        self._s = np.take_along_axis(per_test, self._order, axis=1)
        self._values = values
        return self._result(values, resynced=True)

    # ------------------------------------------------------------------
    def add_points(self, x_new: np.ndarray, y_new: np.ndarray) -> np.ndarray:
        """Insert training points; returns the indices they received.

        Each point costs one distance per test point, a binary search
        into each sorted distance row, and a suffix repair of the
        recursion — no ranking of incumbents is ever redone.
        """
        start = time.perf_counter()
        idx = self.engine.add_points(x_new, y_new)
        if self._order is not None:
            # the engine validated and appended the batch; splice its
            # rows in one at a time, as they took their indices
            for i in idx:
                self._insert_one(self.x_train[i], self.y_train[i])
        self.n_mutations += idx.size
        self._values = None
        self._record_mutation("adds", idx.size, time.perf_counter() - start)
        return idx

    def remove_points(self, idx) -> None:
        """Delete training points by index (``numpy.delete`` semantics).

        All indices refer to the training set *before* the call; the
        surviving points are renumbered compactly, exactly as
        ``np.delete(x_train, idx, axis=0)`` would.
        """
        start = time.perf_counter()
        idx = as_removal_indices(idx)
        if idx.size == 0:
            return
        # the engine validates the whole batch before it changes
        # anything, so a bad index never reaches the rank state
        self.engine.remove_points(idx)
        if self._order is not None:
            # descending order keeps the not-yet-removed indices stable
            for t in np.sort(idx)[::-1]:
                self._remove_one(int(t))
        self.n_mutations += idx.size
        self._values = None
        self._record_mutation("removes", idx.size, time.perf_counter() - start)

    # ------------------------------------------------------------------
    def _insert_one(self, x_row: np.ndarray, y_val) -> None:
        q, n = self._order.shape
        d_new = self._distance(self.x_test, x_row[None, :])[:, 0]
        dist, order, match = self._dist, self._order, self._match
        new_dist = np.empty((q, n + 1), dtype=np.float64)
        new_order = np.empty((q, n + 1), dtype=np.int32)
        new_match = np.empty((q, n + 1), dtype=np.int8)
        m_new = (self.y_test == y_val).astype(np.int8)
        pos = np.empty(q, dtype=np.intp)
        # flat 1-D views: plain-slice splices parse ~an order of
        # magnitude faster than 2-D indexing in this per-row loop
        df, of, mf = dist.reshape(-1), order.reshape(-1), match.reshape(-1)
        ndf = new_dist.reshape(-1)
        nof = new_order.reshape(-1)
        nmf = new_match.reshape(-1)
        for j in range(q):
            # the new point takes the largest training index, so among
            # tied distances it ranks last — side="right"; the splice
            # is two contiguous block copies per row, no index gathers
            p = int(np.searchsorted(dist[j], d_new[j], side="right"))
            pos[j] = p
            a, b = j * n, j * (n + 1)
            ndf[b : b + p] = df[a : a + p]
            ndf[b + p] = d_new[j]
            ndf[b + p + 1 : b + n + 1] = df[a + p : a + n]
            nof[b : b + p] = of[a : a + p]
            nof[b + p] = n
            nof[b + p + 1 : b + n + 1] = of[a + p : a + n]
            nmf[b : b + p] = mf[a : a + p]
            nmf[b + p] = m_new[j]
            nmf[b + p + 1 : b + n + 1] = mf[a + p : a + n]
        self._s = self._repair(new_match, int(pos.min()))
        self._dist, self._order, self._match = new_dist, new_order, new_match

    def _remove_one(self, t: int) -> None:
        q, n = self._order.shape
        dist, order, match = self._dist, self._order, self._match
        pos = np.argmax(order == t, axis=1)
        new_dist = np.empty((q, n - 1), dtype=np.float64)
        new_order = np.empty((q, n - 1), dtype=np.int32)
        new_match = np.empty((q, n - 1), dtype=np.int8)
        df, of, mf = dist.reshape(-1), order.reshape(-1), match.reshape(-1)
        ndf = new_dist.reshape(-1)
        nof = new_order.reshape(-1)
        nmf = new_match.reshape(-1)
        for j in range(q):
            p = int(pos[j])
            a, b = j * n, j * (n - 1)
            ndf[b : b + p] = df[a : a + p]
            ndf[b + p : b + n - 1] = df[a + p + 1 : a + n]
            nof[b : b + p] = of[a : a + p]
            nof[b + p : b + n - 1] = of[a + p + 1 : a + n]
            nmf[b : b + p] = mf[a : a + p]
            nmf[b + p : b + n - 1] = mf[a + p + 1 : a + n]
        if t != n - 1:  # removing the top index shifts nobody
            new_order[new_order > t] -= 1
        self._s = self._repair(new_match, int(pos.min()))
        self._dist, self._order, self._match = new_dist, new_order, new_match

    def _repair(self, match_new: np.ndarray, start: int) -> np.ndarray:
        """Repair the rank-space values after a one-position splice.

        Re-runs the recursion only over the affected suffix — from the
        minimum mutated position across the test batch, vectorized over
        all test points — and shifts each untouched prefix by the
        constant the recursion propagates across its boundary (see
        :mod:`repro.core.delta`).
        """
        q, n1 = match_new.shape
        start = min(start, n1 - 1)
        s_new = np.empty((q, n1), dtype=np.float64)
        s_new[:, start:] = suffix_rank_values_rows(match_new, start, self.k)
        if start > 0:
            boundary = s_new[:, start] + (
                match_new[:, start - 1] - match_new[:, start]
            ) * rank_factor(start, self.k)
            s_new[:, : start - 1] = (
                self._s[:, : start - 1]
                + (boundary - self._s[:, start - 1])[:, None]
            )
            s_new[:, start - 1] = boundary
        return s_new

    # ------------------------------------------------------------------
    def values(self) -> ValuationResult:
        """Current Shapley values from the incrementally repaired state."""
        self._require_fitted()
        if self._values is None:
            # each order row is a permutation, so bincount-by-training-
            # index sums every test point's value for each player —
            # additivity (eq 8) after division by n_test
            totals = np.bincount(
                self._order.ravel(),
                weights=self._s.ravel(),
                minlength=self._order.shape[1],
            )
            self._values = totals / self._order.shape[0]
        return self._result(self._values, resynced=False)

    def recompute(self) -> ValuationResult:
        """Re-derive values from the maintained rankings (canonical).

        Still no distance computation and no sort — the rankings are
        exact at all times — but the recursion is re-run from scratch,
        so the output is bit-identical to
        :func:`~repro.core.exact.exact_knn_shapley_from_order` on the
        current dataset, and the internal value state is resynced to
        it.
        """
        self._require_fitted()
        return self._resync()

    def _result(self, values: np.ndarray, resynced: bool) -> ValuationResult:
        return ValuationResult(
            values=values,
            method="incremental",
            extra={
                "k": self.k,
                "metric": self.metric,
                "backend": self.backend.name,
                "n_train": self.n_train,
                "n_test": self.n_test,
                "n_mutations": self.n_mutations,
                "resynced": resynced,
            },
        )
