"""Streaming Shapley accumulation over sequentially arriving test points.

Section 3.2 motivates the approximate algorithms with retrieval-style
deployments: queries arrive one at a time and every training point's
value must be updated *on the fly* — re-running a batch job per query
wastes the work, and the running average over queries is exactly the
multi-test Shapley value (eq 8) by additivity.

:class:`StreamingKNNShapley` maintains that running average over a
:class:`~repro.engine.engine.ValuationEngine`, the one owner of the
training set: each query is one engine request and each join or leave
one engine mutation.

* ``"exact"`` — rank the full training set per query (Theorem 1) with
  the brute backend;
* ``"lsh"`` — retrieve only the K* nearest with a pre-built LSH index
  and apply the truncated recursion (Theorems 2 + 4), giving sublinear
  per-query cost at an (epsilon, delta) guarantee.

Any other registered backend name (e.g. ``"blocked"``) or a pre-built
:class:`~repro.engine.backends.NeighborBackend` is accepted too;
backends that cannot produce full rankings use the truncated path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ParameterError
from ..rng import SeedLike
from ..types import (
    ValuationResult,
    as_float_matrix,
    as_label_vector,
    as_removal_indices,
)
from .kernels import truncation_rank

__all__ = ["StreamingKNNShapley"]


class StreamingKNNShapley:
    """Accumulate KNN Shapley values as test points stream in.

    The training set need not stay fixed: :meth:`add_points` /
    :meth:`remove_points` mutate it between queries, splicing sellers
    in and out of the running accumulation.

    Parameters
    ----------
    x_train, y_train:
        The initial training set being valued.
    k:
        The K of KNN.
    backend:
        ``"exact"`` (full rankings via the brute backend), ``"lsh"``,
        any other registered backend name, or a pre-built
        :class:`~repro.engine.backends.NeighborBackend`.
    epsilon, delta:
        Approximation targets for truncated-path backends (ignored by
        exact ones).
    metric:
        Distance metric, resolved by the engine: ``None`` (default)
        adopts the backend's (the LSH backend is l2), and a conflicting
        explicit value raises.
    seed:
        Seed for the LSH index construction.
    """

    def __init__(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        k: int,
        backend="exact",
        epsilon: float = 0.1,
        delta: float = 0.1,
        metric: Optional[str] = None,
        seed: SeedLike = None,
    ) -> None:
        # imported lazily: repro.core must not depend on repro.engine
        # at import time (the engine builds on core)
        from ..engine.backends import LSHNeighborBackend, NeighborBackend
        from ..engine.engine import ValuationEngine

        if isinstance(backend, NeighborBackend):
            spec, self.backend = backend, backend.name
        elif backend == "exact":
            # historical alias for exact full-ranking retrieval
            spec, self.backend = "brute", "exact"
        elif backend == "lsh":
            spec = LSHNeighborBackend(
                delta=delta, alpha=0.5, tune_with_queries=False, seed=seed
            )
            self.backend = "lsh"
        else:
            spec = self.backend = backend
        #: the owner of the training set, its backend and its mutations
        self.engine = ValuationEngine(
            x_train, y_train, k, metric=metric, backend=spec,
            cache=False, n_workers=1,
        )
        self.k = self.engine.k
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self._k_star = truncation_rank(self.k, self.epsilon)
        self._totals = np.zeros(self.n_train, dtype=np.float64)
        self._n_queries = 0
        self._exact_updates = self.engine.backend.supports_full_ranking
        self._prepare()

    def _prepare(self) -> None:
        """Build a truncated-path index now, so no query pays for it."""
        if not self._exact_updates:
            self.engine.backend.prepare(None, min(self._k_star, self.n_train))

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
    def n_train(self) -> int:
        """Current number of training points."""
        return self.engine.n_train

    @property
    def metric(self) -> str:
        """The metric the engine resolved."""
        return self.engine.metric

    @property
    def n_queries(self) -> int:
        """Number of test points consumed so far."""
        return self._n_queries

    def update(self, x_test: np.ndarray, y_test: object) -> np.ndarray:
        """Consume one test point; return its single-test value vector."""
        x_row = np.asarray(x_test, dtype=np.float64).reshape(1, -1)
        y_row = np.atleast_1d(np.asarray(y_test))[:1]
        # one single-query engine request; its per-test row is the
        # query's value vector in training-index order
        result = self.engine.value(
            x_row,
            y_row,
            method="exact" if self._exact_updates else "truncated",
            epsilon=self.epsilon,
            store_per_test=True,
        )
        contribution = result.extra["per_test"][0]
        self._totals += contribution
        self._n_queries += 1
        return contribution

    # ------------------------------------------------------------------
    # dynamic training sets: mutations between queries
    def add_points(self, x_new: np.ndarray, y_new: np.ndarray) -> np.ndarray:
        """Add training points between queries; returns their indices.

        The running totals are additive per query (eq 8), so a new
        point simply starts accumulating from zero: queries consumed
        *before* it joined contribute nothing to its value, which is
        the natural online semantics for a seller entering the market
        mid-stream.  Exact backends absorb the append in place; the
        LSH backend hashes the newcomers into its existing buckets and
        only refits (with a ``RuntimeWarning``) once ``n`` drifts
        beyond the size its tables were tuned for.
        """
        idx = self.engine.add_points(x_new, y_new)
        self._totals = np.concatenate(
            (self._totals, np.zeros(idx.size, dtype=np.float64))
        )
        self._prepare()
        return idx

    def remove_points(self, idx) -> None:
        """Drop training points by index (``numpy.delete`` semantics).

        The departed points' accumulated totals leave with them; the
        surviving points keep theirs, so :meth:`values` keeps averaging
        over every query consumed so far.
        """
        idx = as_removal_indices(idx)
        if idx.size == 0:
            return
        # the engine validates the whole batch before it changes anything
        self.engine.remove_points(idx)
        self._totals = np.delete(self._totals, idx)
        self._prepare()

    def update_batch(
        self, x_test: np.ndarray, y_test: np.ndarray
    ) -> np.ndarray:
        """Consume several test points; return their mean value vector."""
        x_test = as_float_matrix(x_test, "x_test")
        y_test = as_label_vector(y_test, x_test.shape[0], "y_test")
        acc = np.zeros(self.n_train, dtype=np.float64)
        for j in range(x_test.shape[0]):
            acc += self.update(x_test[j], y_test[j])
        return acc / max(1, x_test.shape[0])

    def values(self) -> ValuationResult:
        """The running multi-test Shapley values (mean over queries)."""
        if self._n_queries == 0:
            raise ParameterError("no test points consumed yet")
        return ValuationResult(
            values=self._totals / self._n_queries,
            method=f"streaming-{self.backend}",
            extra={
                "k": self.k,
                "n_queries": self._n_queries,
                "epsilon": 0.0 if self._exact_updates else self.epsilon,
            },
        )

    def reset(self) -> None:
        """Forget all consumed queries (the index is kept)."""
        self._totals[:] = 0.0
        self._n_queries = 0
