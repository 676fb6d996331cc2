"""Streaming Shapley accumulation over sequentially arriving test points.

Section 3.2 motivates the approximate algorithms with retrieval-style
deployments: queries arrive one at a time and every training point's
value must be updated *on the fly* — re-running a batch job per query
wastes the work, and the running average over queries is exactly the
multi-test Shapley value (eq 8) by additivity.

:class:`StreamingKNNShapley` maintains that running average.  Retrieval
delegates to the fit-once backends of :mod:`repro.engine.backends`:

* ``"exact"`` — rank the full training set per query (Theorem 1) with
  an exact backend;
* ``"lsh"`` — retrieve only the K* nearest with a pre-built LSH index
  and apply the truncated recursion (Theorems 2 + 4), giving sublinear
  per-query cost at an (epsilon, delta) guarantee.

Any other registered backend name (e.g. ``"blocked"``) or a pre-built
:class:`~repro.engine.backends.NeighborBackend` is accepted too;
backends that cannot produce full rankings use the truncated path.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from ..rng import SeedLike
from ..types import (
    ValuationResult,
    as_float_matrix,
    as_label_vector,
    as_new_points,
    as_removal_indices,
)
from .kernels import RankPlan, get_kernel, truncation_rank

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
        Distance metric for exact backends (the LSH backend is l2).
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
        metric: str = "euclidean",
        seed: SeedLike = None,
    ) -> None:
        # imported lazily: repro.core must not depend on repro.engine
        # at import time (the engine builds on core)
        from ..engine.backends import (
            LSHNeighborBackend,
            NeighborBackend,
            available_backends,
            make_backend,
        )

        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        self.x_train = as_float_matrix(x_train, "x_train")
        self.y_train = as_label_vector(y_train, self.x_train.shape[0], "y_train")
        self.k = int(k)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        self.metric = metric
        self.n_train = self.x_train.shape[0]
        self._totals = np.zeros(self.n_train, dtype=np.float64)
        self._n_queries = 0
        self._k_star = truncation_rank(self.k, self.epsilon)
        if isinstance(backend, NeighborBackend):
            self._backend = backend
            self.backend = backend.name
        elif backend == "exact":
            # historical alias for exact full-ranking retrieval
            self._backend = make_backend("brute", metric=metric)
            self.backend = "exact"
        elif backend == "lsh":
            self._backend = LSHNeighborBackend(
                delta=self.delta,
                alpha=0.5,
                tune_with_queries=False,
                seed=seed,
            )
            self.backend = "lsh"
        elif backend in available_backends():
            self._backend = make_backend(backend, metric=metric)
            self.backend = backend
        else:
            raise ParameterError(
                f"backend must be 'exact', a registered backend name "
                f"{available_backends()}, or a NeighborBackend instance; "
                f"got {backend!r}"
            )
        self._backend.fit(self.x_train)
        self._exact_updates = self._backend.supports_full_ranking
        if not self._exact_updates:
            # build the index up front so the first query is not slow
            self._backend.prepare(None, min(self._k_star, self.n_train))

    # ------------------------------------------------------------------
    @property
    def n_queries(self) -> int:
        """Number of test points consumed so far."""
        return self._n_queries

    def update(self, x_test: np.ndarray, y_test: object) -> np.ndarray:
        """Consume one test point; return its single-test value vector."""
        x_test = np.asarray(x_test, dtype=np.float64).reshape(1, -1)
        if x_test.shape[1] != self.x_train.shape[1]:
            raise ParameterError(
                f"query has {x_test.shape[1]} features, expected "
                f"{self.x_train.shape[1]}"
            )
        # one incremental RankPlan per arriving query; the kernels
        # scatter rank-space values back to training-index order
        y_row = np.atleast_1d(np.asarray(y_test))[:1]
        if self._exact_updates:
            order = self._backend.rank(x_test)
            plan = RankPlan.from_order(order, self.y_train, y_row)
            contribution = get_kernel("exact").values_from_plan(plan, self.k)[0]
        else:
            idx, _ = self._backend.query(
                x_test, min(self._k_star, self.n_train)
            )
            plan = RankPlan.from_neighbor_rows(idx[:1], self.y_train, y_row)
            contribution = get_kernel("truncated").values_from_plan(
                plan, self.k, k_star=self._k_star, exact_anchor=True
            )[0]
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
        x_new, y_new = as_new_points(x_new, y_new, self.x_train.shape[1])
        first = self.n_train
        self.y_train = np.concatenate((self.y_train, y_new))
        self._totals = np.concatenate(
            (self._totals, np.zeros(x_new.shape[0], dtype=np.float64))
        )
        self._backend.partial_fit(x_new)
        # alias the backend's index — one training-set copy, not two
        self.x_train = self._backend.data
        self.n_train = self.x_train.shape[0]
        if not self._exact_updates:
            # rebuild the truncated-path index eagerly, as in __init__
            self._backend.prepare(None, min(self._k_star, self.n_train))
        return np.arange(first, self.n_train, dtype=np.intp)

    def remove_points(self, idx) -> None:
        """Drop training points by index (``numpy.delete`` semantics).

        The departed points' accumulated totals leave with them; the
        surviving points keep theirs, so :meth:`values` keeps averaging
        over every query consumed so far.
        """
        idx = as_removal_indices(idx)
        if idx.size == 0:
            return
        # the backend validates range/uniqueness/non-emptiness against
        # the same n before anything is touched
        self._backend.forget(idx)
        self.x_train = self._backend.data
        self.y_train = np.delete(self.y_train, idx)
        self._totals = np.delete(self._totals, idx)
        self.n_train = self.x_train.shape[0]
        if not self._exact_updates:
            self._backend.prepare(None, min(self._k_star, self.n_train))

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
