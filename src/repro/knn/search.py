"""Brute-force nearest-neighbor search.

This is the substrate under the exact Shapley algorithms: Theorem 1 of
the paper needs, for every test point, the *full* ascending distance
ranking of the training set (``argsort_by_distance``), while the
truncated approximation of Theorem 2 and the KNN models themselves only
need the top ``k`` (``top_k``), for which ``numpy.argpartition`` gives
an O(n + k log k) selection instead of a full O(n log n) sort.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError
from .distance import get_metric

__all__ = [
    "argsort_by_distance",
    "stable_argsort_rows",
    "stable_sort_rows",
    "top_k",
    "KNNSearchIndex",
]


def stable_sort_rows(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise ascending sort with ties broken by index, fast.

    Returns ``(order, sorted_dist)``: for NaN-free ``dist``, ``order``
    is exactly the permutation ``np.argsort(dist, axis=1,
    kind="stable")`` would give, and ``sorted_dist`` equals
    ``np.take_along_axis(dist, order, axis=1)`` bit for bit.  The
    O(n log n) work runs with numpy's default introsort (several times
    faster than the stable mergesort on large rows).  Introsort leaves
    each run of exactly equal values in arbitrary index order, and
    duplicated training rows create such runs by the hundred per row,
    so the repair is one vectorized pass over every tied element of the
    batch at once: a run id per element, one sort of ``(run id,
    index)`` composite keys, written back in place.  Used by the
    valuation engine's exact backends, where the sort dominates the
    whole pipeline.
    """
    dist = np.atleast_2d(dist)
    q, n = dist.shape
    order = np.argsort(dist, axis=1)
    if n == 0:
        return order, dist[:, :0].copy()
    # one flat take gathers every row's distances
    shift = (np.arange(q, dtype=np.intp) * n)[:, None]
    order += shift
    sorted_dist = dist.take(order)
    order -= shift
    flat_order = order.reshape(-1)
    flat_dist = sorted_dist.reshape(-1)
    # tied[p]: sorted element p equals its left neighbor in the same row
    tied = np.empty(flat_dist.size, dtype=bool)
    np.equal(flat_dist[1:], flat_dist[:-1], out=tied[1:])
    tied[::n] = False
    if tied.any():
        member = tied.copy()
        member[:-1] |= tied[1:]
        pos = np.flatnonzero(member)  # every element of every tie run
        run = (np.cumsum(~tied[pos]) - 1) * n
        keys = run + flat_order[pos]
        keys.sort()  # runs stay in place; each run's indices ascend
        keys -= run
        flat_order[pos] = keys
        # equal values may still differ in sign (-0.0 vs 0.0)
        flat_dist[pos] = dist.take(pos - pos % n + keys)
    return order, sorted_dist


def stable_argsort_rows(dist: np.ndarray) -> np.ndarray:
    """The ``order`` half of :func:`stable_sort_rows`.

    Equal to ``np.argsort(dist, axis=1, kind="stable")``.
    """
    return stable_sort_rows(dist)[0]


def argsort_by_distance(
    queries: np.ndarray, data: np.ndarray, metric: str = "euclidean"
) -> tuple[np.ndarray, np.ndarray]:
    """Rank all data points by ascending distance to each query.

    Parameters
    ----------
    queries:
        Query matrix, shape ``(q, d)``.
    data:
        Data matrix, shape ``(n, d)``.
    metric:
        Name of a distance kernel from :mod:`repro.knn.distance`.

    Returns
    -------
    (indices, distances):
        ``indices`` has shape ``(q, n)``: row ``j`` lists training
        indices from nearest to farthest from query ``j``.
        ``distances`` is the matching sorted distance matrix.
        Ties are broken by index (stable sort) so results are
        deterministic.
    """
    dist = get_metric(metric)(queries, data)
    order = np.argsort(dist, axis=1, kind="stable")
    sorted_dist = np.take_along_axis(dist, order, axis=1)
    return order, sorted_dist


def top_k(
    queries: np.ndarray,
    data: np.ndarray,
    k: int,
    metric: str = "euclidean",
) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``k`` nearest data points for each query.

    Ties are broken by index, including at the selection boundary, so
    the result always equals the first ``k`` columns of
    :func:`argsort_by_distance`.

    The fast path makes three passes over the ``(q, n)`` distances:
    one ``argpartition``, a gather of the ``k`` candidates and one
    count of the points at or below each row's k-th distance.  A row
    with exactly ``k`` such points has a unique candidate set, which
    one lexsort on ``(distance, index)`` orders.  A row whose k-th
    distance is tied with a point outside the candidates falls back to
    an exact selection: everything strictly below the k-th distance,
    then the lowest-indexed tied points.  With ``k >= n`` the whole row
    is ranked by :func:`stable_sort_rows`.

    Returns
    -------
    (indices, distances):
        Both of shape ``(q, min(k, n))``, ordered nearest-first.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    data = np.atleast_2d(data)
    n = data.shape[0]
    k_eff = min(k, n)
    dist = get_metric(metric)(queries, data)
    if k_eff == n:
        return stable_sort_rows(dist)
    idx = np.argpartition(dist, k_eff - 1, axis=1)[:, :k_eff]
    cand = np.take_along_axis(dist, idx, axis=1)
    kth = cand[:, k_eff - 1 : k_eff]
    clean = np.count_nonzero(dist <= kth, axis=1) == k_eff
    if not clean.all():
        # argpartition admits an arbitrary subset of the points tied
        # at the k-th distance; these rows re-select them by index
        tied = np.flatnonzero(~clean)
        sub, sub_kth = dist[tied], kth[tied]
        below = sub < sub_kth
        need = k_eff - below.sum(axis=1, keepdims=True)
        at_kth = sub == sub_kth
        take = below | (at_kth & (np.cumsum(at_kth, axis=1) <= need))
        # each row has exactly k_eff True entries, in ascending index
        # order
        idx[tied] = np.nonzero(take)[1].reshape(tied.size, k_eff)
        cand[tied] = np.take_along_axis(sub, idx[tied], axis=1)
    # primary key distance, secondary key training index
    inner = np.lexsort((idx, cand), axis=1)
    return np.take_along_axis(idx, inner, axis=1), np.take_along_axis(cand, inner, axis=1)


class KNNSearchIndex:
    """A tiny exact search index over a fixed data matrix.

    The index pre-computes data norms so repeated queries avoid
    recomputing ``||x_i||^2``.  It intentionally mirrors the query
    interface of :class:`repro.lsh.tables.LSHIndex` so valuation code
    can swap exact search for approximate search.
    """

    def __init__(self, data: np.ndarray, metric: str = "euclidean") -> None:
        self._data = np.ascontiguousarray(np.atleast_2d(data), dtype=np.float64)
        if self._data.shape[0] == 0:
            raise ParameterError("search index requires at least one point")
        self._metric = metric
        get_metric(metric)  # validate eagerly

    @property
    def n(self) -> int:
        """Number of indexed points."""
        return int(self._data.shape[0])

    @property
    def metric(self) -> str:
        """Distance metric name."""
        return self._metric

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` search; see :func:`top_k`."""
        return top_k(queries, self._data, k, metric=self._metric)

    def query_all(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full ascending ranking; see :func:`argsort_by_distance`."""
        return argsort_by_distance(queries, self._data, metric=self._metric)
