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

    Returns ``(order, sorted_dist)``: ``order`` is
    :func:`stable_argsort_rows`, and ``sorted_dist`` equals
    ``np.take_along_axis(dist, order, axis=1)`` bit for bit (so
    ``-0.0`` stays ``-0.0``).  Used by the valuation engine's exact
    backends, where the sort dominates the whole pipeline.
    """
    dist = np.atleast_2d(dist)
    order = stable_argsort_rows(dist)
    # one flat take gathers every row's distances
    shift = (np.arange(dist.shape[0], dtype=np.intp) * dist.shape[1])[:, None]
    order += shift
    sorted_dist = dist.take(order)
    order -= shift
    return order, sorted_dist


def stable_argsort_rows(dist: np.ndarray) -> np.ndarray:
    """``np.argsort(dist, axis=1, kind="stable")`` via one direct sort.

    Exact for NaN-free ``dist``.  Each distance becomes one int64 key:
    its order-preserving bit pattern with the low
    ``b = (n - 1).bit_length()`` bits replaced by its column index.  A direct
    ``sort`` of those keys (several times faster than numpy's indirect
    ``argsort``) orders every row by distance, and exact ties by index
    with no repair, since equal distances share their high bits.  Only
    distances that differ in nothing but their low ``b`` bits can come
    out of order; they share a truncated key with a neighbour, so one
    ``lexsort`` of just those collision runs on ``(distance, index)``
    puts them back.  The order is read from the keys' low bits; no
    distance is gathered (:func:`stable_sort_rows` does that).
    """
    dist = np.atleast_2d(dist)
    if dist.size == 0:
        return np.empty(dist.shape, dtype=np.intp)
    q, n = dist.shape
    b = (n - 1).bit_length()
    low = (1 << b) - 1
    key = np.empty((q, n), dtype=np.int64)
    # + 0.0 folds -0.0 into +0.0: the two zeros compare equal
    np.add(dist, 0.0, out=key.view(np.float64))
    if key.min() < 0:
        # negative floats order backwards as integers: flip all but the sign
        flip = key >> 63
        flip &= np.int64(0x7FFF_FFFF_FFFF_FFFF)
        key ^= flip
    key &= ~low
    key |= np.arange(n, dtype=np.int64)
    key.sort(axis=1)
    order = key & low
    # tied[p]: sorted key p shares its truncated high bits with its
    # left neighbour in the same row (exact ties included)
    key >>= b
    hi = key.reshape(-1)
    tied = np.empty(hi.size, dtype=bool)
    np.equal(hi[1:], hi[:-1], out=tied[1:])
    tied[::n] = False
    right = np.flatnonzero(tied)
    if right.size:
        flat_order = order.reshape(-1)
        rows = right - right % n
        if np.any(dist.take(rows + flat_order[right])
                  != dist.take(rows + flat_order[right - 1])):
            # a collision run holds distinct distances: re-sort every
            # run on (distance, index), each run staying in place
            member = tied.copy()
            member[:-1] |= tied[1:]
            pos = np.flatnonzero(member)
            idx = flat_order[pos]
            perm = np.lexsort(
                (idx, dist.take(pos - pos % n + idx), np.cumsum(~tied[pos]))
            )
            flat_order[pos] = idx[perm]
    return order


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

    This is the reference ranking: it stays on numpy's stable
    mergesort on purpose, independent of the packed-key sort
    (:func:`stable_sort_rows`) that the engine's backends use, so the
    oracle never shares that sort's code.
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
