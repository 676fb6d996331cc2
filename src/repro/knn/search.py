"""Brute-force nearest-neighbor search.

This is the substrate under the exact Shapley algorithms: Theorem 1 of
the paper needs, for every test point, the *full* ascending distance
ranking of the training set (``argsort_by_distance``), while the
truncated approximation of Theorem 2 and the KNN models themselves only
need the top ``k`` (``top_k``), which searches only the column blocks
that can hold a top-``k`` point and selects there with
``numpy.argpartition`` instead of a full O(n log n) sort.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import ParameterError
from .distance import get_metric, row_norms

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
    return _stable_rank(get_metric(metric)(queries, data))


def _stable_rank(dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(dist, axis=1, kind="stable")
    return order, np.take_along_axis(dist, order, axis=1)


#: columns per block of the block-minimum prune in :func:`top_k`
PRUNE_BLOCK = 128
#: a row is pruned only when it holds this many blocks per neighbour
PRUNE_BLOCKS_PER_K = 4


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

    The work is in proportion to the ``k`` neighbours, not to the row:
    each row's columns are cut into blocks of :data:`PRUNE_BLOCK` and
    only the blocks whose minimum is at or below the ``k``-th smallest
    block minimum (plus the short remainder block) are searched.  That
    is exact: ``k`` blocks hold a point at or below that minimum, so
    the ``k``-th distance is at most it, and every point at or below
    the ``k``-th distance, ties included, sits in a kept block.  The
    candidates keep ascending column order, so a tie is still won by
    the lower index.  Euclidean rows prune on squared distances and
    take the square root of the block minima and of the candidates
    only: ``sqrt`` is monotone, so ``sqrt(min) == min(sqrt)``, and two
    squared distances with one square root tie as they do in
    :func:`argsort_by_distance`.  Rows with fewer than
    :data:`PRUNE_BLOCKS_PER_K` blocks per neighbour search the whole
    row, and so does a batch in which ties at the threshold keep more
    than half of some row's blocks.

    The selection makes three passes over the candidates: one
    ``argpartition``, a gather of the ``k`` picks and one count of the
    points at or below each row's k-th distance.  A row with exactly
    ``k`` such points has a unique pick, which one lexsort on
    ``(distance, index)`` orders.  A row whose k-th distance is tied
    with a point outside the picks falls back to an exact selection:
    everything strictly below the k-th distance, then the
    lowest-indexed tied points.  With ``k >= n`` the whole row is
    ranked by :func:`stable_sort_rows`.

    Returns
    -------
    (indices, distances):
        Both of shape ``(q, min(k, n))``, ordered nearest-first.
    """
    return _top_k(queries, data, k, metric, None)


def _top_k(queries, data, k: int, metric: str, data_norms):
    """:func:`top_k` with the data's :func:`~repro.knn.distance.row_norms`."""
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    data = np.atleast_2d(data)
    n = data.shape[0]
    k_eff = min(k, n)
    rooted = metric == "euclidean"
    dist = get_metric("sqeuclidean" if rooted else metric)(queries, data, data_norms)
    if k_eff < n and dist.shape[0] and n // PRUNE_BLOCK >= PRUNE_BLOCKS_PER_K * k_eff:
        kept = _kept_columns(dist, k_eff, rooted)
        if kept is not None:
            cols, pad = kept
            # one flat take: far cheaper than take_along_axis's fancy index
            cand = dist.take(cols + np.arange(0, dist.size, n)[:, None])
            if rooted:
                np.sqrt(cand, out=cand)
            cand[pad] = np.inf
            return _select(cand, k_eff, cols)
    if rooted:
        np.sqrt(dist, out=dist)
    if k_eff == n:
        return stable_sort_rows(dist)
    return _select(dist, k_eff, None)


def _kept_columns(dist: np.ndarray, k: int, rooted: bool):
    """Every row's columns in blocks that can hold a top-``k`` point.

    Returns ``(cols, pad)``: ``cols`` lists each row's kept columns in
    ascending order, padded at the end of the row to the widest row,
    and ``pad`` marks the padding (its ``cols`` entries repeat the last
    column, so a gather stays in bounds).  Returns ``None``, and so
    leaves the batch to the whole-row selection, when a row's
    threshold is not finite (infinite or NaN distances) or when some
    row keeps more than half its blocks.
    """
    q, n = dist.shape
    width = PRUNE_BLOCK
    full = n // width
    # fmin skips NaN, so a block is never dropped for holding one
    mins = np.fmin.reduce(dist[:, : full * width].reshape(q, full, width), axis=2)
    if rooted:
        np.sqrt(mins, out=mins)
    kth = np.partition(mins, k - 1, axis=1)[:, k - 1 : k]
    if not np.isfinite(kth).all():
        return None
    keep = mins <= kth
    if n % width:  # the remainder block is always searched
        keep = np.concatenate((keep, np.ones((q, 1), dtype=bool)), axis=1)
    counts = np.count_nonzero(keep, axis=1)
    if 2 * counts.max() > keep.shape[1]:
        # ties at the threshold keep most blocks (integer or heavily
        # duplicated data); the gather would cost more than it saves
        return None
    rows, blocks = np.nonzero(keep)  # ascending block order per row
    slot = np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    # padding slots name a block past the end: their columns are >= n
    kept = np.full((q, int(counts.max())), -(-n // width), dtype=np.intp)
    kept[rows, slot] = blocks
    cols = (kept[:, :, None] * width + np.arange(width)).reshape(q, -1)
    pad = cols >= n
    np.minimum(cols, n - 1, out=cols)
    return cols, pad


def _select(dist: np.ndarray, k: int, cols) -> tuple[np.ndarray, np.ndarray]:
    """The ``k`` smallest entries of each row, ties to the lower position.

    ``cols`` maps positions to training indices (ascending in each
    row); ``None`` means the positions are the indices.
    """
    idx = np.argpartition(dist, k - 1, axis=1)[:, :k]
    cand = np.take_along_axis(dist, idx, axis=1)
    kth = cand[:, k - 1 : k]
    clean = np.count_nonzero(dist <= kth, axis=1) == k
    if not clean.all():
        # argpartition admits an arbitrary subset of the points tied
        # at the k-th distance; these rows re-select them by position
        tied = np.flatnonzero(~clean)
        sub, sub_kth = dist[tied], kth[tied]
        below = sub < sub_kth
        need = k - below.sum(axis=1, keepdims=True)
        at_kth = sub == sub_kth
        take = below | (at_kth & (np.cumsum(at_kth, axis=1) <= need))
        # each row has exactly k True entries, in ascending position
        # order
        idx[tied] = np.nonzero(take)[1].reshape(tied.size, k)
        cand[tied] = np.take_along_axis(sub, idx[tied], axis=1)
    if cols is not None:
        idx = np.take_along_axis(cols, idx, axis=1)
    # primary key distance, secondary key training index
    inner = np.lexsort((idx, cand), axis=1)
    return np.take_along_axis(idx, inner, axis=1), np.take_along_axis(cand, inner, axis=1)


class KNNSearchIndex:
    """A tiny exact search index over a fixed data matrix.

    The index computes the data's row norms
    (:func:`~repro.knn.distance.row_norms`, ``||x_i||^2`` for
    euclidean) once, at construction, and hands them to every query,
    so repeated queries never recompute them; the answers are
    bit-identical to :func:`top_k` and :func:`argsort_by_distance`.  It
    intentionally mirrors the query interface of
    :class:`repro.lsh.tables.LSHIndex` so valuation code can swap exact
    search for approximate search.
    """

    def __init__(self, data: np.ndarray, metric: str = "euclidean") -> None:
        self._data = np.ascontiguousarray(np.atleast_2d(data), dtype=np.float64)
        if self._data.shape[0] == 0:
            raise ParameterError("search index requires at least one point")
        self._metric = metric
        self._norms = row_norms(self._data, metric)  # validates the metric

    @property
    def n(self) -> int:
        """Number of indexed points."""
        return int(self._data.shape[0])

    @property
    def metric(self) -> str:
        """Distance metric name."""
        return self._metric

    @property
    def data(self) -> np.ndarray:
        """The indexed points, ``(n, d)``; read-only."""
        return self._data

    @property
    def data_norms(self) -> Optional[np.ndarray]:
        """The kept row norms (``None`` for a metric without them)."""
        return self._norms

    def distances(self, queries: np.ndarray) -> np.ndarray:
        """Raw query-to-data distances, ``(q, n)``, unsorted."""
        return get_metric(self._metric)(queries, self._data, self._norms)

    def query(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-``k`` search; see :func:`top_k`."""
        return _top_k(queries, self._data, k, self._metric, self._norms)

    def query_all(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Full ascending ranking; see :func:`argsort_by_distance`."""
        return _stable_rank(self.distances(queries))
