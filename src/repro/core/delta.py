"""Rank-local delta updates to the Theorem 1 recursion.

The exact KNN Shapley recursion is *rank-local*: writing ``f(i) =
min(K, i) / (K i)``, the per-test values in rank space are

.. code-block:: text

    s[n-1] = m[n-1] * min(K, n) / (n K)                    (anchor)
    s[j]   = s[j+1] + (m[j] - m[j+1]) * f(j+1)             (recursion)

so each *difference* ``s[j] - s[j+1]`` depends only on the adjacent
match pair ``(m[j], m[j+1])`` and the rank ``j+1``.  Inserting a
training point at sorted position ``p`` (or deleting the point at
``p``) therefore leaves every difference strictly above the insertion
boundary untouched: only the anchor and the boundaries at positions
``>= p - 1`` change.  The exact new value vector is recovered by

1. re-running the recursion over the affected *suffix* (positions
   ``>= p``),
2. taking one recursion step across the ``p-1``/``p`` boundary, and
3. shifting the untouched prefix by the constant
   ``delta = s_new[p-1] - s_old[p-1]``

— O(n - p) work instead of a fresh O(n d) distance pass and
O(n log n) sort.  This is what makes valuation of *dynamic* datasets
(churning data-market sellers) cheap: see
:class:`repro.engine.incremental.IncrementalValuator`, which applies
these repairs across a fitted test batch after each mutation of the
:class:`~repro.engine.engine.ValuationEngine` that owns the training
set.

The suffix recomputation reuses the exact floating-point evaluation
order of :func:`repro.core.exact.exact_knn_shapley_from_order` (same
diff formula, same reversed ``cumsum``), so a suffix recomputed after a
deletion is *bit-identical* to the values a from-scratch run would
produce at those ranks.  Only the prefix shift can differ from a fresh
run, by one rounding of the constant per element.

This module is deliberately free of any distance or backend logic —
pure rank-space math on one test point's state — so it can be tested
exhaustively against the reference recursion.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "rank_factor",
    "insertion_position",
    "removal_position",
    "suffix_rank_values",
    "suffix_rank_values_rows",
    "insert_rank_values",
    "remove_rank_values",
]


def rank_factor(pos: int, k: int) -> float:
    """The recursion coefficient ``f(i) = min(K, i) / (K i)`` at rank ``pos``.

    This single expression multiplies every match difference in the
    Theorem 1 recursion; the delta functions here and the batched
    repair in :mod:`repro.engine.incremental` all route through it so
    the formula cannot drift between the per-row reference and the
    vectorized production path.
    """
    return min(float(k), float(pos)) / (k * pos)


def insertion_position(sorted_dist: np.ndarray, d_new: float) -> int:
    """Sorted position a *new* training point takes in a distance row.

    ``sorted_dist`` is one test point's ascending distance vector.  The
    new point receives the largest training index, and ties are broken
    by index throughout the codebase, so among equal distances it ranks
    *after* every incumbent — i.e. ``searchsorted(..., side="right")``.
    """
    return int(np.searchsorted(sorted_dist, d_new, side="right"))


def removal_position(order_row: np.ndarray, train_idx: int) -> int:
    """Rank position of training point ``train_idx`` in one order row."""
    pos = np.nonzero(order_row == train_idx)[0]
    if pos.size != 1:
        raise ParameterError(
            f"training index {train_idx} appears {pos.size} times in the "
            "ranking; state is corrupt"
        )
    return int(pos[0])


def suffix_rank_values(match: np.ndarray, start: int, k: int) -> np.ndarray:
    """Theorem 1 values at rank positions ``start .. n-1``.

    ``match`` is the full 0/1 match vector in rank order for one test
    point (``match[j] = 1`` iff the ``j+1``-th nearest neighbor carries
    the test label).  Returns ``s[start:]`` — computed with the same
    floating-point operation order as the full recursion in
    :mod:`repro.core.exact`, so for any ``start`` the result is
    bit-identical to the corresponding slice of a from-scratch run.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    match = np.asarray(match, dtype=np.float64)
    n = match.shape[0]
    if not 0 <= start < n:
        raise ParameterError(f"start must lie in [0, {n}), got {start}")
    out = np.empty(n - start, dtype=np.float64)
    anchor = match[-1] * (min(k, n) / (n * k))
    out[-1] = anchor
    if n - start > 1:
        ranks = np.arange(start + 1, n, dtype=np.float64)
        factors = np.minimum(float(k), ranks) / (k * ranks)
        diffs = (match[start:-1] - match[start + 1 :]) * factors
        out[:-1] = np.cumsum(diffs[::-1])[::-1] + anchor
    return out


def suffix_rank_values_rows(
    match_rows: np.ndarray, start: int, k: int
) -> np.ndarray:
    """Vectorized :func:`suffix_rank_values` over many test points.

    ``match_rows`` has shape ``(n_test, n)`` — one match vector per
    test point (any integer or float dtype; 0/1 values).  Returns the
    ``(n_test, n - start)`` block of rank-space values at positions
    ``start .. n-1``, each row bit-identical to the corresponding
    slice of a from-scratch recursion.

    This is the engine-facing entry point: per-test mutation positions
    differ, so the maintainer recomputes from the *minimum* affected
    position across the batch — one vectorized pass instead of a
    Python loop over ragged per-test suffixes.  (Positions between the
    common ``start`` and a row's own mutation point are recomputed
    redundantly but *identically*: the recursion from any earlier
    start yields the same values.)
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    match_rows = np.atleast_2d(match_rows)
    n_test, n = match_rows.shape
    if not 0 <= start < n:
        raise ParameterError(f"start must lie in [0, {n}), got {start}")
    out = np.empty((n_test, n - start), dtype=np.float64)
    anchor = match_rows[:, -1] * (min(k, n) / (n * k))
    out[:, -1] = anchor
    if n - start > 1:
        # The recursion accumulates diffs from the far end inward; the
        # reference runs cumsum over a reversed *view*, which numpy
        # walks with negative strides at a multiple of the contiguous
        # speed.  Building the reversed diff array directly (same
        # values, same summation order — bit-identical output) lets
        # the cumsum, the dominant pass, run contiguously.
        ranks_rev = np.arange(n - 1, start, -1, dtype=np.float64)
        factors_rev = np.minimum(float(k), ranks_rev) / (k * ranks_rev)
        rev = match_rows[:, ::-1]
        diffs_rev = (rev[:, 1 : n - start] - rev[:, : n - start - 1]) * factors_rev
        np.cumsum(diffs_rev, axis=1, out=diffs_rev)
        np.add(diffs_rev[:, ::-1], anchor[:, None], out=out[:, :-1])
    return out


def _boundary_step(match: np.ndarray, pos: int, k: int) -> float:
    """The recursion step ``s[pos-1] - s[pos]`` from the match vector."""
    return (match[pos - 1] - match[pos]) * rank_factor(pos, k)


def insert_rank_values(
    s_old: np.ndarray, match_new: np.ndarray, pos: int, k: int
) -> np.ndarray:
    """Per-test values after inserting one training point at rank ``pos``.

    Parameters
    ----------
    s_old:
        Rank-space values before the insertion, length ``n``.
    match_new:
        Match vector *after* the insertion, length ``n + 1`` (the new
        point's match already spliced in at ``pos``).
    pos:
        0-based sorted position the new point occupies (from
        :func:`insertion_position`).
    k:
        The K of KNN.

    Returns
    -------
    numpy.ndarray
        Rank-space values for the grown ranking, length ``n + 1``.
        Positions ``>= pos`` are recomputed exactly; positions
        ``< pos`` are the old values shifted by the constant the
        recursion propagates across the insertion boundary.
    """
    match_new = np.asarray(match_new, dtype=np.float64)
    n1 = match_new.shape[0]
    if s_old.shape[0] != n1 - 1:
        raise ParameterError(
            f"s_old has length {s_old.shape[0]}, expected {n1 - 1}"
        )
    if not 0 <= pos <= n1 - 1:
        raise ParameterError(f"pos must lie in [0, {n1 - 1}], got {pos}")
    s_new = np.empty(n1, dtype=np.float64)
    s_new[pos:] = suffix_rank_values(match_new, pos, k)
    if pos > 0:
        s_boundary = s_new[pos] + _boundary_step(match_new, pos, k)
        s_new[: pos - 1] = s_old[: pos - 1] + (s_boundary - s_old[pos - 1])
        s_new[pos - 1] = s_boundary
    return s_new


def remove_rank_values(
    s_old: np.ndarray, match_new: np.ndarray, pos: int, k: int
) -> np.ndarray:
    """Per-test values after deleting the training point at rank ``pos``.

    Parameters
    ----------
    s_old:
        Rank-space values before the deletion, length ``n >= 2``.
    match_new:
        Match vector *after* the deletion, length ``n - 1``.
    pos:
        0-based sorted position the deleted point held.
    k:
        The K of KNN.

    Returns
    -------
    numpy.ndarray
        Rank-space values for the shrunk ranking, length ``n - 1``.

    Notes
    -----
    Deleting the *farthest* point (``pos == n - 1``) shifts no rank,
    but still changes the anchor (its ``min(K, n)/(n K)`` coefficient
    sees the new ``n``), so the recomputed suffix always includes at
    least the last position.
    """
    match_new = np.asarray(match_new, dtype=np.float64)
    n1 = match_new.shape[0]
    if n1 == 0:
        raise ParameterError("cannot remove the last remaining training point")
    if s_old.shape[0] != n1 + 1:
        raise ParameterError(
            f"s_old has length {s_old.shape[0]}, expected {n1 + 1}"
        )
    if not 0 <= pos <= n1:
        raise ParameterError(f"pos must lie in [0, {n1}], got {pos}")
    start = min(pos, n1 - 1)
    s_new = np.empty(n1, dtype=np.float64)
    s_new[start:] = suffix_rank_values(match_new, start, k)
    if start > 0:
        s_boundary = s_new[start] + _boundary_step(match_new, start, k)
        s_new[: start - 1] = s_old[: start - 1] + (s_boundary - s_old[start - 1])
        s_new[start - 1] = s_boundary
    return s_new
