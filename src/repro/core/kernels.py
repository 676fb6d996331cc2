"""Rank-space valuation kernels: one audited recursion core per theorem.

Every fast algorithm in the paper (Jia et al., PVLDB'19) is, at heart,
an O(N)-per-test recursion over the *same* inputs: the training points
re-indexed by ascending distance to a test point, together with their
labels (and, for the weighted variants, their distances).  This module
names that shared input a :class:`RankPlan` and collects the
recursions themselves behind one :class:`ValuationKernel` interface:

==============  ===========================================  ==========
kernel          recursion                                    complexity
==============  ===========================================  ==========
``exact``       Theorem 1 (unweighted classification)        O(N)
``truncated``   Theorem 2 (zero beyond rank ``K*``)          O(K*)
``regression``  Theorem 6 (unweighted regression)            O(N)
``weighted``    Theorem 7 / eq (75) (weighted KNN)           see below
==============  ===========================================  ==========

The ``weighted`` kernel picks one of four execution paths
(``mode="auto"`` selects by weight-function capability and task; see
:meth:`WeightedKernel.select_path`):

==============  ============================================  ==========  ===============
path            applies to                                    complexity  config memory
==============  ============================================  ==========  ===============
``k1``          K = 1, built-in (normalizing) weights         O(N)        —
``piecewise``   rank-only weights, classification             O(N·K^2)    —
``piecewise``   rank-only weights, regression (label moments) O(N·K^3)    —
``vectorized``  any weights / task (batched configurations)   O(N^K)      O(block_rows·K)
``reference``   any weights / task (audited eq 74/75 loop)    O(N^K)      —
==============  ============================================  ==========  ===============

``piecewise`` runs the Appendix-F counting closed forms of
:mod:`repro.core.piecewise` — exact to <= 1e-12 against the reference
recursion, polynomial in both N and K; for regression the counting
sums carry binomial-weighted first/second label moments instead of
coalition counts.  ``vectorized`` evaluates the same eq (74)/(75) sums
as ``reference`` but enumerates the top-(K-1) configurations in
fixed-size colex blocks (:func:`iter_combination_blocks`) and
evaluates whole blocks of coalitions per numpy pass (pad weights
folded through a precomputed comb table), trading nothing but
summation order — a pure constant-factor win over the per-coalition
Python recursion, at ``O(block_rows·K)`` configuration memory for any
N and K.  Its price is its configuration count, so a request's
deadline is checked between blocks (:func:`block_checks`).

The public modules :mod:`repro.core.exact`, :mod:`repro.core.truncated`,
:mod:`repro.core.regression` and :mod:`repro.core.weighted` are thin
wrappers over the rank-space functions here, and the batched/cached/
parallel :class:`repro.engine.ValuationEngine` dispatches every request
through the kernel registry — so the recursion each theorem depends on
exists exactly once, is audited once, and every execution layer (single
shot, engine, streaming, LSH) produces bit-identical values from the
same plan.

Capabilities
------------
Each kernel carries a :class:`KernelCapabilities` record so execution
layers can route generically instead of hard-coding method names:

* ``needs_full_ranking`` — the recursion consumes the whole ranking
  (Theorems 1/6/7); ``False`` means a top-``K*`` prefix suffices
  (Theorem 2, and therefore the LSH path of Theorem 4).
* ``supports_regression`` — the kernel consumes real-valued labels.
* ``needs_distances`` — the kernel needs the sorted distance rows of
  the plan (the weighted kernel's weight functions do).

Dtype contract
--------------
``values_from_plan`` always returns a C-contiguous float64
``(n_test, n_train)`` matrix in *original training-index order*
(see :func:`repro.types.as_value_matrix`); the multi-test Shapley
value is its column mean by additivity (eq 8).  The serving layers
ask for the column sums through ``column_sums_from_plan`` instead,
which the ``exact`` and ``truncated`` kernels and the weighted ``k1``
and ``piecewise`` paths compute with one ``bincount`` over the plan,
without materializing the matrix.

Third parties can register additional kernels with
:func:`register_kernel`; the engine accepts any registered name as a
``method``.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import KernelCapabilityError, ParameterError
from ..knn.weights import (
    WeightFunction,
    apply_weights_batched,
    get_weight_function,
    is_rank_only,
    weight_position_table,
)
from ..types import as_value_matrix
from .piecewise import (
    chain_values_from_differences,
    weighted_knn_anchor_coefficients,
    weighted_knn_group_weight_totals,
    weighted_knn_regression_anchor,
    weighted_knn_regression_pair_totals,
)

__all__ = [
    "KernelCapabilities",
    "RankPlan",
    "ValuationKernel",
    "ExactClassificationKernel",
    "TruncatedKernel",
    "RegressionKernel",
    "WeightedKernel",
    "classification_rank_values",
    "truncated_rank_values",
    "truncated_plan_values",
    "regression_rank_values",
    "weighted_rank_values",
    "weighted_rank_only_values",
    "weighted_regression_rank_only_values",
    "BatchedWeightedRecursion",
    "block_checks",
    "iter_combination_blocks",
    "pad_weight_table",
    "truncation_rank",
    "register_kernel",
    "get_kernel",
    "available_kernels",
    "WEIGHTED_VALUE_CACHE_LIMIT",
]


# ======================================================================
# rank-space recursions (the audited cores)
# ======================================================================
def classification_rank_values(match_sorted: np.ndarray, k: int) -> np.ndarray:
    """Run the Theorem 1 recursion for every row of ``match_sorted``.

    Parameters
    ----------
    match_sorted:
        Array of shape ``(n_test, n)``; entry ``[j, p]`` is 1.0 when
        the (p+1)-th nearest neighbor of test point ``j`` carries the
        test label, else 0.0.  (Any per-rank payload works — the
        recursion only assumes the utility of a coalition is the mean
        payload of its ``K`` nearest members, which is what the K=1
        weighted fast path exploits.)
    k:
        The K of KNN.

    Returns
    -------
    numpy.ndarray
        Shapley values in *rank* space, shape ``(n_test, n)``:
        column ``p`` holds ``s_{alpha_{p+1}}``.
    """
    n_test, n = match_sorted.shape
    s = np.empty((n_test, n), dtype=np.float64)
    # Anchor: the farthest point only matters for coalitions of size
    # < K, each contributing 1[match]/K.  For K < N that telescopes to
    # 1[match]/N (eq 17); in general it is 1[match] * min(K, N)/(N K),
    # which covers the K >= N corner the paper leaves implicit.
    s[:, -1] = match_sorted[:, -1] * (min(k, n) / (n * k))
    if n == 1:
        return s
    ranks = np.arange(1, n, dtype=np.float64)  # i = 1 .. n-1
    factors = np.minimum(float(k), ranks) / (k * ranks)
    # every step runs in place in ``s``: no (n_test, n) temporaries
    diffs = s[:, :-1]
    np.subtract(match_sorted[:, :-1], match_sorted[:, 1:], out=diffs)
    diffs *= factors
    # s_{alpha_i} = s_{alpha_N} + sum_{j=i}^{N-1} diff_j  -> reverse cumsum
    tail = diffs[:, ::-1]
    np.cumsum(tail, axis=1, out=tail)
    diffs += s[:, -1:]
    return s


def truncation_rank(k: int, epsilon: float) -> int:
    """The rank ``K* = max(K, ceil(1/epsilon))`` of Theorem 2.

    The single implementation: :mod:`repro.core.truncated`, the engine's
    top-``K*`` path and the LSH valuation all call this function.
    """
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if not epsilon > 0:  # NaN included
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    return max(k, math.ceil(1.0 / epsilon))


def truncated_rank_values(
    neighbor_labels: np.ndarray,
    y_test: object,
    k: int,
    k_star: int,
    n_train: int | None = None,
) -> np.ndarray:
    """Run the truncated recursion given the labels of ranked neighbors.

    Parameters
    ----------
    neighbor_labels:
        Labels of (at least the first ``k_star``) training points in
        ascending-distance order for one test point.  Fewer labels are
        accepted — the recursion then starts from the last available
        rank, which is what happens when an approximate index returns
        fewer than ``k_star`` candidates.
    y_test:
        The test label.
    k:
        The K of KNN.
    k_star:
        Truncation rank (ranks ``>= k_star`` get value 0).
    n_train:
        Total training-set size.  Only needed for the degenerate case
        ``k_star >= n_train`` where no rank is truncated: the recursion
        then anchors at the *exact* farthest-point value
        ``1[match] * min(K, N) / (N K)`` and reproduces Theorem 1
        exactly.  Defaults to "the labels are a strict prefix", i.e.
        ranks at and beyond ``k_star`` exist and are zeroed.

    Returns
    -------
    numpy.ndarray
        Approximate Shapley values in rank space, one per supplied
        label (zeros beyond rank ``k_star``).
    """
    labels = np.asarray(neighbor_labels)
    n = labels.shape[0]
    values = np.zeros(n, dtype=np.float64)
    if n == 0:
        return values
    match = (labels == y_test).astype(np.float64)
    if n_train is not None and k_star >= n_train and n == n_train:
        # Nothing is truncated: anchor exactly (Theorem 1).
        running = float(match[-1]) * min(k, n_train) / (n_train * k)
        values[-1] = running
        start = n - 1
    else:
        # s_{alpha_i} = 0 for ranks >= k_star; recurse below them.
        running = 0.0
        start = min(k_star - 1, n - 1)
    for i in range(start, 0, -1):  # i is the 1-based rank of alpha_i
        running += (match[i - 1] - match[i]) / k * min(k, i) / i
        values[i - 1] = running
    return values


def truncated_plan_values(
    match_sorted: np.ndarray,
    lengths: Optional[np.ndarray],
    k: int,
    k_star: int,
    n_train: int | None = None,
) -> np.ndarray:
    """:func:`truncated_rank_values` for every row at once.

    ``match_sorted`` is the ``(n_test, m)`` 0/1 label-match matrix in
    rank order and ``lengths`` each row's valid prefix (``None``: all
    ``m``); entries past a row's prefix come out 0.  Each element goes
    through the per-row recursion's own operations, and the running
    sum is one reverse ``cumsum`` that starts at the row's anchor, so
    every row is bit-identical to :func:`truncated_rank_values`.
    """
    n_test, m = match_sorted.shape
    if lengths is None:
        lengths = np.full(n_test, m, dtype=np.intp)
    # rows covering the whole training set anchor at the exact
    # farthest-point value; the rest start at 0 below rank k_star
    anchored = (
        lengths == n_train
        if n_train is not None and k_star >= n_train
        else np.zeros(n_test, dtype=bool)
    )
    start = np.where(anchored, lengths - 1, np.minimum(k_star - 1, lengths - 1))
    vals = np.zeros((n_test, m), dtype=np.float64)
    if m > 1:
        ranks = np.arange(1, m, dtype=np.float64)  # i = 1 .. m-1
        diffs = vals[:, :-1]
        np.subtract(match_sorted[:, :-1], match_sorted[:, 1:], out=diffs)
        diffs /= k
        diffs *= np.minimum(k, ranks)
        diffs /= ranks
        diffs[np.arange(m - 1) >= start[:, None]] = 0.0
    rows = np.flatnonzero(anchored)
    if rows.size:
        last = start[rows]
        vals[rows, last] = match_sorted[rows, last] * min(k, n_train) / (n_train * k)
    tail = vals[:, ::-1]
    np.cumsum(tail, axis=1, out=tail)
    return vals


def regression_rank_values(
    y_sorted: np.ndarray, t: float, k: int
) -> np.ndarray:
    """Theorem 6 recursion for one test point, in rank space.

    See :mod:`repro.core.regression` for the derivation of the prefix/
    suffix-sum form implemented here.
    """
    n = y_sorted.shape[0]
    y = np.asarray(y_sorted, dtype=np.float64)
    s = np.empty(n, dtype=np.float64)

    if n == 1:
        # Only coalition sizes 0/1 exist: s_1 = v({1}) - v(∅).
        s[0] = -((y[0] / k - t) ** 2) + t**2
        return s

    total = float(y.sum())
    if k >= n:
        # Every coalition has size < K, so the farthest point always
        # contributes; averaging its marginal -(y_N/K)(2*sum(S)/K +
        # y_N/K - 2t) over the Shapley weights gives the closed form
        # below (the paper's eq 62 assumes K < N).
        s[-1] = -(y[-1] / k) * (total / k - 2.0 * t)
    else:
        # The paper's eq (62) silently uses v(∅) = 0, but eq (25) gives
        # v(∅) = -t^2.  The empty coalition contributes (v({i}) -
        # v(∅))/N to every player, so honoring eq (25) adds t^2/N to
        # the anchor (and thereby, through the telescoping, to every
        # value) — this is what makes group rationality sum to
        # v(I) - v(∅) exactly.
        s[-1] = (
            -((k - 1) / (n * k))
            * y[-1]
            * (y[-1] / k - 2.0 * t + (total - y[-1]) / (n - 1))
            - (1.0 / n) * (y[-1] / k - t) ** 2
            + t**2 / n
        )

    i = np.arange(1, n, dtype=np.float64)  # ranks 1 .. n-1
    min_ki = np.minimum(float(k), i)
    min_k1 = np.minimum(float(k - 1), i - 1.0)

    # prefix sums P_{i-1} = sum_{l <= i-1} y_l  (P_0 = 0); note
    # prefix[i-1] = sum of y_1..y_{i-1}, arrays are 0-indexed below
    prefix = np.concatenate(([0.0], np.cumsum(y)[:-1]))  # prefix[j] = sum of first j labels
    p_im1 = prefix[0 : n - 1]  # for i = 1..n-1: prefix of i-1 labels

    # suffix sums T_{i+2} = sum_{l >= i+2} w_l y_l with
    # w_l = min(K, l-1) * min(K-1, l-2) / ((l-1)(l-2)), defined for l >= 3.
    w = np.zeros(n + 1, dtype=np.float64)  # w[l] for 1-based l
    ell = np.arange(3, n + 1, dtype=np.float64)
    w[3:] = np.minimum(float(k), ell - 1.0) * np.minimum(float(k - 1), ell - 2.0) / (
        (ell - 1.0) * (ell - 2.0)
    )
    wy = w[1:] * y  # weighted labels, 0-indexed position l-1
    suffix = np.concatenate((np.cumsum(wy[::-1])[::-1], [0.0]))  # suffix[p] = sum_{l>=p+1} wy
    # T_{i+2} = sum over l >= i+2 -> suffix at 0-indexed position i+1
    t_suffix = suffix[2 : n + 1]  # for i = 1..n-1: suffix[i+1]

    u1 = (min_ki / i) * ((y[:-1] + y[1:]) / k - 2.0 * t)
    with np.errstate(divide="ignore", invalid="ignore"):
        prefix_coeff = np.where(
            i > 1.0, min_ki * min_k1 / (np.maximum(i - 1.0, 1.0) * i), 0.0
        )
    u2 = (p_im1 * prefix_coeff + t_suffix) / k
    deltas = (y[1:] - y[:-1]) / k * (u1 + u2)  # s_i - s_{i+1} for i = 1..n-1

    tail = np.cumsum(deltas[::-1])[::-1]
    s[:-1] = s[-1] + tail
    return s


def _pad_weight(n: int, k: int, rmax: int) -> float:
    """``sum_{k'=K-1}^{N-2} C(N - rmax, k' - K + 1) / C(N-2, k')``.

    The total Lemma-1 weight of one size-(K-1) configuration whose
    worst member (including the pair i, i+1) has rank ``rmax``.
    """
    avail = n - rmax
    total = 0.0
    for pad in range(avail + 1):
        kk = k - 1 + pad
        if kk > n - 2:
            break
        total += math.comb(avail, pad) / math.comb(n - 2, kk)
    return total


#: Default bound on the per-call coalition-value memo of
#: :func:`weighted_rank_values`.  Every memoized coalition has at most
#: K members (the recursion only ever evaluates the selected top-K), so
#: the unbounded cache grows as ``O(C(N, K))`` — the algorithm's whole
#: evaluation budget held in memory at once.  A quarter-million entries
#: keeps small-N exact runs fully memoized (no behavior change) while
#: capping resident memory at tens of MB for large N; past the bound,
#: insertion-order (FIFO) eviction preserves the adjacent-pair locality
#: the recursion actually reuses.
WEIGHTED_VALUE_CACHE_LIMIT = 1 << 18


def weighted_rank_values(
    v: Callable[[Tuple[int, ...]], float],
    n: int,
    k: int,
    max_cache_entries: Optional[int] = WEIGHTED_VALUE_CACHE_LIMIT,
) -> np.ndarray:
    """Theorem 7 for one test point, given a coalition-value oracle.

    Parameters
    ----------
    v:
        Maps a tuple of sorted 1-based *ranks* to the coalition's
        single-test utility.  Evaluations are memoized here, so the
        oracle may be arbitrarily expensive.
    n:
        Number of players (training points).
    k:
        The K of KNN.
    max_cache_entries:
        Bound on the coalition-value memo
        (:data:`WEIGHTED_VALUE_CACHE_LIMIT` by default; ``None`` for
        the historical unbounded behavior).  Once full, the oldest
        entry is evicted per insertion — values are unchanged, distant
        coalitions may just be re-evaluated.

    Returns
    -------
    numpy.ndarray
        Shapley values in rank space, length ``n``.

    Complexity: ``O(C(N-2, K-1) * N)`` utility evaluations — exponential
    in K but polynomial in N, matching the paper's ``O(N^K)``.
    """
    if n < 1:
        raise ParameterError(f"n must be positive, got {n}")
    if max_cache_entries is not None and max_cache_entries < 1:
        raise ParameterError(
            f"max_cache_entries must be positive or None, got "
            f"{max_cache_entries}"
        )
    value_cache: dict[tuple[int, ...], float] = {}

    def cv(rank_members: tuple[int, ...]) -> float:
        """Memoized utility of a coalition of sorted 1-based ranks."""
        cached = value_cache.get(rank_members)
        if cached is None:
            cached = v(rank_members)
            if (
                max_cache_entries is not None
                and len(value_cache) >= max_cache_entries
            ):
                value_cache.pop(next(iter(value_cache)))
            value_cache[rank_members] = cached
        return cached

    if n < 2:
        # single training point: s = v({1}) - v(∅)
        return np.array([cv((1,)) - cv(())])

    s_rank = np.empty(n, dtype=np.float64)

    # ---- anchor: the farthest point (eq 74) -------------------------
    others = range(1, n)  # ranks 1..N-1
    total = 0.0
    for size in range(0, k):
        inv_binom = 1.0 / math.comb(n - 1, size)
        level = 0.0
        for combo in itertools.combinations(others, size):
            with_n = tuple(sorted(combo + (n,)))
            level += cv(with_n) - cv(combo)
        total += inv_binom * level
    s_rank[n - 1] = total / n

    # ---- recursion over adjacent ranks (eq 75) ----------------------
    # memoized per rmax: at most n distinct values per call, each an
    # O(N) big-integer comb sum that used to be recomputed per coalition
    pad_cache: dict[int, float] = {}

    def pad(rmax: int) -> float:
        w = pad_cache.get(rmax)
        if w is None:
            w = _pad_weight(n, k, rmax)
            pad_cache[rmax] = w
        return w

    pool = list(range(1, n + 1))
    check = _BLOCK_CHECK.get()
    for i in range(n - 1, 0, -1):  # compute s_i from s_{i+1}
        if check is not None:
            check("between rank steps")
        rest = [r for r in pool if r != i and r != i + 1]
        acc = 0.0
        # small coalitions: |S| <= K-2, every subset counts once
        for size in range(0, max(0, k - 1)):
            inv_binom = 1.0 / math.comb(n - 2, size)
            level = 0.0
            for combo in itertools.combinations(rest, size):
                si = tuple(sorted(combo + (i,)))
                sj = tuple(sorted(combo + (i + 1,)))
                level += cv(si) - cv(sj)
            acc += inv_binom * level
        # large coalitions: top-(K-1) configurations with pad weights
        if n - 2 >= k - 1:
            for combo in itertools.combinations(rest, k - 1):
                rmax = max(combo + (i + 1,))
                si = tuple(sorted(combo + (i,)))
                sj = tuple(sorted(combo + (i + 1,)))
                diff = cv(si) - cv(sj)
                if diff != 0.0:
                    acc += pad(rmax) * diff
        s_rank[i - 1] = s_rank[i] + acc / (n - 1)

    return s_rank


def weighted_rank_only_values(
    match_sorted: np.ndarray, k: int, weight_table: np.ndarray
) -> np.ndarray:
    """O(N·K^2 + n_test·N) piecewise path: rank-only weighted KNN.

    Runs the Theorem 7 recursion for every row of ``match_sorted`` in
    closed form, using the Appendix-F counting kernels of
    :mod:`repro.core.piecewise`: with a rank-only weight function
    (tabulated as ``weight_table[m-1, q-1] = w_q(m)``, see
    :func:`repro.knn.weights.weight_position_table`) the adjacent-rank
    utility difference is ``w_{a+1}(m) * (match_i - match_{i+1})``
    over O(K^2) piecewise groups, so both the eq (75) differences and
    the eq (74) anchor reduce to fixed coefficient vectors applied to
    the match indicators — no coalition is ever enumerated.

    Parameters mirror :func:`classification_rank_values`; the result is
    equal to the reference recursion within accumulated rounding
    (<= 1e-12).  Classification only: the regression utility's
    marginal depends on the incumbents' weighted label sum, which is
    not piecewise constant over polynomially many groups.
    """
    match_sorted = np.atleast_2d(np.asarray(match_sorted, dtype=np.float64))
    n_test, n = match_sorted.shape
    weight_table = np.asarray(weight_table, dtype=np.float64)
    if n == 1:
        # single training point: s = v({1}) - v(∅) = w_1(1) * match
        return match_sorted * weight_table[0, 0]
    totals = weighted_knn_group_weight_totals(n, k, weight_table)
    beta, last_coef = weighted_knn_anchor_coefficients(n, k, weight_table)
    s = np.empty((n_test, n), dtype=np.float64)
    s[:, -1] = (
        match_sorted[:, :-1] @ beta + last_coef * match_sorted[:, -1]
    ) / n
    diffs = (match_sorted[:, :-1] - match_sorted[:, 1:]) * (
        totals / (n - 1)
    )[None, :]
    tail = np.cumsum(diffs[:, ::-1], axis=1)[:, ::-1]
    s[:, :-1] = tail + s[:, -1:]
    return s


def weighted_regression_rank_only_values(
    y_sorted: np.ndarray, y_test: np.ndarray, k: int, weight_table: np.ndarray
) -> np.ndarray:
    """O(n_test·N·K^3) piecewise path: rank-only weighted KNN regression.

    Runs the Theorem 7 recursion for the regression utility ``v(S) =
    -(pred(S) - t)^2`` (eq 27) in closed form via the label-moment
    machinery of :mod:`repro.core.piecewise`
    (:func:`weighted_knn_regression_pair_totals` /
    :func:`weighted_knn_regression_anchor`): with a rank-only weight
    function the adjacent-rank marginal is linear in the incumbents'
    weighted label sum and the anchor quadratic, so binomial-weighted
    first/second label moments replace the O(C(N-2, K-1)·N)
    configuration enumeration entirely.

    Parameters
    ----------
    y_sorted:
        ``(n_test, n)`` training labels in ascending-distance rank
        order per test point.
    y_test:
        ``(n_test,)`` regression targets.
    k:
        The K of KNN.
    weight_table:
        ``(K, K)`` rank-only weight table, ``table[m-1, q-1] = w_q(m)``
        (:func:`repro.knn.weights.weight_position_table`).

    Returns
    -------
    numpy.ndarray
        Shapley values in rank space, shape ``(n_test, n)``; equal to
        the reference recursion within accumulated rounding (<= 1e-12).
    """
    y_sorted = np.atleast_2d(np.asarray(y_sorted, dtype=np.float64))
    y_test = np.atleast_1d(np.asarray(y_test, dtype=np.float64))
    n_test, n = y_sorted.shape
    table = np.asarray(weight_table, dtype=np.float64)
    s = np.empty((n_test, n), dtype=np.float64)
    for j in range(n_test):
        t = float(y_test[j])
        if n == 1:
            # single training point: s = v({1}) - v(∅)
            s[j, 0] = -((table[0, 0] * y_sorted[j, 0] - t) ** 2) + t**2
            continue
        totals = weighted_knn_regression_pair_totals(
            n, k, table, y_sorted[j], t
        )
        anchor = weighted_knn_regression_anchor(n, k, table, y_sorted[j], t)
        s[j] = chain_values_from_differences(anchor, totals / (n - 1))
    return s


def pad_weight_table(n: int, k: int) -> np.ndarray:
    """Vectorized fold of :func:`_pad_weight` over every ``rmax``.

    Returns ``table`` of length ``n + 1`` with ``table[rmax] =
    _pad_weight(n, k, rmax)`` (index 0 unused).  Each row is computed
    as a cumulative product of small rational step ratios instead of
    big-integer ``math.comb`` sums — O(N) float multiplications per
    ``rmax`` and a few ulps of rounding, where the scalar form builds
    thousand-digit integers.
    """
    if n < 2 or k < 1:
        raise ParameterError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    table = np.zeros(n + 1, dtype=np.float64)
    if k - 1 > n - 2:
        return table  # no coalition of size >= K-1 exists
    first = 1.0 / math.comb(n - 2, k - 1)
    for rmax in range(1, n + 1):
        avail = n - rmax
        max_pad = min(avail, (n - 2) - (k - 1))
        # term(p) = C(avail, p) / C(n-2, k-1+p); successive ratio is
        # (avail-p+1)(k-1+p) / (p (n-k-p)), denominator safe: p <= n-1-k
        if max_pad <= 0:
            table[rmax] = first
            continue
        p = np.arange(1.0, max_pad + 1.0)
        ratios = (avail - p + 1.0) * (k - 1.0 + p) / (p * (n - k - p))
        table[rmax] = first * (1.0 + np.cumprod(ratios).sum())
    return table


def _colex_combinations(n_items: int, r: int) -> np.ndarray:
    """All size-``r`` sorted index combinations, in *colex* order.

    Colex (compare the last element first) is the order of the
    configuration engine's enumeration, and this function is the
    materialized reference :func:`iter_combination_blocks` is tested
    against: the rows ending in ``c`` are exactly ``colex(c, r-1)``
    with a ``c`` column appended, and ``colex(c, r-1)`` is a prefix of
    ``colex(n, r-1)`` — so the full array builds column-by-column from
    ramps and repeats (no per-row Python), and the generator emits the
    identical sequence in fixed-size blocks with no bigint unranking.
    """
    if r == 0:
        return np.zeros((1, 0), dtype=np.intp)
    if n_items < r:
        return np.zeros((0, r), dtype=np.intp)
    out = np.arange(n_items, dtype=np.intp)[:, None]
    for j in range(2, r + 1):
        counts = np.array(
            [math.comb(c, j - 1) for c in range(j - 1, n_items)],
            dtype=np.intp,
        )
        total = int(counts.sum())
        last = np.repeat(np.arange(j - 1, n_items, dtype=np.intp), counts)
        offsets = np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        )
        ramp = np.arange(total, dtype=np.intp) - offsets
        out = np.concatenate((out[ramp], last[:, None]), axis=1)
    return out


def iter_combination_blocks(
    n_items: int, r: int, block_rows: int = 1 << 15
):
    """Stream size-``r`` combinations in colex order, in fixed blocks.

    Yields ``(block_rows, r)`` integer arrays (the final block may be
    shorter) whose concatenation equals
    :func:`_colex_combinations` ``(n_items, r)`` row-for-row — the
    configuration engine's only source of configurations.  Nothing
    proportional to ``C(n_items, r)`` is ever resident: blocks are
    assembled from *runs* (for a fixed suffix ``c_1 < ... < c_{r-1}``
    the first column is just ``arange(c_1)``), with the suffix advanced
    by the colex successor rule — ``O(1)`` integer work per run, no
    bigint unranking.
    """
    if block_rows < 1:
        raise ParameterError(f"block_rows must be positive, got {block_rows}")
    if r < 0:
        raise ParameterError(f"r must be non-negative, got {r}")
    if r == 0:
        yield np.zeros((1, 0), dtype=np.intp)
        return
    if n_items < r:
        return
    if r == 1:
        for start in range(0, n_items, block_rows):
            stop = min(start + block_rows, n_items)
            yield np.arange(start, stop, dtype=np.intp)[:, None]
        return

    def pieces():
        # suffix c_2 < ... < c_{r-1} (empty for r == 2), colex order
        tail = [j + 2 for j in range(r - 2)]
        while True:
            c_top = tail[0] if r > 2 else n_items
            c1 = 1
            while c1 < c_top:
                # pack whole c1-runs up to ~block_rows rows per piece
                c1_end = c1
                rows = 0
                while c1_end < c_top and rows + c1_end <= block_rows:
                    rows += c1_end
                    c1_end += 1
                if rows == 0:  # a single run larger than a block
                    rows = c1
                    c1_end = c1 + 1
                piece = np.empty((rows, r), dtype=np.intp)
                counts = np.arange(c1, c1_end, dtype=np.intp)
                piece[:, 1] = np.repeat(counts, counts)
                offsets = np.repeat(
                    np.concatenate(([0], np.cumsum(counts)[:-1])), counts
                )
                piece[:, 0] = np.arange(rows, dtype=np.intp) - offsets
                if r > 2:
                    piece[:, 2:] = np.asarray(tail, dtype=np.intp)
                c1 = c1_end
                yield piece
            if r == 2:
                return
            # colex successor on the suffix
            j = 0
            while j < r - 2:
                nxt = tail[j] + 1
                limit = tail[j + 1] if j + 1 < r - 2 else n_items
                if nxt < limit:
                    tail[j] = nxt
                    for jj in range(j):
                        tail[jj] = jj + 2
                    break
                j += 1
            else:
                return

    pending: list = []
    buffered = 0
    for piece in pieces():
        pending.append(piece)
        buffered += piece.shape[0]
        if buffered >= block_rows:
            chunk = (
                pending[0] if len(pending) == 1 else np.concatenate(pending)
            )
            start = 0
            while chunk.shape[0] - start >= block_rows:
                yield chunk[start : start + block_rows]
                start += block_rows
            rest = chunk[start:]
            pending = [rest] if rest.shape[0] else []
            buffered = int(rest.shape[0])
    if buffered:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


#: The running request's deadline check, called between configuration
#: blocks, reference rank steps and Monte Carlo permutations; see
#: :func:`block_checks`.  A context variable, so every chunk thread
#: sees its own request's check and nothing is shared.
_BLOCK_CHECK: ContextVar[Optional[Callable[[str], None]]] = ContextVar(
    "repro_block_check", default=None
)


@contextmanager
def block_checks(check: Optional[Callable[[str], None]]):
    """Call ``check(where)`` before every unit of a long loop in this context.

    The units are the configuration blocks of
    :class:`BatchedWeightedRecursion`, the rank steps of
    :func:`weighted_rank_values` and the permutations of
    :func:`repro.core.mcserve.mc_values_from_distances`.  The request
    pipeline enters it around each chunk with its deadline budget's
    check, so a Theorem 7 sum or a Monte Carlo run that outlives the
    request raises the check's error at most one unit late instead of
    after the whole loop.  Other kernels are unaffected.
    """
    token = _BLOCK_CHECK.set(check)
    try:
        yield
    finally:
        _BLOCK_CHECK.reset(token)


class BatchedWeightedRecursion:
    """The configuration engine behind the Theorem 7 sums.

    Precomputes, once per ``(n, k)``, the :func:`pad_weight_table` comb
    fold.  :meth:`run` then evaluates the eq (74)/(75) recursion for
    one test point through a *batched* coalition-value oracle — whole
    blocks of coalitions per call, no per-coalition Python — which is
    what removes the constant-factor overhead that dominates
    :func:`weighted_rank_values`.  Configurations come from
    :func:`iter_combination_blocks` in ``block_rows``-sized colex
    blocks, so resident configuration memory is ``O(block_rows * K)``
    for any N and K; inside :func:`block_checks` the check runs before
    every block.

    The oracle ``value_many`` receives an ``(M, m)`` integer array of
    1-based ranks, each row sorted ascending (``m`` may be 0 — the
    empty coalition), and returns the ``M`` single-test utilities.
    """

    def __init__(self, n: int, k: int, block_rows: int = 1 << 15) -> None:
        if n < 1:
            raise ParameterError(f"n must be positive, got {n}")
        if k < 1:
            raise ParameterError(f"k must be positive, got {k}")
        if block_rows < 1:
            raise ParameterError(
                f"block_rows must be positive, got {block_rows}"
            )
        self.n = int(n)
        self.k = int(k)
        self.block_rows = int(block_rows)
        if n >= 2:
            self._pad = pad_weight_table(n, k)

    # ------------------------------------------------------------------
    def _blocks(self, n_items: int, r: int):
        """Size-``r`` configurations of ``n_items``, checked per block."""
        check = _BLOCK_CHECK.get()
        for blk in iter_combination_blocks(n_items, r, self.block_rows):
            if check is not None:
                check("between configuration blocks")
            yield blk

    @staticmethod
    def _with_member(members: np.ndarray, rank: int) -> np.ndarray:
        extra = np.full((members.shape[0], 1), rank, dtype=np.intp)
        return np.sort(np.concatenate((members, extra), axis=1), axis=1)

    def run(self, value_many) -> np.ndarray:
        """Shapley values in rank space for one test point."""
        n, k = self.n, self.k
        if n < 2:
            single = value_many(np.array([[1]], dtype=np.intp))
            empty = value_many(np.zeros((1, 0), dtype=np.intp))
            return np.array([float(single[0]) - float(empty[0])])

        # ---- anchor: the farthest point (eq 74) ----------------------
        total = 0.0
        for size in range(0, min(k, n)):
            inv_binom = 1.0 / math.comb(n - 1, size)
            level = 0.0
            for blk in self._blocks(n - 1, size):
                members = blk + 1  # positions 0..n-2 are ranks 1..n-1
                with_n = np.concatenate(
                    (
                        members,
                        np.full((members.shape[0], 1), n, dtype=np.intp),
                    ),
                    axis=1,
                )  # rank n is the largest: rows stay sorted
                level += float(
                    value_many(with_n).sum() - value_many(members).sum()
                )
            total += inv_binom * level
        anchor = total / n

        # ---- adjacent-rank differences (eq 75) -----------------------
        diffs = np.empty(n - 1, dtype=np.float64)
        for i in range(n - 1, 0, -1):
            rest = np.concatenate(
                (
                    np.arange(1, i, dtype=np.intp),
                    np.arange(i + 2, n + 1, dtype=np.intp),
                )
            )
            acc = 0.0
            for s in range(0, max(0, k - 1)):
                inv_binom = 1.0 / math.comb(n - 2, s)
                level = 0.0
                for blk in self._blocks(n - 2, s):
                    members = rest[blk]
                    level += float(
                        (
                            value_many(self._with_member(members, i))
                            - value_many(self._with_member(members, i + 1))
                        ).sum()
                    )
                acc += inv_binom * level
            for blk in self._blocks(n - 2, k - 1):
                members = rest[blk]
                if k > 1:
                    rmax = np.maximum(members[:, -1], i + 1)
                else:
                    rmax = np.full(members.shape[0], i + 1, dtype=np.intp)
                diff = value_many(
                    self._with_member(members, i)
                ) - value_many(self._with_member(members, i + 1))
                acc += float(np.dot(self._pad[rmax], diff))
            diffs[i - 1] = acc / (n - 1)
        return chain_values_from_differences(anchor, diffs)


# ======================================================================
# RankPlan: the one input every theorem consumes
# ======================================================================
@dataclass
class RankPlan:
    """Per-test rank-space inputs for the valuation kernels.

    A plan packages, for a batch of test points, everything the
    theorems' recursions consume: the ascending-distance rank order,
    the training labels in that order, the test labels, and (when a
    kernel needs them) the sorted distances.  Plans come in three
    physical shapes:

    * **full ranking** — ``order`` is a ``(n_test, n_train)``
      permutation per row (``lengths is None``); required by the
      ``exact``, ``regression`` and ``weighted`` kernels;
    * **rectangular prefix** — the first ``m < n_train`` ranks per row
      (exact top-``K*`` retrieval);
    * **ragged** — per-row prefixes of varying length, padded to the
      longest with ``lengths`` recording each row's valid width
      (approximate LSH retrieval may return fewer than ``K*``).

    Attributes
    ----------
    order:
        ``(n_test, m)`` training indices, nearest first.
    labels_sorted:
        ``(n_test, m)`` training labels in rank order
        (``y_train[order]``).
    y_test:
        ``(n_test,)`` test labels.
    n_train:
        Total training-set size (``m <= n_train``).
    distances_sorted:
        Optional ``(n_test, m)`` ascending distances matching
        ``order``.
    lengths:
        Optional ``(n_test,)`` valid-prefix lengths for ragged plans;
        entries beyond a row's length are padding and never read.
    y_train:
        Optional reference to the labels in original index order
        (kept by the constructors; the weighted kernel indexes labels
        by training index rather than by rank).
    """

    order: np.ndarray
    labels_sorted: np.ndarray
    y_test: np.ndarray
    n_train: int
    distances_sorted: Optional[np.ndarray] = None
    lengths: Optional[np.ndarray] = None
    y_train: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_order(
        cls,
        order: np.ndarray,
        y_train: np.ndarray,
        y_test: np.ndarray,
        distances: Optional[np.ndarray] = None,
    ) -> "RankPlan":
        """Build a rectangular plan from a precomputed ranking.

        ``order`` may be the full ``(n_test, n_train)`` ranking or a
        top-``m`` prefix; ``distances`` (if given) must match its
        shape.
        """
        order = np.atleast_2d(np.asarray(order, dtype=np.intp))
        y_train = np.asarray(y_train)
        y_test = np.atleast_1d(np.asarray(y_test))
        if y_test.shape[0] != order.shape[0]:
            raise ParameterError(
                f"y_test has length {y_test.shape[0]}, expected "
                f"{order.shape[0]} (one label per ranked test point)"
            )
        if distances is not None:
            distances = np.atleast_2d(np.asarray(distances, dtype=np.float64))
            if distances.shape != order.shape:
                raise ParameterError(
                    f"distances shape {distances.shape} does not match "
                    f"order shape {order.shape}"
                )
        return cls(
            order=order,
            labels_sorted=y_train[order],
            y_test=y_test,
            n_train=int(y_train.shape[0]),
            distances_sorted=distances,
            y_train=y_train,
        )

    @classmethod
    def from_neighbor_rows(
        cls,
        rows: Sequence[np.ndarray],
        y_train: np.ndarray,
        y_test: np.ndarray,
    ) -> "RankPlan":
        """Build a (possibly ragged) plan from per-test neighbor lists.

        ``rows[j]`` lists the retrieved training indices of test point
        ``j``, nearest first; rows may differ in length or be empty
        (an approximate index with sparse buckets).
        """
        y_train = np.asarray(y_train)
        y_test = np.atleast_1d(np.asarray(y_test))
        if len(rows) != y_test.shape[0]:
            raise ParameterError(
                f"got {len(rows)} neighbor rows for {y_test.shape[0]} "
                "test labels"
            )
        lengths = np.array([np.asarray(r).shape[0] for r in rows], dtype=np.intp)
        width = int(lengths.max()) if lengths.size else 0
        order = np.zeros((len(rows), width), dtype=np.intp)
        for j, row in enumerate(rows):
            row = np.asarray(row, dtype=np.intp)
            order[j, : row.shape[0]] = row
        # lengths are always kept: retrieval rows carry no permutation
        # guarantee, so these plans never take the full-ranking
        # scatter even when a row happens to span the training set
        return cls(
            order=order,
            labels_sorted=y_train[order],
            y_test=y_test,
            n_train=int(y_train.shape[0]),
            lengths=lengths,
            y_train=y_train,
        )

    # ------------------------------------------------------------------
    @property
    def n_test(self) -> int:
        """Number of test points in the plan."""
        return int(self.order.shape[0])

    @property
    def width(self) -> int:
        """Number of ranks materialized per row (``<= n_train``)."""
        return int(self.order.shape[1])

    @property
    def is_full_ranking(self) -> bool:
        """Whether every row is a full permutation of the training set."""
        return self.lengths is None and self.width == self.n_train

    def valid(self) -> Optional[np.ndarray]:
        """``(n_test, width)`` mask of the real entries of a ragged plan.

        ``None`` for a rectangular plan, whose every entry is real.
        """
        if self.lengths is None:
            return None
        return np.arange(self.width) < self.lengths[:, None]

    def match_sorted(self) -> np.ndarray:
        """0/1 label-match matrix in rank order, float64.

        Entry ``[j, p]`` is 1.0 when the (p+1)-th nearest neighbor of
        test point ``j`` carries the test label.
        """
        return (self.labels_sorted == self.y_test[:, None]).astype(np.float64)

    # ------------------------------------------------------------------
    def scatter(self, values_rank: np.ndarray) -> np.ndarray:
        """Scatter rank-space values to original training-index order.

        Returns the C-contiguous float64 ``(n_test, n_train)`` per-test
        value matrix of the kernel output contract; ranks a plan does
        not cover receive exactly 0 (Theorem 2's truncation).
        """
        if self.is_full_ranking:
            per_test = np.empty((self.n_test, self.n_train), dtype=np.float64)
            np.put_along_axis(per_test, self.order, values_rank, axis=1)
        else:
            per_test = np.zeros((self.n_test, self.n_train), dtype=np.float64)
            valid = self.valid()
            if valid is None:
                np.put_along_axis(per_test, self.order, values_rank, axis=1)
            else:
                rows = np.nonzero(valid)[0]
                per_test[rows, self.order[valid]] = values_rank[valid]
        return as_value_matrix(per_test)

    def column_sums(self, values_rank: np.ndarray) -> np.ndarray:
        """Rank-space values summed by training index, ``(n_train,)``.

        One ``bincount`` over the plan's real entries replaces the
        ``(n_test, n_train)`` :meth:`scatter` and its column sum.  It
        adds each column's values in test order, as
        ``scatter(values_rank).sum(axis=0)`` does, and skips only exact
        zeros, so the sums agree exactly.
        """
        valid = self.valid()
        if valid is None:
            order, values = self.order.ravel(), values_rank.ravel()
        else:
            order, values = self.order[valid], values_rank[valid]
        return np.bincount(order, weights=values, minlength=self.n_train)


# ======================================================================
# kernels
# ======================================================================
@dataclass(frozen=True)
class KernelCapabilities:
    """What a kernel consumes and which execution paths it supports."""

    needs_full_ranking: bool
    supports_regression: bool
    needs_distances: bool = False


class ValuationKernel(ABC):
    """A vectorized rank-space Shapley recursion behind the registry.

    Subclasses implement :meth:`values_from_plan` and publish a
    :attr:`capabilities` record; the engine's request plan (and so
    every layer built on the engine) routes on those capabilities
    instead of on method names.
    """

    #: registry name; overridden by subclasses
    name: str = "abstract"
    capabilities: KernelCapabilities

    @abstractmethod
    def values_from_plan(
        self, plan: RankPlan, k: int, **params
    ) -> np.ndarray:
        """Per-test Shapley values for ``plan``.

        Returns a C-contiguous float64 ``(n_test, n_train)`` matrix in
        original training-index order (the dtype contract of
        :mod:`repro.types`); the multi-test value is its column mean.
        """

    def column_sums_from_plan(
        self, plan: RankPlan, k: int, keep_per_test: bool = False, **params
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Column sums of :meth:`values_from_plan` — a chunk's eq-8 partial.

        Returns ``(sums, per_test)``: ``sums`` is the float64
        ``(n_train,)`` sum over the plan's test points, and
        ``per_test`` is the :meth:`values_from_plan` matrix when
        ``keep_per_test`` is set, else ``None``.  ``sums`` never
        depends on ``keep_per_test``.  Kernels with a cheaper route to
        the sums than materializing the matrix override this.
        """
        per_test = self.values_from_plan(plan, k, **params)
        return per_test.sum(axis=0), per_test if keep_per_test else None

    # ------------------------------------------------------------------
    def _check_k(self, k: int) -> int:
        if k <= 0:
            raise ParameterError(f"k must be positive, got {k}")
        return int(k)

    def _require_full_ranking(self, plan: RankPlan) -> None:
        if not plan.is_full_ranking:
            raise ParameterError(
                f"the {self.name!r} kernel needs a full ranking; the plan "
                f"covers {plan.width} of {plan.n_train} ranks"
            )


class ExactClassificationKernel(ValuationKernel):
    """Theorem 1: exact values for the unweighted KNN classifier."""

    name = "exact"
    capabilities = KernelCapabilities(
        needs_full_ranking=True,
        supports_regression=False,
    )

    def values_from_plan(self, plan: RankPlan, k: int) -> np.ndarray:
        return plan.scatter(self._rank_values(plan, k))

    def column_sums_from_plan(
        self, plan: RankPlan, k: int, keep_per_test: bool = False
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Fused accumulate: rank-space values summed by training index.

        One ``bincount`` over the ranking replaces the ``(n_test,
        n_train)`` scatter and its column sum.  It adds each column's
        values in the same test order as ``per_test.sum(axis=0)``, so
        the sums match the unfused path exactly.
        """
        s_rank = self._rank_values(plan, k)
        return plan.column_sums(s_rank), plan.scatter(s_rank) if keep_per_test else None

    def _rank_values(self, plan: RankPlan, k: int) -> np.ndarray:
        k = self._check_k(k)
        self._require_full_ranking(plan)
        return classification_rank_values(plan.match_sorted(), k)


class TruncatedKernel(ValuationKernel):
    """Theorem 2: the (epsilon, 0) truncation of the exact recursion.

    Also serves Theorem 4 — the LSH path is this kernel over a ragged
    plan of approximate neighbors.
    """

    name = "truncated"
    capabilities = KernelCapabilities(
        needs_full_ranking=False,
        supports_regression=False,
    )

    def values_from_plan(
        self,
        plan: RankPlan,
        k: int,
        epsilon: Optional[float] = None,
        k_star: Optional[int] = None,
        exact_anchor: bool = True,
    ) -> np.ndarray:
        """Truncated values; give either ``epsilon`` or ``k_star``.

        ``exact_anchor`` anchors the recursion at the exact
        farthest-point value whenever a row covers the whole training
        set (``k_star >= n_train``); disable it to reproduce the pure
        zero-anchored truncation regardless of coverage.
        """
        return plan.scatter(self._rank_values(plan, k, epsilon, k_star, exact_anchor))

    def column_sums_from_plan(
        self,
        plan: RankPlan,
        k: int,
        keep_per_test: bool = False,
        epsilon: Optional[float] = None,
        k_star: Optional[int] = None,
        exact_anchor: bool = True,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Fused accumulate: one ``bincount`` over the plan's real entries
        (:meth:`RankPlan.column_sums`); the per-test matrix is built
        only when it is kept."""
        s_rank = self._rank_values(plan, k, epsilon, k_star, exact_anchor)
        return plan.column_sums(s_rank), plan.scatter(s_rank) if keep_per_test else None

    def _rank_values(
        self,
        plan: RankPlan,
        k: int,
        epsilon: Optional[float],
        k_star: Optional[int],
        exact_anchor: bool,
    ) -> np.ndarray:
        k = self._check_k(k)
        if k_star is None:
            if epsilon is None:
                raise ParameterError(
                    "the truncated kernel needs epsilon or k_star"
                )
            k_star = truncation_rank(k, epsilon)
        return truncated_plan_values(
            plan.match_sorted(),
            plan.lengths,
            k,
            k_star,
            n_train=plan.n_train if exact_anchor else None,
        )


class RegressionKernel(ValuationKernel):
    """Theorem 6: exact values for the unweighted KNN regressor."""

    name = "regression"
    capabilities = KernelCapabilities(
        needs_full_ranking=True,
        supports_regression=True,
    )

    def values_from_plan(self, plan: RankPlan, k: int) -> np.ndarray:
        k = self._check_k(k)
        self._require_full_ranking(plan)
        y_sorted = np.asarray(plan.labels_sorted, dtype=np.float64)
        y_test = np.asarray(plan.y_test, dtype=np.float64)
        s_rank = np.empty((plan.n_test, plan.width), dtype=np.float64)
        for j in range(plan.n_test):
            s_rank[j] = regression_rank_values(y_sorted[j], float(y_test[j]), k)
        return plan.scatter(s_rank)


class WeightedKernel(ValuationKernel):
    """Theorem 7: exact values for weighted KNN (classification and
    regression, eqs 26/27).

    Four execution paths (:meth:`select_path` maps a requested ``mode``
    and the weight function's capabilities to one of them):

    * ``reference`` — the eq (74)/(75) recursion through a
      per-coalition value oracle built from the plan: ``O(N^K)``
      utility evaluations, bit-identical to
      :func:`repro.core.weighted.exact_weighted_knn_shapley`.
    * ``vectorized`` — the same sums through
      :class:`BatchedWeightedRecursion`: configurations in fixed-size
      colex blocks (``O(block_rows * K)`` memory for any K), utilities
      evaluated for whole blocks per numpy pass, pad weights folded
      via :func:`pad_weight_table`.  Equal to the reference within
      accumulated rounding (<= 1e-12), roughly an order of magnitude
      faster on one CPU.
    * ``piecewise`` — rank-only weight functions, both tasks: the
      Appendix-F counting closed forms
      (:func:`weighted_rank_only_values` for classification,
      :func:`weighted_regression_rank_only_values` for regression via
      first/second label moments) — exact O(N·poly(K)), no coalition
      enumeration at all.
    * ``k1`` — ``K = 1`` with a built-in (normalizing) weight
      function: a single neighbor always weighs exactly 1.0, so the
      game collapses to the Theorem 1 recursion over a per-rank
      payload (equal to the reference within ~1e-15).
    """

    name = "weighted"
    capabilities = KernelCapabilities(
        needs_full_ranking=True,
        supports_regression=True,
        needs_distances=True,
    )

    #: valid ``mode`` arguments
    MODES = ("auto", "reference", "vectorized", "piecewise")
    #: execution paths :meth:`select_path` can return
    PATHS = ("k1", "piecewise", "vectorized", "reference")

    def select_path(
        self,
        k: int,
        weights: Union[str, WeightFunction] = "inverse_distance",
        task: str = "classification",
        mode: str = "auto",
    ) -> str:
        """Resolve the execution path for a request — no work done.

        ``mode="auto"`` picks the cheapest exact-equivalent path:
        ``k1`` when ``k == 1`` with a named built-in weight function,
        else ``piecewise`` when the weight function is rank-only
        (:func:`repro.knn.weights.is_rank_only`) — classification and
        regression alike — else the ``vectorized`` configuration
        engine.  Explicit modes force their path; ``mode="piecewise"``
        with a weight function that does not declare the
        ``rank_only`` capability raises
        :class:`~repro.exceptions.KernelCapabilityError`.
        """
        if task not in ("classification", "regression"):
            raise ParameterError(
                f"task must be 'classification' or 'regression', got {task!r}"
            )
        if mode not in self.MODES:
            raise ParameterError(
                f"mode must be one of {self.MODES}, got {mode!r}"
            )
        rank_only = is_rank_only(weights)
        if mode in ("reference", "vectorized"):
            return mode
        if mode == "piecewise":
            if not rank_only:
                name = weights if isinstance(weights, str) else getattr(
                    weights, "__name__", "custom"
                )
                raise KernelCapabilityError(
                    f"the piecewise weighted path needs the 'rank_only' "
                    f"weight-function capability; {name!r} does not declare "
                    "it (mark custom callables with fn.rank_only = True "
                    "when their output ignores distance values, or use "
                    "mode='vectorized')",
                    capability="rank_only",
                )
            return "piecewise"
        # auto
        if k == 1 and not callable(weights):
            # every built-in weight function normalizes, so the lone
            # neighbor of a K=1 coalition weighs exactly 1.0
            return "k1"
        if rank_only:
            return "piecewise"
        return "vectorized"

    def values_from_plan(
        self,
        plan: RankPlan,
        k: int,
        weights: Union[str, WeightFunction] = "inverse_distance",
        task: str = "classification",
        mode: str = "auto",
        block_rows: Optional[int] = None,
    ) -> np.ndarray:
        """Weighted values from a full ranking with distances.

        Parameters
        ----------
        weights:
            Weight-function name or callable
            (:mod:`repro.knn.weights`).
        task:
            ``"classification"`` (eq 26) or ``"regression"`` (eq 27).
        mode:
            ``"auto"`` (default) picks the cheapest exact-equivalent
            path per :meth:`select_path`; ``"piecewise"`` /
            ``"vectorized"`` / ``"reference"`` force a path.
        block_rows:
            Rows per configuration block of the vectorized engine
            (default ``2**15``); its configuration memory is
            ``O(block_rows * K)``.
        """
        k, path, weight_fn = self._resolve(plan, k, weights, task, mode)
        if path in ("k1", "piecewise"):
            return plan.scatter(self._rank_space(plan, k, path, weight_fn, task))
        if path == "vectorized":
            return self._vectorized_path(plan, k, weight_fn, task, block_rows)
        return self._reference_path(plan, k, weight_fn, task)

    def column_sums_from_plan(
        self,
        plan: RankPlan,
        k: int,
        keep_per_test: bool = False,
        weights: Union[str, WeightFunction] = "inverse_distance",
        task: str = "classification",
        mode: str = "auto",
        block_rows: Optional[int] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Column sums; the ``k1`` and ``piecewise`` paths fuse them.

        Those two paths compute rank-space values, so one ``bincount``
        (:meth:`RankPlan.column_sums`) replaces the scatter and its
        column sum, and the per-test matrix is built only when kept.
        The configuration paths return values by training index and
        sum them as the base class does.
        """
        k, path, weight_fn = self._resolve(plan, k, weights, task, mode)
        if path not in ("k1", "piecewise"):
            return super().column_sums_from_plan(
                plan, k, keep_per_test,
                weights=weights, task=task, mode=mode, block_rows=block_rows,
            )
        s_rank = self._rank_space(plan, k, path, weight_fn, task)
        return plan.column_sums(s_rank), plan.scatter(s_rank) if keep_per_test else None

    # ------------------------------------------------------------------
    def _resolve(
        self,
        plan: RankPlan,
        k: int,
        weights: Union[str, WeightFunction],
        task: str,
        mode: str,
    ) -> tuple[int, str, WeightFunction]:
        """``(k, path, weight function)`` of a request, checked."""
        k = self._check_k(k)
        self._require_full_ranking(plan)
        path = self.select_path(k, weights, task, mode)
        if callable(weights):
            return k, path, weights
        return k, path, get_weight_function(weights)

    def _rank_space(
        self, plan: RankPlan, k: int, path: str, weight_fn: WeightFunction, task: str
    ) -> np.ndarray:
        """Rank-space values of the ``k1`` or ``piecewise`` path."""
        if path == "k1":
            return self._k1_fast_path(plan, task)
        return self._piecewise_path(plan, k, weight_fn, task)

    def _k1_fast_path(self, plan: RankPlan, task: str) -> np.ndarray:
        if task == "classification":
            payload = plan.match_sorted()
        else:
            # v(S) = -(y_nearest - t)^2 with v(∅) = -t^2; running the
            # Theorem 1 recursion on g' = v - v(∅) yields the Shapley
            # values of the shifted game, which equal the originals.
            y = np.asarray(plan.labels_sorted, dtype=np.float64)
            t = np.asarray(plan.y_test, dtype=np.float64)[:, None]
            payload = t**2 - (y - t) ** 2
        return classification_rank_values(payload, 1)

    def _piecewise_path(
        self, plan: RankPlan, k: int, weight_fn: WeightFunction, task: str
    ) -> np.ndarray:
        table = weight_position_table(weight_fn, k)
        if task == "classification":
            s_rank = weighted_rank_only_values(plan.match_sorted(), k, table)
        else:
            s_rank = weighted_regression_rank_only_values(
                np.asarray(plan.labels_sorted, dtype=np.float64),
                plan.y_test,
                k,
                table,
            )
        return s_rank

    def _vectorized_path(
        self,
        plan: RankPlan,
        k: int,
        weight_fn: WeightFunction,
        task: str,
        block_rows: Optional[int] = None,
    ) -> np.ndarray:
        if plan.distances_sorted is None:
            raise ParameterError(
                "the weighted kernel needs the plan's sorted distances; "
                "build it with RankPlan.from_order(..., distances=...)"
            )
        q, n = plan.order.shape
        classification = task == "classification"
        recursion = BatchedWeightedRecursion(
            n,
            k,
            block_rows=block_rows if block_rows is not None else 1 << 15,
        )
        s_rank = np.empty((q, n), dtype=np.float64)
        for j in range(q):
            d_rank = plan.distances_sorted[j]
            if classification:
                payload = (
                    plan.labels_sorted[j] == plan.y_test[j]
                ).astype(np.float64)
                t = 0.0
            else:
                payload = np.asarray(plan.labels_sorted[j], dtype=np.float64)
                t = float(plan.y_test[j])

            def value_many(ranks: np.ndarray) -> np.ndarray:
                # rows are sorted 1-based ranks, so each coalition's
                # members arrive nearest-first and (size <= K) all of
                # them are selected — no per-coalition sort needed
                m_rows, width = ranks.shape
                if width == 0:
                    empty = 0.0 if classification else -(t**2)
                    return np.full(m_rows, empty)
                idx = ranks - 1
                w = apply_weights_batched(weight_fn, d_rank[idx])
                contrib = (w * payload[idx]).sum(axis=1)
                if classification:
                    return contrib
                return -((contrib - t) ** 2)

            s_rank[j] = recursion.run(value_many)
        return plan.scatter(s_rank)

    def _reference_path(
        self, plan: RankPlan, k: int, weight_fn: WeightFunction, task: str
    ) -> np.ndarray:
        if plan.distances_sorted is None:
            raise ParameterError(
                "the weighted kernel needs the plan's sorted distances; "
                "build it with RankPlan.from_order(..., distances=...)"
            )
        if plan.y_train is None:
            raise ParameterError(
                "the weighted kernel needs plan.y_train (labels in "
                "original index order)"
            )
        order = plan.order
        q, n = order.shape
        # rank of training point i for test j, and its distance, both
        # addressed by original index — the same precomputation the
        # weighted utility objects perform
        inv_order = np.empty_like(order)
        rows = np.arange(q)[:, None]
        inv_order[rows, order] = np.arange(n)[None, :]
        dist_by_index = np.empty_like(plan.distances_sorted)
        np.put_along_axis(dist_by_index, order, plan.distances_sorted, axis=1)
        y_train = plan.y_train
        y_test = plan.y_test
        classification = task == "classification"

        s_by_index = np.empty((q, n), dtype=np.float64)
        for j in range(q):
            order_j = order[j]
            inv_j = inv_order[j]
            dist_j = dist_by_index[j]
            t = y_test[j] if classification else float(y_test[j])

            def v(rank_members: tuple[int, ...]) -> float:
                members = order_j[np.asarray(rank_members, dtype=np.intp) - 1]
                members = np.sort(members)
                if members.size == 0:
                    return 0.0 if classification else -(t**2)
                kk = min(k, members.size)
                ranks = inv_j[members]
                nearest = members[np.argsort(ranks, kind="stable")[:kk]]
                w = weight_fn(dist_j[nearest])
                if classification:
                    match = (y_train[nearest] == t).astype(np.float64)
                    return float(np.dot(w, match))
                pred = float(
                    np.dot(w, np.asarray(y_train, dtype=np.float64)[nearest])
                )
                return -((pred - t) ** 2)

            s_rank = weighted_rank_values(v, n, k)
            s_by_index[j, order_j] = s_rank
        return as_value_matrix(s_by_index)


# ======================================================================
# registry
# ======================================================================
_KERNEL_REGISTRY: Dict[str, ValuationKernel] = {}


def register_kernel(
    kernel: ValuationKernel, name: Optional[str] = None
) -> None:
    """Register a kernel instance under ``name`` (overwrites quietly).

    Third-party kernels registered here become valid ``method`` names
    for :meth:`repro.engine.ValuationEngine.value`.
    """
    key = name or kernel.name
    if not key:
        raise ParameterError("kernel name must be non-empty")
    _KERNEL_REGISTRY[key] = kernel


def get_kernel(name: str) -> ValuationKernel:
    """Look up a registered kernel by name."""
    try:
        return _KERNEL_REGISTRY[name]
    except KeyError:
        raise ParameterError(
            f"unknown valuation kernel {name!r}; available: "
            f"{available_kernels()}"
        ) from None


def available_kernels() -> list[str]:
    """Sorted names of all registered kernels."""
    return sorted(_KERNEL_REGISTRY)


register_kernel(ExactClassificationKernel())
register_kernel(TruncatedKernel())
register_kernel(RegressionKernel())
register_kernel(WeightedKernel())
