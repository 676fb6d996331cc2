"""Sort-free Monte Carlo valuation for the serving overload rung.

The reference estimator in :mod:`repro.core.montecarlo` replays each
permutation with a per-insertion Python heap — O(N) heap operations per
permutation per test point, fine for the paper's convergence figures
but far too slow to be a *degradation* path: under overload it must
beat the exact kernel, whose cost is one distance computation plus one
O(N log N) sort per test point.

This module is the serving-grade form of the paper's Algorithm 2
insight: in a random permutation only the points that actually enter
the running K-nearest heap contribute a nonzero marginal, and in
expectation only ``O(K ln N)`` of the N insertions do (the harmonic
argument behind Theorem 5's tiny variances).  So instead of replaying
every insertion, :func:`mc_values_from_distances`

1. works directly on **raw distances** — no ranking, no sort: the
   heap of the K smallest distances seen so far is the K-NN set of the
   permutation prefix, by definition;
2. is **event-driven**: it gathers one distance row in permutation
   order and scans it in blocks that grow fourfold with the prefix
   length.  One vectorized comparison against the K-th smallest
   distance at the block's start finds every candidate (the threshold
   only falls inside a block), and a Python walk over the few
   candidates replays the heap against the live threshold.  A block
   ``[t, 4t)`` holds about 3K candidates, so each permutation costs
   one O(N) gather and compare in C plus ``O(K ln N)`` Python steps;
3. looks labels up and **scatters sparsely**: match labels are read
   only at event positions, and only the events' contributions are
   added to the value matrix.

The estimator is unbiased for the unweighted KNN classification
utility (the same utility :class:`~repro.core.montecarlo` replays:
``U(S) = |{matching among the min(|S|,K) nearest}| / K``), and the
same T permutations serve every training point, so the
``(epsilon, delta)`` budgets of :mod:`repro.core.bounds` apply
unchanged — Theorem 5 sizes T for a target epsilon, and
:func:`~repro.core.bounds.certified_epsilon` inverts an explicit T
back into the error the run can certify.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..exceptions import DataValidationError, ParameterError
from .kernels import _BLOCK_CHECK

__all__ = ["mc_values_from_distances"]


def _events(d: np.ndarray, k: int) -> tuple[list[int], list[int]]:
    """Replay one permutation's K-nearest heap over the distances ``d``.

    ``d`` is one distance row in permutation order.  Returns the
    insertion times ``t`` at which the point joined the neighbor set
    and, for each, the time of the point it evicted (``-1`` while the
    prefix is shorter than K).
    """
    n = d.shape[0]
    heap: list[tuple[float, int]] = []  # max-heap by distance: (-d, t)
    head = min(k, n)
    for t, dist in enumerate(d[:head].tolist()):
        # prefix smaller than K: every insertion joins the neighbor
        # set and evicts nobody
        heapq.heappush(heap, (-dist, t))
    times, evicted = list(range(head)), [-1] * head
    t = head
    while t < n:
        # [t, 4t) holds ~3K candidates: few enough to walk in Python,
        # and only log_4(N / K) vectorized compares per row
        stop = min(n, 4 * t)
        block = d[t:stop]
        # the threshold only falls inside the block, so every event is
        # among the points closer than the block-start threshold
        limit = -heap[0][0]
        hits = (block < limit).nonzero()[0]
        for i, dist in zip(hits.tolist(), block[hits].tolist()):
            if dist < limit:
                _, out = heapq.heapreplace(heap, (-dist, t + i))
                times.append(t + i)
                evicted.append(out)
                limit = -heap[0][0]
        t = stop
    return times, evicted


def mc_values_from_distances(
    dist: np.ndarray,
    match: np.ndarray,
    k: int,
    n_permutations: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-test Monte Carlo Shapley estimates from raw distances.

    Parameters
    ----------
    dist:
        ``(n_test, n_train)`` raw test-to-train distances — unsorted;
        avoiding the sort is the point.
    match:
        ``(n_test, n_train)`` float 0/1 label agreement
        (``y_train == y_test[j]``).
    k:
        The K of KNN.
    n_permutations:
        Permutations to average (size with
        :func:`repro.core.bounds.bennett_permutations`).
    rng:
        The permutation source; one shared permutation per round
        serves every test point, as in the paper.

    Returns
    -------
    ``(n_test, n_train)`` float64 estimates of the per-test values;
    the request value is their mean over axis 0 (eq 8 additivity).
    """
    dist = np.ascontiguousarray(dist, dtype=np.float64)
    match = np.ascontiguousarray(match, dtype=np.float64)
    if dist.ndim != 2 or match.shape != dist.shape:
        raise DataValidationError(
            f"dist and match must be matching 2-D arrays, got "
            f"{dist.shape} and {match.shape}"
        )
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if n_permutations <= 0:
        raise ParameterError(
            f"n_permutations must be positive, got {n_permutations}"
        )
    q, n = dist.shape
    values = np.zeros((q, n), dtype=np.float64)
    check = _BLOCK_CHECK.get()
    for _ in range(n_permutations):
        if check is not None:
            check("between permutations")
        perm = rng.permutation(n)
        for j in range(q):
            # per-row 1-D take of the distances alone; labels are read
            # only at the events
            times, evicted = _events(dist[j].take(perm), k)
            points = perm[times]
            evicted = np.asarray(evicted)
            m_in = match[j, points]
            m_out = np.where(evicted >= 0, match[j, perm[evicted]], 0.0)
            # perm holds unique indices, so fancy += is a scatter
            values[j, points] += (m_in - m_out) / k
    values /= n_permutations
    return values
