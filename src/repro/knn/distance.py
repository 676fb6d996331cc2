"""Distance kernels for nearest-neighbor search.

The paper measures similarity in Euclidean (l2) distance, which is what
the p-stable LSH family targets; cosine distance is provided as well
because deep-feature pipelines frequently normalize embeddings.  All
kernels are vectorized: they take a query matrix ``(q, d)``, a data
matrix ``(n, d)`` and optionally the data's :func:`row_norms`, and
return a ``(q, n)`` distance matrix.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "row_norms",
    "euclidean_distances",
    "squared_euclidean_distances",
    "cosine_distances",
    "manhattan_distances",
    "get_metric",
    "METRICS",
]


def squared_euclidean_distances(
    queries: np.ndarray, data: np.ndarray, data_norms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pairwise squared l2 distances via the expanded quadratic form.

    Uses ``||a - b||^2 = ||a||^2 - 2 a.b + ||b||^2`` which is a single
    matrix multiplication instead of a ``(q, n, d)`` broadcast, keeping
    memory at O(q*n).  Small negative values from floating point
    cancellation are clamped to zero.  The ``-2`` is folded into the
    ``(q, d)`` query matrix before the product: scaling by a power of
    two is exact, so ``(-2a).b`` has the bits of ``-2(a.b)`` and the
    result is bit-identical to ``q_norms[:, None] - 2.0 * (Q @ X.T) +
    d_norms[None, :]`` at the price of a ``(q, d)`` pass, not a ``(q,
    n)`` one.  ``data_norms`` is :func:`row_norms` of ``data`` when the
    caller keeps it; ``None`` computes it.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    q_norms = np.einsum("ij,ij->i", queries, queries)
    if data_norms is None:
        data_norms = np.einsum("ij,ij->i", data, data)
    sq = (queries * -2.0) @ data.T
    sq += q_norms[:, None]
    sq += data_norms[None, :]
    np.maximum(sq, 0.0, out=sq)
    return sq


def euclidean_distances(
    queries: np.ndarray, data: np.ndarray, data_norms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pairwise l2 distances, shape ``(q, n)``."""
    dist = squared_euclidean_distances(queries, data, data_norms)
    return np.sqrt(dist, out=dist)


def cosine_distances(
    queries: np.ndarray, data: np.ndarray, data_norms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pairwise cosine distances ``1 - cos(a, b)``, shape ``(q, n)``.

    Zero vectors are treated as maximally distant from everything
    (distance 1), matching the convention that an all-zero embedding
    carries no directional information.  ``data_norms`` is
    :func:`row_norms` of ``data`` when the caller keeps it.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    q_norms = np.linalg.norm(queries, axis=1)
    d_norms = np.linalg.norm(data, axis=1) if data_norms is None else data_norms
    denom = np.outer(q_norms, d_norms)
    sims = np.zeros((queries.shape[0], data.shape[0]))
    nonzero = denom > 0
    dots = queries @ data.T
    sims[nonzero] = dots[nonzero] / denom[nonzero]
    np.clip(sims, -1.0, 1.0, out=sims)
    return 1.0 - sims


def manhattan_distances(
    queries: np.ndarray, data: np.ndarray, data_norms: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pairwise l1 distances, shape ``(q, n)``.

    Computed in blocks to bound peak memory at roughly
    ``block * n * d`` floats.  The l1 distance has no per-row training
    term, so ``data_norms`` is ignored.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    q, n = queries.shape[0], data.shape[0]
    out = np.empty((q, n))
    block = max(1, int(2**22 // max(1, n * queries.shape[1])))
    for start in range(0, q, block):
        stop = min(q, start + block)
        out[start:stop] = np.abs(
            queries[start:stop, None, :] - data[None, :, :]
        ).sum(axis=2)
    return out


def row_norms(data: np.ndarray, metric: str) -> Optional[np.ndarray]:
    """The per-row training term ``metric`` reads, ``(n,)`` or ``None``.

    Squared l2 norms for ``"euclidean"`` and ``"sqeuclidean"``, l2
    norms for ``"cosine"`` and ``None`` for ``"manhattan"``: exactly
    what the kernel computes itself when called without
    ``data_norms``, so passing a kept copy changes no bit.  A fixed
    training set computes it once and hands it to every call.
    """
    get_metric(metric)
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if metric in ("euclidean", "sqeuclidean"):
        return np.einsum("ij,ij->i", data, data)
    if metric == "cosine":
        return np.linalg.norm(data, axis=1)
    return None


METRICS: Dict[str, Callable[..., np.ndarray]] = {
    "euclidean": euclidean_distances,
    "sqeuclidean": squared_euclidean_distances,
    "cosine": cosine_distances,
    "manhattan": manhattan_distances,
}


def get_metric(name: str) -> Callable[..., np.ndarray]:
    """Look up a distance kernel by name.

    Raises
    ------
    ParameterError
        If ``name`` is not one of :data:`METRICS`.
    """
    try:
        return METRICS[name]
    except KeyError:
        raise ParameterError(
            f"unknown metric {name!r}; available: {sorted(METRICS)}"
        ) from None
