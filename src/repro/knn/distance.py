"""Distance kernels for nearest-neighbor search.

The paper measures similarity in Euclidean (l2) distance, which is what
the p-stable LSH family targets; cosine distance is provided as well
because deep-feature pipelines frequently normalize embeddings.  All
kernels are vectorized: they take a query matrix ``(q, d)`` and a data
matrix ``(n, d)`` and return a ``(q, n)`` distance matrix.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from ..exceptions import ParameterError

__all__ = [
    "euclidean_distances",
    "squared_euclidean_distances",
    "cosine_distances",
    "manhattan_distances",
    "get_metric",
    "METRICS",
]


def squared_euclidean_distances(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Pairwise squared l2 distances via the expanded quadratic form.

    Uses ``||a - b||^2 = ||a||^2 - 2 a.b + ||b||^2`` which is a single
    matrix multiplication instead of a ``(q, n, d)`` broadcast, keeping
    memory at O(q*n).  Small negative values from floating point
    cancellation are clamped to zero.  The arithmetic runs in place in
    the matmul's output: ``-2ab + ||a||^2`` equals ``||a||^2 - 2ab``
    exactly in IEEE arithmetic, so the result is bit-identical to
    ``q_norms[:, None] - 2.0 * (Q @ X.T) + d_norms[None, :]``.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    q_norms = np.einsum("ij,ij->i", queries, queries)
    d_norms = np.einsum("ij,ij->i", data, data)
    sq = queries @ data.T
    sq *= -2.0
    sq += q_norms[:, None]
    sq += d_norms[None, :]
    np.maximum(sq, 0.0, out=sq)
    return sq


def euclidean_distances(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Pairwise l2 distances, shape ``(q, n)``."""
    dist = squared_euclidean_distances(queries, data)
    return np.sqrt(dist, out=dist)


def cosine_distances(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Pairwise cosine distances ``1 - cos(a, b)``, shape ``(q, n)``.

    Zero vectors are treated as maximally distant from everything
    (distance 1), matching the convention that an all-zero embedding
    carries no directional information.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    q_norms = np.linalg.norm(queries, axis=1)
    d_norms = np.linalg.norm(data, axis=1)
    denom = np.outer(q_norms, d_norms)
    sims = np.zeros((queries.shape[0], data.shape[0]))
    nonzero = denom > 0
    dots = queries @ data.T
    sims[nonzero] = dots[nonzero] / denom[nonzero]
    np.clip(sims, -1.0, 1.0, out=sims)
    return 1.0 - sims


def manhattan_distances(queries: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Pairwise l1 distances, shape ``(q, n)``.

    Computed in blocks to bound peak memory at roughly
    ``block * n * d`` floats.
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


METRICS: Dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "euclidean": euclidean_distances,
    "sqeuclidean": squared_euclidean_distances,
    "cosine": cosine_distances,
    "manhattan": manhattan_distances,
}


def get_metric(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
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
