"""Core datatypes shared across the :mod:`repro` library.

The library passes data around in three shapes:

* :class:`Dataset` — a labelled training set plus a labelled test set,
  the object every valuation algorithm consumes;
* :class:`GroupedDataset` — a dataset whose training points carry an
  ownership map from points to sellers (the "multiple data per curator"
  setting of Section 4 of the paper);
* :class:`ValuationResult` — the output of a valuation run: one Shapley
  value per training point (or per seller), plus provenance metadata.

All arrays are numpy arrays.  Constructors validate shapes eagerly so
that failures surface at the boundary instead of deep inside an
algorithm.

Dtype contract
--------------
The library normalizes array dtypes at its boundaries so the numeric
core never has to defend against surprises:

* **Features** (``x_train``, ``x_test``, mutation batches) are
  C-contiguous float64 ``(n, d)`` matrices — :func:`as_float_matrix`
  and :func:`as_new_points` enforce this on every entry path.
* **Labels** stay in their native dtype (integers for classification,
  float for regression); algorithms cast locally where arithmetic
  demands it.
* **Valuation outputs** — every ``ValuationResult.values`` vector and
  every per-test value matrix produced by a kernel in
  :mod:`repro.core.kernels` — are C-contiguous float64;
  :func:`as_value_matrix` is the single chokepoint kernels route their
  ``(n_test, n_train)`` outputs through, so downstream consumers
  (engine partial-sum merging, caching, serialization) can rely on the
  layout without re-checking.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .exceptions import DataValidationError, ParameterError

__all__ = [
    "Dataset",
    "GroupedDataset",
    "ValuationResult",
    "as_float_matrix",
    "as_label_vector",
    "as_new_points",
    "as_removal_indices",
    "as_value_matrix",
    "is_integer",
]


def as_float_matrix(x: Any, name: str = "X") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 matrix, validating finiteness.

    Parameters
    ----------
    x:
        Array-like of shape ``(n, d)``.  A 1-D array is treated as a
        single feature column of shape ``(n, 1)``.
    name:
        Name used in error messages.

    Returns
    -------
    numpy.ndarray
        A C-contiguous float64 array of shape ``(n, d)``.
    """
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DataValidationError(
            f"{name} must be a 2-D matrix, got ndim={arr.ndim}"
        )
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataValidationError(f"{name} contains non-finite values")
    return np.ascontiguousarray(arr)


def as_label_vector(y: Any, n: int, name: str = "y") -> np.ndarray:
    """Coerce ``y`` to a 1-D label vector of length ``n``.

    Labels may be integers (classification) or floats (regression); the
    dtype is preserved as far as numpy allows.
    """
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise DataValidationError(f"{name} must be 1-D, got ndim={arr.ndim}")
    if arr.shape[0] != n:
        raise DataValidationError(
            f"{name} has length {arr.shape[0]}, expected {n}"
        )
    if arr.dtype.kind == "f" and arr.size and not np.all(np.isfinite(arr)):
        raise DataValidationError(f"{name} contains non-finite values")
    return arr


def as_new_points(
    x_new: Any, y_new: Any, n_features: int
) -> tuple[np.ndarray, np.ndarray]:
    """Coerce one mutation batch: points joining a training set.

    The shared front door of every dynamic-dataset ``add_points``
    (the engine, which the incremental valuator and the streaming
    accumulator add through, and the sharded router): a single
    1-D vector is one *point* (not one feature column), labels may be
    scalar for a single point, and the feature width must match the
    set being joined.

    Returns ``(x_new, y_new)`` with ``x_new`` a C-contiguous float64
    ``(m, n_features)`` matrix and ``y_new`` a length-``m`` label
    vector.
    """
    x_arr = np.asarray(x_new, dtype=np.float64)
    if x_arr.ndim == 1:
        x_arr = x_arr.reshape(1, -1)
    x_arr = as_float_matrix(x_arr, "x_new")
    y_arr = as_label_vector(
        np.atleast_1d(np.asarray(y_new)), x_arr.shape[0], "y_new"
    )
    if x_arr.shape[1] != n_features:
        raise ParameterError(
            f"new points have {x_arr.shape[1]} features, expected {n_features}"
        )
    return x_arr, y_arr


def as_removal_indices(idx: Any) -> np.ndarray:
    """Coerce one removal batch: indices of points leaving a training set.

    The shared front door of every dynamic-dataset ``remove_points``
    (backend, engine, router, service, incremental valuator, streaming
    accumulator).  A scalar is one index.  Like ``numpy.delete``, a
    float index is an error rather than a truncation; a boolean array,
    which ``numpy.delete`` reads as a mask, is refused rather than read
    as the indices 0 and 1.  An empty batch of any dtype is allowed.

    Returns a 1-D ``intp`` vector; range and uniqueness are the
    caller's to check against its own training-set size.

    Raises:
        ParameterError: If the indices are boolean or not integers.
    """
    arr = np.atleast_1d(np.asarray(idx))
    if arr.size == 0:
        return np.zeros(0, dtype=np.intp)
    if arr.dtype == np.bool_:
        raise ParameterError(
            "removal indices must be integers, got a boolean array "
            "(pass np.flatnonzero(mask) to remove by mask)"
        )
    if arr.dtype.kind not in "iu":
        raise ParameterError(
            f"removal indices must be integers, got dtype {arr.dtype}"
        )
    return arr.astype(np.intp, copy=False)


def is_integer(value: Any) -> bool:
    """Whether ``value`` is one integer (Python or numpy), as a count,
    priority or index argument must be; a boolean or an integral float
    is not, as in :func:`as_removal_indices`."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def as_value_matrix(values: Any, name: str = "values") -> np.ndarray:
    """Enforce the kernel output contract: C-contiguous float64 2-D.

    Every :class:`repro.core.kernels.ValuationKernel` routes its
    ``(n_test, n_train)`` per-test value matrix through this function
    before returning, so the contract documented in the module
    docstring holds at a single chokepoint.  Arrays that already
    satisfy it pass through without copying.
    """
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise DataValidationError(
            f"{name} must be a 2-D per-test matrix, got ndim={arr.ndim}"
        )
    return arr


@dataclass(frozen=True)
class Dataset:
    """A labelled training set together with a labelled test set.

    Attributes
    ----------
    x_train:
        Training features, shape ``(n_train, d)``.
    y_train:
        Training labels, shape ``(n_train,)``.  Integer labels for
        classification, float labels for regression.
    x_test:
        Test (query) features, shape ``(n_test, d)``.
    y_test:
        Test labels, shape ``(n_test,)``.
    name:
        Optional human-readable dataset name (used in reports).
    """

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    name: str = "dataset"

    def __post_init__(self) -> None:
        x_train = as_float_matrix(self.x_train, "x_train")
        x_test = as_float_matrix(self.x_test, "x_test")
        y_train = as_label_vector(self.y_train, x_train.shape[0], "y_train")
        y_test = as_label_vector(self.y_test, x_test.shape[0], "y_test")
        if x_train.shape[0] == 0:
            raise DataValidationError("x_train must contain at least one row")
        if x_test.shape[0] == 0:
            raise DataValidationError("x_test must contain at least one row")
        if x_train.shape[1] != x_test.shape[1]:
            raise DataValidationError(
                "x_train and x_test disagree on feature dimension: "
                f"{x_train.shape[1]} != {x_test.shape[1]}"
            )
        # dataclass is frozen; bypass the guard for normalization.
        object.__setattr__(self, "x_train", x_train)
        object.__setattr__(self, "y_train", y_train)
        object.__setattr__(self, "x_test", x_test)
        object.__setattr__(self, "y_test", y_test)

    @property
    def n_train(self) -> int:
        """Number of training points."""
        return int(self.x_train.shape[0])

    @property
    def n_test(self) -> int:
        """Number of test points."""
        return int(self.x_test.shape[0])

    @property
    def n_features(self) -> int:
        """Feature dimensionality."""
        return int(self.x_train.shape[1])

    def subset(self, indices: np.ndarray) -> "Dataset":
        """Return a new :class:`Dataset` restricted to training ``indices``."""
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset(
            x_train=self.x_train[idx],
            y_train=self.y_train[idx],
            x_test=self.x_test,
            y_test=self.y_test,
            name=self.name,
        )

    def single_test(self, j: int) -> "Dataset":
        """Return a copy of the dataset keeping only test point ``j``."""
        if not 0 <= j < self.n_test:
            raise DataValidationError(
                f"test index {j} out of range [0, {self.n_test})"
            )
        return Dataset(
            x_train=self.x_train,
            y_train=self.y_train,
            x_test=self.x_test[j : j + 1],
            y_test=self.y_test[j : j + 1],
            name=self.name,
        )


@dataclass(frozen=True)
class GroupedDataset:
    """A :class:`Dataset` whose training points belong to sellers.

    ``groups[i]`` is the integer id of the seller who contributed
    training point ``i``.  Seller ids must form a contiguous range
    ``0 .. n_sellers - 1`` (every seller owns at least one point).
    """

    dataset: Dataset
    groups: np.ndarray

    def __post_init__(self) -> None:
        groups = np.asarray(self.groups, dtype=np.intp)
        if groups.ndim != 1:
            raise DataValidationError("groups must be 1-D")
        if groups.shape[0] != self.dataset.n_train:
            raise DataValidationError(
                f"groups has length {groups.shape[0]}, expected "
                f"{self.dataset.n_train}"
            )
        if groups.size == 0:
            raise DataValidationError("groups must be non-empty")
        uniq = np.unique(groups)
        if uniq[0] != 0 or uniq[-1] != uniq.size - 1:
            raise DataValidationError(
                "seller ids must form a contiguous range 0..M-1; got "
                f"{uniq.tolist()[:10]}..."
            )
        object.__setattr__(self, "groups", groups)

    @property
    def n_sellers(self) -> int:
        """Number of distinct sellers."""
        return int(self.groups.max()) + 1

    def members(self, seller: int) -> np.ndarray:
        """Indices of the training points owned by ``seller``."""
        return np.flatnonzero(self.groups == seller)


@dataclass(frozen=True)
class ValuationResult:
    """The output of one valuation run.

    Attributes
    ----------
    values:
        Shapley values, one entry per training point (or per seller for
        grouped valuation, or per player for composite games).
    method:
        Identifier of the producing algorithm (``"exact"``,
        ``"truncated"``, ``"lsh"``, ``"mc-hoeffding"``, ``"mc-bennett"``,
        ``"brute-subsets"``, ...).
    extra:
        Free-form provenance: parameters, permutation counts, timings.
    """

    values: np.ndarray
    method: str
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise DataValidationError("values must be 1-D")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        """Number of valued players."""
        return int(self.values.shape[0])

    def total(self) -> float:
        """Sum of all values (equals ν(I) − ν(∅) under group rationality)."""
        return float(self.values.sum())

    def ranking(self) -> np.ndarray:
        """Indices of players sorted by decreasing value."""
        return np.argsort(-self.values, kind="stable")

    def top(self, k: int) -> np.ndarray:
        """Indices of the ``k`` highest-valued players."""
        return self.ranking()[:k]

    def with_extra(self, **kwargs: Any) -> "ValuationResult":
        """Return a copy with additional provenance entries merged in."""
        merged = dict(self.extra)
        merged.update(kwargs)
        return dataclasses.replace(self, extra=merged)
