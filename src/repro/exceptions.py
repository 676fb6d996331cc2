"""Typed exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
distinguish library failures from programming errors with a single
``except`` clause.  Sub-classes are deliberately fine-grained: the
valuation algorithms are numerical and an error message that names the
offending parameter is worth far more than a bare ``ValueError``.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "DataValidationError",
    "ParameterError",
    "KernelCapabilityError",
    "NotFittedError",
    "ConvergenceError",
    "UtilityError",
    "ShardError",
    "AdmissionRejectedError",
    "DeadlineExceededError",
]


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class DataValidationError(ReproError, ValueError):
    """Raised when input data fails shape, dtype, or consistency checks.

    Examples include a feature matrix whose row count disagrees with the
    label vector, non-finite feature values, or an empty training set
    passed to an algorithm that requires at least one point.
    """


class ParameterError(ReproError, ValueError):
    """Raised when an algorithm parameter is outside its valid domain.

    Examples include ``k <= 0``, an approximation target ``epsilon <= 0``,
    or a failure probability ``delta`` outside ``(0, 1)``.
    """


class KernelCapabilityError(ParameterError):
    """Raised when a requested kernel path needs a capability the
    supplied weight function (or task) does not declare.

    The weighted kernel's ``piecewise`` path, for example, requires a
    *rank-only* weight function: custom callables must set
    ``fn.rank_only = True`` to declare it.  :attr:`capability` names
    the missing flag so callers can fix the declaration rather than
    parse the message.
    """

    def __init__(self, message: str, capability: str | None = None) -> None:
        super().__init__(message)
        #: name of the missing capability flag (e.g. ``"rank_only"``)
        self.capability = capability


class NotFittedError(ReproError, RuntimeError):
    """Raised when a model or index is queried before being fitted/built."""


class ConvergenceError(ReproError, RuntimeError):
    """Raised when an iterative procedure fails to reach its target.

    Used by the numerical solver for the Bennett permutation bound and by
    the gradient-descent trainer for logistic regression.
    """


class UtilityError(ReproError, ValueError):
    """Raised when a utility function is evaluated on an invalid coalition."""


class ShardError(ReproError, RuntimeError):
    """Raised when the sharded tier cannot serve a request.

    Emitted by :class:`repro.engine.sharding.ShardRouter` when a shard
    times out or fails (after its retry) under the ``"fail"`` policy,
    or when every shard is unavailable under the ``"partial"`` policy.
    Carries the per-shard reasons in :attr:`reasons`.
    """

    def __init__(self, message: str, reasons: dict | None = None) -> None:
        super().__init__(message)
        #: mapping of shard label -> failure reason
        self.reasons = dict(reasons or {})


class AdmissionRejectedError(ReproError, RuntimeError):
    """Raised when admission control refuses (or abandons) a job.

    Emitted by :class:`repro.engine.service.ValuationService` in two
    places: at submit time, when the bounded queue is full under the
    ``admission="shed"`` policy, and at shutdown, when the worker pool
    exited (or was shut down) before a queued job could run — the
    typed alternative to leaving a caller blocked on ``job.result()``
    forever.  Carries the queue state so a client can implement
    backpressure instead of parsing the message.
    """

    def __init__(
        self,
        message: str,
        queue_depth: int | None = None,
        max_queue: int | None = None,
    ) -> None:
        super().__init__(message)
        #: queued jobs at the moment of rejection
        self.queue_depth = queue_depth
        #: the queue bound that was hit (``None`` at shutdown)
        self.max_queue = max_queue


class DeadlineExceededError(ReproError, TimeoutError):
    """Raised when a request's deadline expires before (or while) serving.

    Emitted by the service when a job's ``deadline_ms`` budget is
    already spent on queue wait, and by the engine/router when the
    propagated remaining budget runs out mid-request (between chunks,
    after the last one, or before a shard fan-out leg could be
    afforded).  Carries both
    sides of the comparison in seconds.
    """

    def __init__(
        self,
        message: str,
        deadline_s: float | None = None,
        elapsed_s: float | None = None,
    ) -> None:
        super().__init__(message)
        #: the total budget the request carried, in seconds
        self.deadline_s = deadline_s
        #: time already spent when the budget check failed
        self.elapsed_s = elapsed_s
