"""One request plan: the method resolution every topology shares.

Every algorithm of the paper has one shape: retrieve neighbors, run a
rank-space recursion (Theorems 1, 2, 6 and 7, or Theorem 5's sampler),
then average per-test values (eq 8).  :func:`plan_request` resolves a
request once, at the front door of both
:class:`~repro.engine.engine.ValuationEngine` and
:class:`~repro.engine.sharding.ShardRouter`: every check, the kernel,
the retrieval kind, ``K*``, the weighted path, the Monte Carlo budget,
the certificate and the answer's name, so a malformed request fails
with :class:`~repro.exceptions.ParameterError` before any chunk or
shard is touched.  :meth:`RequestPlan.run_chunks` is the one chunk
flow: deadline checks, Monte Carlo streams,
:meth:`RequestPlan.chunk_partial` and the eq-8 merge.  A topology
supplies only how one chunk is fetched and how chunks are scheduled.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.bounds import bennett_permutations, certified_epsilon
from ..core.kernels import (
    RankPlan,
    ValuationKernel,
    available_kernels,
    block_checks,
    get_kernel,
)
from ..core.mcserve import mc_values_from_distances
from ..core.truncated import truncation_rank
from ..exceptions import DeadlineExceededError, ParameterError
from ..monitor.tracing import NOOP_TRACER
from ..types import as_float_matrix, as_label_vector, is_integer

__all__ = [
    "RequestPlan",
    "as_query_batch",
    "plan_request",
    "resolve_method_kernel",
]

#: Built-in method names and the registered kernel each resolves to
#: (``None`` marks task-dependent resolution).
_METHOD_KERNELS = {
    "exact": None,  # "exact" kernel for classification, "regression" else
    "truncated": "truncated",
    "lsh": "truncated",
    "weighted": "weighted",
}


def resolve_method_kernel(method: str, task: str) -> ValuationKernel:
    """Map a request ``method`` name to a registered valuation kernel.

    Args:
        method: ``"exact"``, ``"truncated"``, ``"lsh"``, ``"weighted"``,
            or any name registered via
            :func:`repro.core.kernels.register_kernel`.
        task: ``"classification"`` or ``"regression"`` — disambiguates
            ``"exact"``, which is task-dependent.

    Returns:
        The resolved :class:`~repro.core.kernels.ValuationKernel`.

    Raises:
        ParameterError: If ``method`` names neither a built-in method
            nor a registered kernel.
    """
    if method in _METHOD_KERNELS:
        name = _METHOD_KERNELS[method]
        if name is None:
            name = "exact" if task == "classification" else "regression"
        return get_kernel(name)
    if method in available_kernels():
        # third-party kernels dispatch under their registry name
        return get_kernel(method)
    raise ParameterError(
        f"unknown method {method!r}; expected one of "
        f"{tuple(_METHOD_KERNELS)} or a registered kernel "
        f"{available_kernels()}"
    )


def as_query_batch(x_test, y_test) -> tuple[np.ndarray, np.ndarray]:
    """Validate a valuation request's query batch.

    A valuation is a mean over test points (eq 8), so an empty batch
    has no value and is rejected rather than answered with ``0/0``.

    Raises:
        ParameterError: If the batch has no test points.
        DataValidationError: If ``x_test`` is not a finite matrix or
            ``y_test`` does not match it.
    """
    x_test = as_float_matrix(x_test, "x_test")
    if x_test.shape[0] == 0:
        raise ParameterError(
            "the query batch is empty; valuation needs at least one test point"
        )
    return x_test, as_label_vector(y_test, x_test.shape[0], "y_test")


class _Budget:
    """A request's remaining deadline, shrinking as hops spend it."""

    def __init__(self, deadline_s: float) -> None:
        self.deadline_s = float(deadline_s)
        self._t0 = time.perf_counter()

    @classmethod
    def admit(cls, deadline_s: Optional[float]) -> Optional["_Budget"]:
        """Start a request's budget; ``None`` means no deadline.

        Raises:
            ParameterError: If ``deadline_s`` is NaN.
            DeadlineExceededError: If the budget is already spent.
        """
        if deadline_s is None:
            return None
        if math.isnan(deadline_s):
            raise ParameterError("deadline_s must be a number of seconds, got nan")
        budget = cls(deadline_s)
        budget.check("request admission")
        return budget

    def elapsed(self) -> float:
        return time.perf_counter() - self._t0

    def remaining(self) -> float:
        return self.deadline_s - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0

    def check(self, what: str) -> None:
        elapsed = self.elapsed()
        if elapsed >= self.deadline_s:
            raise DeadlineExceededError(
                f"deadline of {self.deadline_s:.4f}s exceeded after "
                f"{elapsed:.4f}s ({what})",
                deadline_s=self.deadline_s,
                elapsed_s=elapsed,
            )


@dataclass(frozen=True)
class RequestPlan:
    """A valuation request, resolved once for every topology.

    ``retrieval`` names what one chunk needs: ``"full"`` (the whole
    distance-sorted ranking), ``"topk"`` (the top ``k_eff`` neighbor
    rows) or ``"distances"`` (raw, unsorted test-to-train distances,
    for ``method="mc"``, whose ``kernel`` is ``None``).  ``extra``
    holds the method-specific ``ValuationResult.extra`` fields, the
    same on every topology; ``out_method`` names the answer.
    """

    method: str
    kernel: Optional[ValuationKernel]
    retrieval: str
    k: int
    out_method: str
    extra: dict
    k_eff: Optional[int] = None
    params: dict = field(default_factory=dict)

    @property
    def kernel_name(self) -> str:
        """The name ``kernel.<name>`` spans and ``extra["kernel"]`` use."""
        return self.extra["kernel"]

    def annotate(self, span) -> None:
        """Set the request-span attributes this plan resolved.

        The request span opens before the plan is resolved, so the
        resolution (the Theorem 5 solve included) is timed inside it.
        """
        span.set("kernel", self.kernel_name)
        for name in ("k_star", "weighted_path", "n_permutations"):
            if self.extra.get(name) is not None:
                span.set(name, self.extra[name])

    def chunk_partial(
        self,
        retrieved,
        y_train: np.ndarray,
        y_test: np.ndarray,
        store_per_test: bool,
        rng: Optional[np.random.Generator] = None,
        *,
        tracer=NOOP_TRACER,
        parent=None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """One chunk's eq-8 partial sum: ``(column sums, per-test or None)``.

        ``retrieved`` is the chunk's retrieval of kind
        :attr:`retrieval` — ``(order, distances)``, neighbor rows, or a
        ``(q, n)`` distance matrix — indexing ``y_train``; ``rng`` is
        the chunk's Monte Carlo stream.  The ``kernel.<name>`` span
        opens under ``parent`` around the recursion alone.
        """
        span = f"kernel.{self.kernel_name}"
        if self.retrieval == "full":
            order, dist = retrieved
            plan = RankPlan.from_order(order, y_train, y_test, distances=dist)
            with tracer.span(span, parent=parent):
                return self.kernel.column_sums_from_plan(
                    plan, self.k, store_per_test, **self.params
                )
        if self.retrieval == "topk":
            plan = RankPlan.from_neighbor_rows(retrieved, y_train, y_test)
            with tracer.span(span, parent=parent):
                return self.kernel.column_sums_from_plan(
                    plan, self.k, store_per_test,
                    k_star=self.extra["k_star"], exact_anchor=True,
                )
        else:
            match = (y_train[None, :] == y_test[:, None]).astype(np.float64)
            with tracer.span(span, parent=parent):
                per_test = mc_values_from_distances(
                    retrieved, match, self.k, self.extra["n_permutations"], rng
                )
        return per_test.sum(axis=0), per_test if store_per_test else None

    def run_chunks(
        self,
        fetch,
        spans: Sequence[tuple[int, int]],
        y_train: np.ndarray,
        y_test: np.ndarray,
        store_per_test: bool,
        *,
        seed: Optional[int] = None,
        budget: Optional[_Budget] = None,
        workers: int = 1,
        tracer=NOOP_TRACER,
        parent=None,
        chunk_span: Optional[str] = None,
        merge_span: Optional[str] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray], float]:
        """Run the plan over test-row ``spans`` and merge them by eq 8.

        ``fetch(start, stop, at)`` returns one chunk's retrieval and
        the indices of ``y_train`` it covers (``None``: all).  Chunks
        run on up to ``workers`` threads and merge in span order; the
        deadline is checked before each chunk, between the
        configuration blocks of a Theorem 7 sum
        (:func:`~repro.core.kernels.block_checks`) and once more after
        the merge, so an answer finished late is never returned as on
        time, and Monte Carlo chunk
        ``i`` samples from child stream ``i`` of ``seed``, so results
        do not depend on scheduling.  Uncovered columns are 0; one
        chunk that covers every column returns its per-test block as is.
        ``chunk_span`` (one chunk's fetch and kernel) and
        ``merge_span`` open under ``parent`` when named.

        Returns:
            ``(values, per_test or None, eq-8 merge seconds)``.
        """
        streams = None
        if self.retrieval == "distances":
            streams = np.random.SeedSequence(seed).spawn(len(spans))

        def worker(no: int, s: int, e: int):
            if budget is not None:
                budget.check("between chunks")
            with (
                tracer.span(chunk_span, parent=parent, start=s, stop=e)
                if chunk_span else nullcontext(parent)
            ) as at, block_checks(None if budget is None else budget.check):
                retrieved, positions = fetch(s, e, at)
                cols = slice(None) if positions is None else positions
                rng = None if streams is None else np.random.default_rng(streams[no])
                partial, per_test = self.chunk_partial(
                    retrieved, y_train[cols], y_test[s:e], store_per_test, rng,
                    tracer=tracer, parent=at,
                )
                return partial, per_test, cols

        if workers <= 1 or len(spans) <= 1:
            results = [worker(i, s, e) for i, (s, e) in enumerate(spans)]
        else:
            with ThreadPoolExecutor(max_workers=min(workers, len(spans))) as pool:
                futures = [pool.submit(worker, i, s, e) for i, (s, e) in enumerate(spans)]
                results = [f.result() for f in futures]
        n_test, n = y_test.shape[0], y_train.shape[0]
        with (
            tracer.span(merge_span, parent=parent, n_chunks=len(spans))
            if merge_span else nullcontext()
        ):
            merge_start = time.perf_counter()
            total = np.zeros(n, dtype=np.float64)
            for partial, _, cols in results:
                total[cols] += partial
            values = total / n_test
            merge_seconds = time.perf_counter() - merge_start
        if budget is not None:
            budget.check("after the last chunk")
        if not store_per_test:
            return values, None, merge_seconds
        if len(results) == 1 and isinstance(results[0][2], slice):
            # one chunk over every column: its block is the matrix
            return values, results[0][1], merge_seconds
        per_test = np.zeros((n_test, n))
        for (s, e), (_, block, cols) in zip(spans, results):
            per_test[s:e, cols] = block
        return values, per_test, merge_seconds


def plan_request(
    method: str,
    *,
    task: str,
    k: int,
    n_train: int,
    epsilon: float,
    weights,
    mode: str,
    delta: float,
    n_permutations: Optional[int],
) -> RequestPlan:
    """Resolve and validate one valuation request.

    The keywords mean what they mean for
    :meth:`repro.engine.engine.ValuationEngine.value`; ``n_train``
    sizes the Monte Carlo budget.

    Raises:
        ParameterError: On an unknown method, a capability violation
            (a classification-only method on a regression task), or an
            invalid ``epsilon``, ``delta``, ``n_permutations``,
            ``weights`` or ``mode``.
    """
    if method == "mc":
        # Monte Carlo serves from raw distances: no kernel, no ranking
        if task != "classification":
            raise ParameterError(
                "method='mc' replays the unweighted KNN classification "
                "utility and is defined for classification only"
            )
        r = 1.0 / k
        if n_permutations is None:
            budget = bennett_permutations(epsilon, delta, n_train, k, r)
            cert_eps = float(epsilon)
        else:
            if not is_integer(n_permutations) or n_permutations <= 0:
                raise ParameterError(
                    f"n_permutations must be a positive integer, got "
                    f"{n_permutations!r}"
                )
            budget = int(n_permutations)
            # an explicit budget certifies the epsilon it buys, not
            # the one the caller asked for
            cert_eps = certified_epsilon(budget, delta, n_train, k, r)
        certificate = {
            "epsilon": cert_eps,
            "delta": float(delta),
            "n_permutations": budget,
            "bound": "bennett-theorem5",
        }
        extra = {
            "kernel": "mcserve",
            "epsilon": cert_eps,
            "delta": float(delta),
            "n_permutations": budget,
            "certificate": certificate,
        }
        return RequestPlan(method, None, "distances", k, "mc", extra)
    kernel = resolve_method_kernel(method, task)
    caps = kernel.capabilities
    if task != "classification" and not caps.supports_regression:
        raise ParameterError(
            "the truncated/LSH approximations are defined for classification"
        )
    extra: dict = {"kernel": kernel.name}
    if not caps.needs_full_ranking:
        k_star = truncation_rank(k, epsilon)
        extra.update(epsilon=epsilon, k_star=k_star)
        if method == "truncated":
            # Theorem 2: the max-norm error is at most 1/K* <= epsilon
            extra["certificate"] = {
                "epsilon": float(epsilon),
                "delta": 0.0,
                "k_star": k_star,
                "bound": "truncation-theorem2",
            }
        k_eff = min(k_star, n_train)
        return RequestPlan(method, kernel, "topk", k, method, extra, k_eff=k_eff)
    params: dict = {}
    if kernel.name == "weighted":
        params = {"weights": weights, "task": task, "mode": mode}
        path = None
        if hasattr(kernel, "select_path"):
            # deterministic, so every chunk and every shard takes it
            path = kernel.select_path(k, weights, task=task, mode=mode)
        extra.update(params, weighted_path=path)
    if method == "exact":
        out_method = "exact" if task == "classification" else "exact-regression"
    elif method == "weighted":
        out_method = "exact-weighted"
    else:
        out_method = method
    return RequestPlan(method, kernel, "full", k, out_method, extra, params=params)
