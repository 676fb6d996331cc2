"""Sample-complexity bounds for Monte Carlo Shapley estimation.

Three permutation budgets appear in the paper's Figure 11:

* **Hoeffding** (Section 2.2, the baseline): treats every marginal
  contribution as an arbitrary bounded variable, giving
  ``T = (r^2 / (2 eps^2)) * ln(2N / delta)``.
* **Bennett** (Theorem 5, the paper's improvement): exploits that for
  KNN most insertions do not change the K nearest neighbors, so the
  *variance* of the marginal contribution of a far point is tiny even
  though its *range* is not.  The budget solves
  ``sum_i exp(-T (1 - q_i^2) h(eps / ((1 - q_i^2) r))) = delta / 2``
  with ``q_i = 0`` for ``i <= K`` and ``q_i = (i - K)/i`` otherwise,
  and ``h(u) = (1 + u) ln(1 + u) - u``.
* **Bennett, closed-form approximation** (eq 34 / Appendix H):
  ``T ≈ (1 / h(eps / r)) * ln(2K / delta)``, which no longer grows
  with N.

All budgets are per-test-point permutation counts over the training
set; the same permutations serve every training point.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..exceptions import ConvergenceError, ParameterError

__all__ = [
    "bennett_h",
    "hoeffding_permutations",
    "bennett_permutations",
    "bennett_approx_permutations",
    "bennett_qi",
    "certified_epsilon",
]

#: solved budgets kept by :func:`bennett_permutations`; a serving
#: process sees a handful of (epsilon, delta, k) rungs per training-set
#: size, so this holds many mutations' worth of sizes
_MEMO_SIZE = 256
#: largest permutation budget the solver brackets before giving up
_MAX_BUDGET = 2**53
#: points per block of :func:`_bennett_exponents`' scratch arrays
_RATE_BLOCK = 1 << 16


def _validate(epsilon: float, delta: float, r: float) -> None:
    if not epsilon > 0:  # NaN included
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if r <= 0:
        raise ParameterError(f"range r must be positive, got {r}")


def bennett_h(u: np.ndarray | float) -> np.ndarray | float:
    """Bennett's function ``h(u) = (1 + u) ln(1 + u) - u`` (u >= 0)."""
    u_arr = np.asarray(u, dtype=np.float64)
    out = (1.0 + u_arr) * np.log1p(u_arr) - u_arr
    return out if isinstance(u, np.ndarray) else float(out)


def hoeffding_permutations(
    epsilon: float, delta: float, n: int, r: float
) -> int:
    """Baseline permutation budget from Hoeffding's inequality.

    ``T = ceil( (r^2 / (2 eps^2)) * ln(2N / delta) )``

    Parameters
    ----------
    epsilon, delta:
        Target (epsilon, delta)-approximation of the max-norm error.
    n:
        Number of training points (the union bound is over all N).
    r:
        Range of the marginal contribution ``phi_i`` (``1/K`` for the
        unweighted KNN classification utility).
    """
    _validate(epsilon, delta, r)
    if n <= 0:
        raise ParameterError(f"n must be positive, got {n}")
    return int(math.ceil(r**2 / (2.0 * epsilon**2) * math.log(2.0 * n / delta)))


def bennett_qi(n: int, k: int) -> np.ndarray:
    """The zero-marginal probabilities ``q_i`` of Theorem 5 (eq 33).

    ``q_i`` lower-bounds the probability that inserting the i-th
    nearest training point into a random permutation prefix leaves the
    K nearest neighbors unchanged: 0 for the K nearest points and
    ``(i - K) / i`` beyond.
    """
    if n <= 0 or k <= 0:
        raise ParameterError(f"n and k must be positive, got n={n}, k={k}")
    i = np.arange(1, n + 1, dtype=np.float64)
    q = np.where(i <= k, 0.0, (i - k) / i)
    return q


def _bennett_exponents(
    epsilon: float, n: int, k: int, r: float, out: np.ndarray
) -> np.ndarray:
    """Per-point decay rates ``(1 - q_i^2) h(eps / ((1 - q_i^2) r))``.

    Elementwise the same expressions as :func:`bennett_qi` and
    :func:`bennett_h`, so the rates are bit-identical to them, but
    evaluated in blocks: a solve at N=1e8 holds the rates and one sum
    buffer instead of five length-N temporaries.
    """
    for lo in range(0, n, _RATE_BLOCK):
        hi = min(n, lo + _RATE_BLOCK)
        w = np.arange(lo + 1, hi + 1, dtype=np.float64)
        q = w - k
        q /= w
        q **= 2
        np.subtract(1.0, q, out=w)  # 1 - q_i^2
        w[: max(0, min(k, hi) - lo)] = 1.0  # q_i = 0 for the K nearest
        u = w * r
        np.divide(epsilon, u, out=u)
        rate = out[lo:hi]
        np.log1p(u, out=rate)
        rate *= 1.0 + u
        rate -= u
        rate *= w
    return out


def _lhs(t: int, exponents: np.ndarray, buf: np.ndarray) -> float:
    """Eq (32)'s left-hand side ``sum_i exp(-t * rate_i)``."""
    np.multiply(exponents, -t, out=buf)
    np.exp(buf, out=buf)
    return float(buf.sum())


def _smallest_budget(
    exponents: np.ndarray, target: float, start: int, buf: np.ndarray
) -> int:
    """The smallest integer ``T`` with ``lhs(T) <= target``.

    ``lhs`` decreases in ``T`` and ``lhs(0) = N > target``.  Its log is
    convex in ``T`` (a log-sum-exp of linear functions), so a Newton
    step on ``log lhs`` from below lands at or below the root: walk up
    from ``start`` by such steps, rounded up to whole permutations,
    until a candidate meets the target.  That candidate is almost
    always ``T`` itself, so ``T - 1`` is probed first before an integer
    bisection closes the bracket.  Every candidate is decided by an
    exact evaluation of the sum, never by the Newton estimate.
    """
    lo, t = 0, max(1, start)
    while True:
        value = _lhs(t, exponents, buf)
        if not value > target:
            break
        lo = t
        slope = float(exponents @ buf)  # -d lhs / dT at t
        step = math.log(value / target) * value / slope if slope > 0 else t
        t = lo + max(1, math.ceil(min(step, _MAX_BUDGET)))
        if t > _MAX_BUDGET:
            raise ConvergenceError(
                "failed to bracket the Bennett permutation budget"
            )
    hi, probe = t, t - 1
    while hi - lo > 1:
        if _lhs(probe, exponents, buf) > target:
            lo = probe
        else:
            hi = probe
        probe = (lo + hi) // 2
    return hi


def _approx_start(epsilon: float, delta: float, k: int, r: float) -> int:
    """Eq 34's budget, or 1 where it is undefined.

    Eq 34 keeps only the K nearest points' terms of eq (32), so it
    sits at or just below Theorem 5's budget: the search's start.
    """
    h_val = float(bennett_h(epsilon / r))
    start = math.log(2.0 * k / delta) / h_val if h_val > 0 else math.inf
    return int(math.ceil(start)) if start < _MAX_BUDGET else 1


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _memo_budget(epsilon: float, delta: float, n: int, k: int, r: float) -> int:
    exponents = _bennett_exponents(epsilon, n, k, r, np.empty(n))
    start = _approx_start(epsilon, delta, k, r)
    return _smallest_budget(exponents, delta / 2.0, start, np.empty(n))


def bennett_permutations(
    epsilon: float, delta: float, n: int, k: int, r: float
) -> int:
    """Permutation budget from Theorem 5 (Bennett's inequality).

    The smallest integer ``T`` whose eq (32) left-hand side is at most
    ``delta / 2``.  The left-hand side strictly decreases in ``T``, so
    an integer search finds it, starting from the eq-34 estimate
    (:func:`bennett_approx_permutations`): typically two or three O(N)
    sums.  Budgets are memoized in a bounded LRU keyed by
    ``(epsilon, delta, n, k, r)``, so a serving rung pays the solve
    once per training-set size.
    """
    _validate(epsilon, delta, r)
    if n <= 0 or k <= 0:
        raise ParameterError(f"n and k must be positive, got n={n}, k={k}")
    return _memo_budget(float(epsilon), float(delta), int(n), int(k), float(r))


def bennett_approx_permutations(
    epsilon: float, delta: float, k: int, r: float
) -> int:
    """Closed-form approximation of the Bennett budget (eq 34).

    ``T ≈ ceil( (1 / h(eps / r)) * ln(2K / delta) )`` — independent of
    N, which is the qualitative point of Figure 11: the required
    permutation count flattens out as the training set grows.
    """
    _validate(epsilon, delta, r)
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    h_val = float(bennett_h(epsilon / r))
    return int(math.ceil(math.log(2.0 * k / delta) / h_val))


def certified_epsilon(
    n_permutations: int,
    delta: float,
    n: int,
    k: int,
    r: float,
    max_iter: int = 100,
) -> float:
    """Invert Theorem 5: the error an explicit budget certifies.

    The smallest ``epsilon`` whose Bennett budget
    (:func:`bennett_permutations`) fits within ``n_permutations`` —
    i.e. the ``(epsilon, delta)`` guarantee a run of ``T`` permutations
    can legitimately claim.  This is the certificate the serving
    layer's Monte Carlo precision rung records next to each degraded
    result, so an operator (or the benchmark gate) can hard-check the
    measured error against it.

    A budget fits exactly when eq (32)'s left-hand side at ``T`` is at
    most ``delta / 2``, so the bisection over ``epsilon`` tests that
    one O(N) sum per step instead of solving for a budget.
    """
    if n_permutations <= 0:
        raise ParameterError(
            f"n_permutations must be positive, got {n_permutations}"
        )
    if not 0 < delta < 1:
        raise ParameterError(f"delta must lie in (0, 1), got {delta}")
    if r <= 0:
        raise ParameterError(f"range r must be positive, got {r}")
    if n <= 0 or k <= 0:
        raise ParameterError(f"n and k must be positive, got n={n}, k={k}")
    n, k, r = int(n), int(k), float(r)
    target = delta / 2.0
    rates = np.empty(n)

    def too_loose(eps: float) -> bool:
        # eps's budget exceeds n_permutations exactly when its eq (32)
        # left-hand side at n_permutations is still above the target
        _bennett_exponents(eps, n, k, r, rates)
        return _lhs(n_permutations, rates, rates) > target

    # strictly decreasing in epsilon; bracket then bisect for the
    # smallest epsilon whose budget fits
    lo, hi = 0.0, float(r)
    it = 0
    while too_loose(hi):
        hi *= 2.0
        it += 1
        if it > max_iter:
            raise ConvergenceError(
                "failed to bracket the certified epsilon"
            )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # converged: later steps would not move hi
        if too_loose(mid):
            lo = mid
        else:
            hi = mid
    return hi
