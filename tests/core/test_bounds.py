"""Tests for the permutation-budget bounds (Theorem 5 and baselines)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    bennett_approx_permutations,
    bennett_h,
    bennett_permutations,
    bennett_qi,
    hoeffding_permutations,
)
from repro.core import bounds
from repro.core.bounds import certified_epsilon
from repro.exceptions import ParameterError


def _rates(epsilon, n, k, r):
    q = bennett_qi(n, k)
    one_minus_q2 = 1.0 - q**2
    return one_minus_q2 * np.asarray(bennett_h(epsilon / (one_minus_q2 * r)))


def _lhs(t, epsilon, n, k, r):
    return float(np.exp(-t * _rates(epsilon, n, k, r)).sum())


def _reference_budget(epsilon, delta, n, k, r, max_iter=200):
    """The float-bisection solver the integer search replaced."""
    exponents = _rates(epsilon, n, k, r)

    def lhs(t):
        return float(np.exp(-t * exponents).sum())

    target = delta / 2.0
    lo, hi = 0.0, 1.0
    while lhs(hi) > target:
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if lhs(mid) > target:
            lo = mid
        else:
            hi = mid
    return int(math.ceil(hi))


def _reference_epsilon(n_permutations, delta, n, k, r, max_iter=100):
    """The nested inverse: a full budget solve per epsilon step."""
    lo, hi = 0.0, float(r)
    while _reference_budget(hi, delta, n, k, r) > n_permutations:
        hi *= 2.0
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0:
            break
        if _reference_budget(mid, delta, n, k, r) > n_permutations:
            lo = mid
        else:
            hi = mid
    return hi


def test_bennett_h_properties():
    assert bennett_h(0.0) == pytest.approx(0.0)
    # h is increasing and convex on [0, inf)
    u = np.linspace(0.0, 5.0, 50)
    h = np.asarray(bennett_h(u))
    assert np.all(np.diff(h) > 0)
    assert np.all(np.diff(h, 2) > -1e-12)
    # h(u) <= u^2 (used by the approximate bound derivation)
    assert np.all(h <= u**2 + 1e-12)


def test_qi_structure():
    q = bennett_qi(10, 3)
    assert q.shape == (10,)
    np.testing.assert_array_equal(q[:3], 0.0)
    expected = np.array([(i - 3) / i for i in range(4, 11)])
    np.testing.assert_allclose(q[3:], expected)
    assert np.all(np.diff(q[3:]) > 0)  # increases with rank


def test_hoeffding_grows_with_n():
    budgets = [
        hoeffding_permutations(0.1, 0.05, n, 1.0) for n in (100, 1000, 10000)
    ]
    assert budgets[0] < budgets[1] < budgets[2]


def test_bennett_flattens_with_n():
    """Figure 11's point: the Bennett budget barely moves with N while
    Hoeffding's keeps growing, so Bennett wins at scale.  (At small N
    the two are comparable — Bennett's h(u) ~ u^2/2 exponent is no
    tighter per point; the win comes from far points' tiny variance.)"""
    ns = (100, 10000, 1000000, 100000000)
    budgets = [bennett_permutations(0.1, 0.05, n, 1, 1.0) for n in ns]
    assert budgets[-1] <= budgets[0] * 1.1  # nearly flat
    hoeff = [hoeffding_permutations(0.1, 0.05, n, 1.0) for n in ns]
    assert hoeff[-1] > hoeff[0] * 2  # Hoeffding keeps growing
    assert budgets[-1] < hoeff[-1]  # Bennett wins at large N


def test_bennett_solves_equation():
    """The returned T satisfies eq (32)'s LHS <= delta/2 and T-1 does not."""
    eps, delta, n, k, r = 0.1, 0.05, 500, 3, 1.0
    t_star = bennett_permutations(eps, delta, n, k, r)
    q = bennett_qi(n, k)
    one_minus = 1.0 - q**2
    exponents = one_minus * np.asarray(bennett_h(eps / (one_minus * r)))

    def lhs(t):
        return float(np.exp(-t * exponents).sum())

    assert lhs(t_star) <= delta / 2 + 1e-9
    assert lhs(max(t_star - 2, 0)) > delta / 2


def test_bennett_approx_independent_of_n():
    a = bennett_approx_permutations(0.1, 0.05, 3, 1.0)
    assert a == bennett_approx_permutations(0.1, 0.05, 3, 1.0)
    assert a > 0
    # grows with k and shrinks with epsilon
    assert bennett_approx_permutations(0.1, 0.05, 10, 1.0) > a
    assert bennett_approx_permutations(0.2, 0.05, 3, 1.0) < a


def test_knn_range_tightens_budgets():
    """r = 1/K for the KNN utility shrinks every budget by ~K^2."""
    loose = hoeffding_permutations(0.05, 0.05, 1000, 1.0)
    tight = hoeffding_permutations(0.05, 0.05, 1000, 1.0 / 5)
    assert tight < loose / 20


@pytest.mark.parametrize(
    "fn,args",
    [
        (hoeffding_permutations, (0.0, 0.1, 10, 1.0)),
        (hoeffding_permutations, (0.1, 0.0, 10, 1.0)),
        (hoeffding_permutations, (0.1, 1.5, 10, 1.0)),
        (hoeffding_permutations, (0.1, 0.1, 0, 1.0)),
        (hoeffding_permutations, (0.1, 0.1, 10, 0.0)),
        (bennett_permutations, (0.1, 0.1, 10, 0, 1.0)),
        (bennett_approx_permutations, (0.1, 0.1, 0, 1.0)),
    ],
)
def test_rejects_bad_parameters(fn, args):
    with pytest.raises(ParameterError):
        fn(*args)


@settings(max_examples=60, deadline=None)
@given(
    epsilon=st.floats(0.02, 2.0),
    delta=st.floats(0.01, 0.5),
    n=st.integers(1, 60),
    k=st.integers(1, 8),
    unit_range=st.booleans(),
)
def test_budget_matches_reference_solver(epsilon, delta, n, k, unit_range):
    r = 1.0 if unit_range else 1.0 / k
    t = bennett_permutations(epsilon, delta, n, k, r)
    assert t == _reference_budget(epsilon, delta, n, k, r)
    # the smallest integer budget that meets eq (32)
    assert _lhs(t, epsilon, n, k, r) <= delta / 2 < _lhs(t - 1, epsilon, n, k, r)


@settings(max_examples=25, deadline=None)
@given(
    n_permutations=st.integers(1, 400),
    delta=st.floats(0.01, 0.5),
    n=st.integers(1, 30),
    k=st.integers(1, 5),
)
def test_certified_epsilon_matches_reference_inverse(n_permutations, delta, n, k):
    r = 1.0 / k
    eps = certified_epsilon(n_permutations, delta, n, k, r)
    assert eps == _reference_epsilon(n_permutations, delta, n, k, r)
    # the certified epsilon's budget fits the run it certifies
    assert bennett_permutations(eps, delta, n, k, r) <= n_permutations


def test_seeded_grid_matches_reference_solvers():
    for eps, delta, n, k in [
        (0.5, 0.05, 4000, 5),  # the serving ladder's Monte Carlo rung
        (0.1, 0.05, 1000, 1),
        (0.05, 0.1, 777, 3),
        (1.5, 0.3, 2, 7),  # n < k
    ]:
        r = 1.0 / k
        assert bennett_permutations(eps, delta, n, k, r) == _reference_budget(
            eps, delta, n, k, r
        )
    assert certified_epsilon(20, 0.05, 2000, 5, 0.2) == _reference_epsilon(
        20, 0.05, 2000, 5, 0.2
    )


@pytest.mark.parametrize("start", [1, 50, 823, 824, 5000])
def test_budget_search_recovers_from_any_start(start):
    # eq 34 normally starts the search just below the budget; from
    # above it, the search must bisect back down to the same answer
    n, k, r, target = 100, 1, 1.0, 0.025
    exponents = _rates(0.1, n, k, r)
    got = bounds._smallest_budget(exponents, target, start, np.empty(n))
    assert got == _reference_budget(0.1, 0.05, n, k, r) == 823


def test_budget_memo_is_bounded_and_keyed_by_n():
    memo = bounds._memo_budget
    memo.cache_clear()
    small = bennett_permutations(0.1, 0.05, 1, 1, 1.0)
    large = bennett_permutations(0.1, 0.05, 100, 1, 1.0)
    # a mutated training set (new n) gets its own solve and budget
    assert small < large
    assert memo.cache_info().misses == 2
    assert bennett_permutations(0.1, 0.05, 100, 1, 1.0) == large
    assert memo.cache_info().hits == 1
    limit = memo.cache_info().maxsize
    for n in range(2, limit + 40):
        bennett_permutations(0.5, 0.05, n, 5, 0.2)
    assert memo.cache_info().currsize == limit
    memo.cache_clear()


def test_certified_epsilon_rejects_bad_parameters():
    for args in [(0, 0.1, 10, 1, 1.0), (5, 0.0, 10, 1, 1.0), (5, 0.1, 10, 1, 0.0),
                 (5, 0.1, 0, 1, 1.0), (5, 0.1, 10, 0, 1.0)]:
        with pytest.raises(ParameterError):
            certified_epsilon(*args)
