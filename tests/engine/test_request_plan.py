"""The request plan: one resolution at the front door of every topology.

* A malformed request fails with :class:`ParameterError` before any
  fan-out, so it can never count against a shard: no retries, no
  shard errors, no open circuit breakers.
* The engine and a data-sharded router give the same answer contract:
  the same ``result.method`` and the same method-specific ``extra``
  fields.
"""

import numpy as np
import pytest

from repro.engine import ShardRouter, ValuationEngine
from repro.engine.plan import plan_request
from repro.exceptions import ParameterError

K = 3

BAD_REQUESTS = [
    pytest.param({"method": "truncated", "epsilon": 0}, id="epsilon=0"),
    pytest.param({"method": "mc", "n_permutations": 0}, id="n_permutations=0"),
    pytest.param({"method": "mc", "delta": 1.5}, id="delta=1.5"),
    pytest.param({"method": "weighted", "mode": "bogus"}, id="mode=bogus"),
    pytest.param({"method": "weighted", "weights": "bogus"}, id="weights=bogus"),
    # NaN passes an `x <= 0` guard, and a float count is not a count
    pytest.param({"method": "mc", "epsilon": float("nan")}, id="mc-epsilon=nan"),
    pytest.param(
        {"method": "truncated", "epsilon": float("nan")}, id="truncated-epsilon=nan"
    ),
    pytest.param({"method": "exact", "deadline_s": float("nan")}, id="deadline_s=nan"),
    pytest.param({"method": "mc", "n_permutations": 2.5}, id="n_permutations=2.5"),
    pytest.param({"method": "mc", "n_permutations": True}, id="n_permutations=True"),
]

#: the method-specific extra fields every topology must agree on
CONTRACT_KEYS = (
    "kernel", "epsilon", "k_star", "weights", "task", "mode",
    "weighted_path", "delta", "n_permutations", "certificate",
)

METHODS = [
    pytest.param("classification", {"method": "exact"}, id="exact"),
    pytest.param(
        "classification", {"method": "truncated", "epsilon": 0.2}, id="truncated"
    ),
    pytest.param(
        "classification", {"method": "weighted", "weights": "rank"}, id="weighted"
    ),
    pytest.param(
        "classification",
        {"method": "weighted", "weights": "inverse_distance", "mode": "vectorized"},
        id="weighted-vectorized",
    ),
    pytest.param(
        "classification",
        {"method": "mc", "seed": 4, "n_permutations": 30},
        id="mc-budget",
    ),
    pytest.param(
        "classification",
        {"method": "mc", "seed": 4, "epsilon": 0.4, "delta": 0.1},
        id="mc-target",
    ),
    pytest.param("regression", {"method": "exact"}, id="exact-regression"),
    pytest.param(
        "regression", {"method": "weighted", "weights": "rank"}, id="weighted-regression"
    ),
]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(13)
    x_train = rng.normal(size=(45, 4))
    x_test = rng.normal(size=(9, 4))
    return {
        "x_train": x_train,
        "x_test": x_test,
        "classification": (
            rng.integers(0, 3, size=45), rng.integers(0, 3, size=9)
        ),
        "regression": (rng.normal(size=45), rng.normal(size=9)),
    }


def _router(data, sharding, task="classification", **kwargs):
    y_train, _ = data[task]
    return ShardRouter(
        data["x_train"], y_train, K, n_shards=3, sharding=sharding, task=task,
        **kwargs,
    )


# ------------------------------------------- malformed requests stay local
@pytest.mark.parametrize("sharding", ["data"])
@pytest.mark.parametrize("bad", BAD_REQUESTS)
def test_malformed_request_never_counts_against_a_shard(data, sharding, bad):
    y_train, y_test = data["classification"]
    with _router(data, sharding) as router:
        # the breaker threshold is 3: three shard-level failures would
        # open every circuit
        for _ in range(3):
            with pytest.raises(ParameterError):
                router.value(data["x_test"], y_test, **bad)
        assert router.resilience()["any_open"] is False
        counters = router.stats()["counters"]
        assert counters["retries"] == 0
        assert counters["shard_errors"] == 0
        assert counters["circuit_open_rejections"] == 0
        result = router.value(data["x_test"], y_test, method="exact")
    assert result.method == "exact"
    assert "degraded" not in result.extra


@pytest.mark.parametrize("bad", BAD_REQUESTS)
def test_engine_rejects_the_same_requests(data, bad):
    y_train, y_test = data["classification"]
    engine = ValuationEngine(data["x_train"], y_train, K)
    with pytest.raises(ParameterError):
        engine.value(data["x_test"], y_test, **bad)


@pytest.mark.parametrize("sharding", ["data"])
def test_backend_mismatch_is_rejected_before_fan_out(data, sharding):
    # method='lsh' needs the LSH backend on every shard
    y_train, y_test = data["classification"]
    with _router(data, sharding) as router:
        with pytest.raises(ParameterError):
            router.value(data["x_test"], y_test, method="lsh")
        assert router.stats()["counters"]["shard_errors"] == 0


# ----------------------------------------- one answer contract everywhere
@pytest.mark.parametrize("task, kwargs", METHODS)
def test_answer_contract_is_the_same_on_every_topology(data, task, kwargs):
    y_train, y_test = data[task]
    engine = ValuationEngine(data["x_train"], y_train, K, task=task)
    answers = {"engine": engine.value(data["x_test"], y_test, **kwargs)}
    with _router(data, "data", task=task) as router:
        answers["data"] = router.value(data["x_test"], y_test, **kwargs)
    reference = answers["engine"]
    contract = {k: reference.extra[k] for k in CONTRACT_KEYS if k in reference.extra}
    assert contract["kernel"]
    for topology, result in answers.items():
        assert result.method == reference.method, topology
        got = {k: result.extra[k] for k in CONTRACT_KEYS if k in result.extra}
        assert got == contract, topology


def test_approximate_answers_carry_their_certificate(data):
    y_train, y_test = data["classification"]
    engine = ValuationEngine(data["x_train"], y_train, K)
    truncated = engine.value(data["x_test"], y_test, method="truncated", epsilon=0.25)
    assert truncated.extra["certificate"] == {
        "epsilon": 0.25,
        "delta": 0.0,
        "k_star": 4,
        "bound": "truncation-theorem2",
    }
    mc = engine.value(data["x_test"], y_test, method="mc", n_permutations=20, seed=1)
    assert mc.extra["certificate"]["bound"] == "bennett-theorem5"
    assert mc.extra["certificate"]["n_permutations"] == 20
    assert "certificate" not in engine.value(data["x_test"], y_test).extra


# ------------------------------------------------------- the plan itself
def _plan(method, **overrides):
    kwargs = dict(
        task="classification", k=K, n_train=50, epsilon=0.1,
        weights="inverse_distance", mode="auto", delta=0.05,
        n_permutations=None,
    )
    kwargs.update(overrides)
    return plan_request(method, **kwargs)


def test_plan_resolves_retrieval_kind_and_answer_name():
    assert _plan("exact").retrieval == "full"
    assert _plan("exact").out_method == "exact"
    assert _plan("exact", task="regression").out_method == "exact-regression"
    weighted = _plan("weighted", weights="rank")
    assert weighted.retrieval == "full"
    assert weighted.out_method == "exact-weighted"
    assert weighted.extra["weighted_path"] == "piecewise"
    truncated = _plan("truncated", epsilon=0.2)
    assert truncated.retrieval == "topk"
    assert (truncated.extra["k_star"], truncated.k_eff) == (5, 5)
    assert _plan("truncated", epsilon=0.01).k_eff == 50  # capped at n
    mc = _plan("mc", n_permutations=7)
    assert mc.retrieval == "distances"
    assert mc.kernel is None
    assert mc.out_method == "mc"
    assert mc.extra["n_permutations"] == 7


def test_plan_rejects_classification_only_methods_for_regression():
    for method in ("truncated", "lsh", "mc"):
        with pytest.raises(ParameterError):
            _plan(method, task="regression")


@pytest.mark.parametrize("method", ["exact", "truncated", "weighted", "mc"])
def test_one_chunk_returns_its_per_test_block_without_a_copy(data, monkeypatch, method):
    from repro.engine.plan import RequestPlan

    blocks = []
    real = RequestPlan.chunk_partial

    def recording(self, *args, **kwargs):
        out = real(self, *args, **kwargs)
        blocks.append(out[1])
        return out

    monkeypatch.setattr(RequestPlan, "chunk_partial", recording)
    kw = {"method": method, "store_per_test": True, "seed": 1}
    (y_train, y_test), x_train, x_test = data["classification"], data["x_train"], data["x_test"]
    one = ValuationEngine(x_train, y_train, K, cache=False)
    res = one.value(x_test, y_test, **kw)
    assert len(blocks) == 1 and res.extra["per_test"] is blocks[0]
    blocks.clear()
    chunked = ValuationEngine(x_train, y_train, K, cache=False, chunk_size=3)
    split = chunked.value(x_test, y_test, **kw)
    assert len(blocks) > 1
    if method != "mc":  # chunks draw their own Monte Carlo streams
        np.testing.assert_array_equal(split.extra["per_test"], res.extra["per_test"])
