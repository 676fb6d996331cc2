"""Execution layer: batched, cached, parallel valuation serving.

The algorithms in :mod:`repro.core` are single-shot: one call, one
fresh ranking, one result.  This package is the system around them —
the part the paper's Section 3.2 serving scenario actually needs:

* :mod:`~repro.engine.backends` — a :class:`NeighborBackend` contract
  with exact (``brute``), memory-bounded (``blocked``) and sublinear
  (``lsh``) implementations behind one registry;
* :mod:`~repro.engine.cache` — dataset fingerprinting and a rank/top-K
  LRU so repeated valuations of the same (train, test, metric) pair
  skip the sort entirely;
* :mod:`~repro.engine.engine` — :class:`ValuationEngine`, the one
  owner of a training set (its backend, its metric and every join or
  leave), chunking test batches, running chunks on a thread pool, and
  merging Shapley partial sums exactly (additivity, eq 8);
* :mod:`~repro.engine.incremental` — :class:`IncrementalValuator`,
  exact delta updates of fitted rank state under training-set churn
  (the dynamic data-market workload), a client of an engine that
  ranks and mutates for it, as the streaming accumulator
  (:class:`repro.core.StreamingKNNShapley`) is;
* :mod:`~repro.engine.service` — :class:`ValuationService`, a priority
  queue of :class:`ValuationRequest` and :class:`MutationRequest` jobs
  with per-job latency stats, bounded-queue admission control
  (load-shedding), and per-request deadlines;
* :mod:`~repro.engine.degradation` — :class:`DegradationController`,
  the precision ladder that trades certified accuracy for latency
  under overload (exact → Theorem-2 truncation → Theorem-5 Monte
  Carlo, every rung carrying its error certificate).

Every component answers ``stats()`` with the unified schema of
:mod:`repro.stats`, and publishes runtime streams into an attached
:class:`repro.monitor.TelemetryHub` — the collection surface of the
monitoring/adaptive-maintenance subsystem (:mod:`repro.monitor`).
"""

from .backends import (
    BlockedExactBackend,
    BruteForceBackend,
    LSHNeighborBackend,
    NeighborBackend,
    available_backends,
    make_backend,
    register_backend,
)
from .cache import CacheStats, RankCache, array_fingerprint, dataset_fingerprint
from .degradation import DEFAULT_LADDER, DegradationController, PrecisionRung
from .engine import ValuationEngine
from .incremental import IncrementalValuator
from .plan import resolve_method_kernel
from .sharding import Shard, ShardRouter
from .service import (
    MutationRequest,
    MutationResult,
    ValuationJob,
    ValuationRequest,
    ValuationService,
)

__all__ = [
    "NeighborBackend",
    "BruteForceBackend",
    "BlockedExactBackend",
    "LSHNeighborBackend",
    "register_backend",
    "available_backends",
    "make_backend",
    "RankCache",
    "CacheStats",
    "array_fingerprint",
    "dataset_fingerprint",
    "ValuationEngine",
    "resolve_method_kernel",
    "DegradationController",
    "PrecisionRung",
    "DEFAULT_LADDER",
    "IncrementalValuator",
    "Shard",
    "ShardRouter",
    "ValuationService",
    "ValuationRequest",
    "MutationRequest",
    "MutationResult",
    "ValuationJob",
]
