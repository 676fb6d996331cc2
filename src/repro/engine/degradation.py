"""The precision ladder: trade certified accuracy for latency under load.

The paper's approximation hierarchy is, read operationally, a
*degradation ladder*: Theorem 1 is the exact answer, Theorem 2 buys an
``epsilon`` max-norm guarantee for a shorter prefix of the ranking,
and the Monte Carlo estimator with Theorem 5's budget buys an
``(epsilon, delta)`` certificate from a permutation budget that
barely grows with N.  The rungs are ordered by precision, each looser
than the one above it, and every rung states exactly how loose, which
is what makes shedding precision (instead of requests) a defensible
overload policy.  They are *not* ordered by cost: at a large N with a
small K, Theorem 5's sampler can cost more than a Theorem 2 top-K*
retrieval, or even more than the exact sort.

:class:`DegradationController` picks the loosest rung a request may
take from two pressure signals:

* **queue depth** — the primary, instantaneous signal: requests
  waiting in the :class:`~repro.engine.service.ValuationService`
  queue;
* **SLO burn rate** — :meth:`repro.monitor.slo.SLOTracker.worst_burn`,
  consulted (rate-limited) only while the queue is non-trivial, so a
  stale burn spike cannot hold the ladder down after load has
  cleared.

Recovery is deliberately asymmetric: whenever the queue is at or
below ``queue_low`` the controller returns the exact rung
immediately, regardless of burn history — serving returns to exact
within one maintenance cycle of a fault clearing, the chaos suite's
acceptance criterion.

Within the loosest rung pressure allows, the controller serves by
measured cost: once that mapped rung has a compute-latency EWMA, the
request gets the rung at or above it with the lowest EWMA, and the
more precise one on a tie.  A rung that was never served has no EWMA
and is served as mapped, so a cold controller picks exactly what
pressure alone would pick.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ..exceptions import ParameterError

__all__ = ["PrecisionRung", "DEFAULT_LADDER", "DegradationController"]


@dataclass(frozen=True)
class PrecisionRung:
    """One step of the ladder: a method plus its error contract.

    ``epsilon`` is the max-norm error the rung certifies (0 for
    exact); ``delta`` the failure probability (0 for the
    deterministic rungs — Theorem 2's bound is worst-case).
    """

    name: str
    method: str
    epsilon: float = 0.0
    delta: float = 0.0


#: exact → fine truncation → coarse truncation → Monte Carlo, in
#: order of precision: Theorem 2 with a looser budget as pressure
#: grows, Theorem 5 sampling at saturation.
DEFAULT_LADDER: tuple[PrecisionRung, ...] = (
    PrecisionRung("exact", "exact"),
    PrecisionRung("truncated-fine", "truncated", epsilon=0.05),
    PrecisionRung("truncated-coarse", "truncated", epsilon=0.25),
    PrecisionRung("mc", "mc", epsilon=0.5, delta=0.05),
)


class DegradationController:
    """Maps load pressure to a :class:`PrecisionRung` per request.

    Parameters
    ----------
    ladder:
        Rungs ordered from most to least precise; index 0 must be the
        exact rung.
    slo:
        Optional :class:`~repro.monitor.slo.SLOTracker`; its
        ``worst_burn()`` feeds the pressure score.
    queue_low:
        Queue depth at or below which serving is considered idle —
        the exact rung is forced and burn is ignored (the recovery
        rule).
    queue_high:
        Depth at which queue pressure saturates at 1.0 (the bottom
        rung).
    burn_high:
        Burn rate treated as pressure 1.0; 14.4 is the classic
        page-worthy fast-burn threshold.
    burn_interval:
        Minimum seconds between ``worst_burn()`` consultations — the
        tracker walks its ring buffers, so the score is cached
        between requests.
    clock:
        Injectable time source (monotonic seconds), for tests and the
        fault harness.
    """

    def __init__(
        self,
        ladder: Sequence[PrecisionRung] = DEFAULT_LADDER,
        slo=None,
        queue_low: int = 1,
        queue_high: int = 16,
        burn_high: float = 14.4,
        burn_interval: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        ladder = tuple(ladder)
        if not ladder:
            raise ParameterError("the ladder needs at least one rung")
        if ladder[0].method != "exact":
            raise ParameterError(
                "the top rung must be exact, got "
                f"method={ladder[0].method!r}"
            )
        if queue_high <= queue_low:
            raise ParameterError(
                f"queue_high must exceed queue_low, got "
                f"{queue_high} <= {queue_low}"
            )
        if burn_high <= 0:
            raise ParameterError(f"burn_high must be positive, got {burn_high}")
        self.ladder = ladder
        self.slo = slo
        self.queue_low = int(queue_low)
        self.queue_high = int(queue_high)
        self.burn_high = float(burn_high)
        self.burn_interval = float(burn_interval)
        self.clock = clock
        self._lock = threading.Lock()
        self._burn_cached = 0.0
        self._burn_at: Optional[float] = None
        #: EWMA of observed compute seconds per rung, for the
        #: deadline-aware escalation and the cost-aware pick
        self._latency: dict[str, float] = {}
        self._picks = {rung.name: 0 for rung in ladder}
        self._substitutions = 0

    # ------------------------------------------------------------------
    def _burn(self) -> float:
        if self.slo is None:
            return 0.0
        now = self.clock()
        with self._lock:
            stale = (
                self._burn_at is None
                or now - self._burn_at >= self.burn_interval
            )
        if stale:
            burn = float(self.slo.worst_burn())
            with self._lock:
                self._burn_cached = burn
                self._burn_at = now
        with self._lock:
            return self._burn_cached

    def plan(
        self, queue_depth: int, deadline_s: Optional[float] = None
    ) -> tuple[PrecisionRung, dict]:
        """Pick the rung for one request.

        Args:
            queue_depth: Jobs currently waiting behind this one.
            deadline_s: The request's remaining budget in seconds, if
                it carries one; rungs whose observed latency EWMA
                does not fit the budget are skipped downward.

        Returns:
            ``(rung, info)`` — ``info`` carries the pressure score
            and its components for telemetry and
            ``extra["degraded"]``, and ``substituted_for`` names the
            pressure-mapped rung when a cheaper, more precise one was
            served in its place.
        """
        queue_depth = max(0, int(queue_depth))
        info: dict = {"queue_depth": queue_depth}
        if queue_depth <= self.queue_low:
            # the recovery rule: an idle queue serves exact, full stop
            queue_pressure = 0.0
            burn_pressure = 0.0
        else:
            queue_pressure = min(
                1.0,
                (queue_depth - self.queue_low)
                / float(self.queue_high - self.queue_low),
            )
            burn_pressure = min(1.0, self._burn() / self.burn_high)
        pressure = max(queue_pressure, burn_pressure)
        info["queue_pressure"] = queue_pressure
        info["burn_pressure"] = burn_pressure
        info["pressure"] = pressure
        if pressure <= 0.0:
            idx = 0
        else:
            # pressure in (0, 1] maps onto rungs 1..last
            idx = 1 + int(pressure * (len(self.ladder) - 1 - 1e-9))
            idx = min(idx, len(self.ladder) - 1)
        with self._lock:
            latency = dict(self._latency)
        # deadline-aware escalation: if the chosen rung's observed
        # latency will not fit the remaining budget, step down until
        # one does (or the bottom rung is reached)
        if deadline_s is not None and deadline_s > 0:
            while idx < len(self.ladder) - 1:
                seen = latency.get(self.ladder[idx].name)
                if seen is None or seen <= 0.8 * deadline_s:
                    break
                idx += 1
                info["deadline_escalated"] = True
        # the cost-aware pick: ``idx`` is the loosest rung allowed; once
        # it has a measured cost, serve the cheapest measured rung at or
        # above it (min keeps the more precise rung on a tie).  It costs
        # no more than ``idx`` itself, so a deadline fit still holds.
        mapped = idx
        if self.ladder[mapped].name in latency:
            idx = min(
                (i for i in range(mapped + 1) if self.ladder[i].name in latency),
                key=lambda i: latency[self.ladder[i].name],
            )
        rung = self.ladder[idx]
        with self._lock:
            self._picks[rung.name] = self._picks.get(rung.name, 0) + 1
            if idx != mapped:
                self._substitutions += 1
        if idx != mapped:
            info["substituted_for"] = self.ladder[mapped].name
        info["rung"] = rung.name
        return rung, info

    def observe(self, rung_name: str, seconds: float) -> None:
        """Feed one served request's compute time into the rung's EWMA."""
        if seconds < 0:
            return
        with self._lock:
            prev = self._latency.get(rung_name)
            self._latency[rung_name] = (
                seconds if prev is None else 0.3 * seconds + 0.7 * prev
            )

    def snapshot(self) -> dict:
        """Counters and EWMAs for ``stats()`` surfaces."""
        with self._lock:
            return {
                "picks": dict(self._picks),
                "substitutions": self._substitutions,
                "latency_ewma_seconds": dict(self._latency),
                "burn_cached": self._burn_cached,
                "ladder": [rung.name for rung in self.ladder],
            }
