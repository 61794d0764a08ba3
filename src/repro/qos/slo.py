"""Service-level objectives: declaration, burn tracking, actuation.

An :class:`SloObjective` declares what one tenant was promised: a p99
session latency.  The :class:`SloTracker` ingests session outcomes and
computes each objective's **burn rate**, observed/target, so >1.0 means
"the objective is burning hot".  The :class:`SloEnforcer` watches burn rates
and actuates, in escalating order:

1. boost the victim flow's weight (more bus share under WFQ);
2. tighten the other tenants' byte-rate throttles;
3. record a ``migrate_hint`` action, once per tenant: the victim is a
   candidate for re-homing, e.g. through
   :func:`~repro.virt.migration.migrate_device`.

Everything runs on simulated time and the shared metrics registry
(``repro_qos_slo_*`` families); nothing here advances the clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.observability import MetricsRegistry
from repro.observability.catalog import SLO, bind
from repro.observability.stats import percentile_linear


@dataclass(frozen=True)
class SloObjective:
    """One tenant's declared objective."""

    tenant: str
    #: Target p99 session latency in simulated seconds.
    latency_p99_s: float
    #: Sliding sample window the burn rate is computed over.
    window: int = 16


class SloTracker:
    """Windows of per-tenant session outcomes, feeding burn rates."""

    #: Samples kept per tenant, newest last.
    MAX_WINDOW = 256

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        #: tenant -> session latencies in seconds, newest last.
        self._sessions: Dict[str, Deque[float]] = {}
        self.obs = bind(metrics, SLO) if metrics is not None else None

    def observe_session(self, tenant: str, latency_s: float) -> None:
        window = self._sessions.setdefault(
            tenant, deque(maxlen=self.MAX_WINDOW))
        window.append(latency_s)

    def sessions(self, tenant: str) -> int:
        return len(self._sessions.get(tenant, ()))

    def latency_p99(self, tenant: str, window: int) -> float:
        samples = self._sessions.get(tenant)
        if not samples:
            return 0.0
        return percentile_linear(list(samples)[-window:], 0.99)

    def burn_rate(self, objective: SloObjective) -> float:
        """The objective's burn, observed p99 / target; >1 = hot.

        Returns 0.0 until the tenant has any samples — an idle tenant is
        not burning, it is absent.
        """
        if self.sessions(objective.tenant) == 0:
            return 0.0
        observed = self.latency_p99(objective.tenant, objective.window)
        burn = observed / objective.latency_p99_s
        if self.obs is not None:
            self.obs.burn[objective.tenant, "latency"].set(burn)
        return burn


@dataclass
class SloAction:
    """One actuation the enforcer took."""

    tenant: str
    action: str          #: ``boost_weight`` | ``throttle`` | ``migrate_hint``
    detail: str = ""


class SloEnforcer:
    """Turns hot burn rates into weight, throttle and placement changes.

    Escalation ladder per consecutive hot evaluation: first boost the
    victim's WFQ weight (cheap, reversible), then tighten the other
    tenants' byte throttles, and once both are exhausted record a
    migration hint.  A burn back under ``COOL`` resets the ladder.
    """

    #: A burn above ``HOT`` escalates; one below ``COOL`` resets the ladder.
    HOT, COOL = 1.0, 0.8
    #: A boost doubles the victim's weight up to ``MAX_WEIGHT``.
    MAX_WEIGHT = 16.0
    #: A throttle scales an offender's byte rate by ``THROTTLE_STEP``,
    #: down to ``MIN_RATE_SCALE`` of its configured rate.
    THROTTLE_STEP, MIN_RATE_SCALE = 0.75, 0.25

    def __init__(self, tracker: SloTracker,
                 objectives: Tuple[SloObjective, ...] = (),
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracker = tracker
        self.objectives = tuple(objectives)
        self.obs = bind(metrics, SLO) if metrics is not None else None
        #: tenant -> the flows currently serving that tenant.
        self._bound: Dict[str, List[object]] = {}
        self._streak: Dict[str, int] = {}
        #: Tenants already hinted: each gets one ``migrate_hint``.
        self._hints: Set[str] = set()
        self.actions: List[SloAction] = []

    # -- flow registry -------------------------------------------------------

    def bind(self, tenant: str, flow) -> None:
        self._bound.setdefault(tenant, []).append(flow)

    def _offenders(self, tenant: str) -> List[Tuple[str, object]]:
        """Bound flows of the tenants other than ``tenant``."""
        return [(other, flow) for other, flows in self._bound.items()
                if other != tenant for flow in flows]

    # -- the control loop body ----------------------------------------------

    def evaluate(self) -> List[SloAction]:
        """One enforcement pass; returns the actions taken this pass."""
        taken: List[SloAction] = []
        for objective in self.objectives:
            tenant = objective.tenant
            burn = self.tracker.burn_rate(objective)
            if burn <= self.HOT:
                if burn < self.COOL:
                    self._streak[tenant] = 0
                continue
            if self.obs is not None:
                self.obs.violations[tenant, "latency"].inc()
            streak = self._streak.get(tenant, 0) + 1
            self._streak[tenant] = streak
            if streak == 1:
                taken.extend(self._boost_weight(tenant))
            elif streak == 2:
                taken.extend(self._throttle_offenders(tenant))
            else:
                taken.extend(self._hint_migration(tenant))
        self.actions.extend(taken)
        return taken

    def _boost_weight(self, tenant: str) -> List[SloAction]:
        out = []
        for flow in self._bound.get(tenant, ()):
            new = min(self.MAX_WEIGHT, flow.weight * 2.0)
            if new > flow.weight:
                flow.set_weight(new)
                out.append(SloAction(tenant, "boost_weight",
                                     f"weight={new:g}"))
                if self.obs is not None:
                    self.obs.actuations[tenant, "boost_weight"].inc()
        return out

    def _throttle_offenders(self, tenant: str) -> List[SloAction]:
        out = []
        for offender, flow in self._offenders(tenant):
            new_rate = flow.scale_byte_rate(self.THROTTLE_STEP,
                                            min_scale=self.MIN_RATE_SCALE)
            if new_rate is not None:
                out.append(SloAction(offender, "throttle",
                                     f"bytes_per_s={new_rate:g}"))
                if self.obs is not None:
                    self.obs.actuations[offender, "throttle"].inc()
        return out

    def _hint_migration(self, tenant: str) -> List[SloAction]:
        if tenant in self._hints:
            return []
        self._hints.add(tenant)
        if self.obs is not None:
            self.obs.actuations[tenant, "migrate_hint"].inc()
        return [SloAction(tenant, "migrate_hint")]
