"""Service-level objectives: declaration, burn tracking, actuation.

An :class:`SloObjective` declares what one tenant was promised (latency
p99 and/or session throughput).  The :class:`SloTracker` ingests session
outcomes and computes each objective's **burn rate** — observed/target
for latency, target/observed for throughput, so >1.0 always means "the
objective is burning hot".  The :class:`SloEnforcer` watches burn rates
and actuates, in escalating order:

1. boost the victim flow's weight (more bus share under WFQ);
2. tighten co-resident offenders' byte-rate throttles;
3. emit a migration hint the Consolidator serves by re-homing the
   victim's placement onto the least-loaded host.

Everything runs on simulated time and the shared metrics registry
(``repro_qos_slo_*`` families); nothing here advances the clock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.observability import MetricsRegistry
from repro.observability.instruments import SLO, bind
from repro.observability.stats import percentile_linear


@dataclass(frozen=True)
class SloObjective:
    """One tenant's declared objective."""

    tenant: str
    #: Target p99 session latency in simulated seconds; ``None`` = no
    #: latency objective.
    latency_p99_s: Optional[float] = None
    #: Target completed-session rate (sessions per simulated second);
    #: ``None`` = no throughput objective.
    min_sessions_per_s: Optional[float] = None
    #: Sliding sample window the burn rate is computed over.
    window: int = 16

    def __post_init__(self) -> None:
        if self.latency_p99_s is None and self.min_sessions_per_s is None:
            raise ValueError(
                f"objective for tenant {self.tenant!r} declares neither a "
                "latency nor a throughput target")


# Linear-interpolation percentile (numpy's default); the implementation
# moved to the shared stats module, this alias keeps call sites and the
# existing tests' import path stable.
_percentile = percentile_linear


class SloTracker:
    """Windows of per-tenant session outcomes, feeding burn rates."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 max_window: int = 256) -> None:
        self.max_window = max_window
        #: tenant -> (completion_time, latency_s) samples, newest last.
        self._sessions: Dict[str, Deque[Tuple[float, float]]] = {}
        self.obs = bind(metrics, SLO) if metrics is not None else None

    def observe_session(self, tenant: str, latency_s: float,
                        now: float) -> None:
        window = self._sessions.setdefault(
            tenant, deque(maxlen=self.max_window))
        window.append((now, latency_s))

    def sessions(self, tenant: str) -> int:
        return len(self._sessions.get(tenant, ()))

    def latency_p99(self, tenant: str, window: int) -> float:
        samples = self._sessions.get(tenant)
        if not samples:
            return 0.0
        recent = [latency for _, latency in list(samples)[-window:]]
        return _percentile(recent, 0.99)

    def session_rate(self, tenant: str, window: int, now: float) -> float:
        """Completed sessions per second over the recent window."""
        samples = self._sessions.get(tenant)
        if not samples:
            return 0.0
        recent = list(samples)[-window:]
        span = now - recent[0][0]
        if span <= 0:
            return 0.0
        return len(recent) / span

    def burn_rate(self, objective: SloObjective, now: float) -> float:
        """The objective's burn: max over its declared targets; >1 = hot.

        Returns 0.0 until the tenant has any samples — an idle tenant is
        not burning, it is absent.
        """
        if self.sessions(objective.tenant) == 0:
            return 0.0
        burn = 0.0
        if objective.latency_p99_s is not None:
            observed = self.latency_p99(objective.tenant, objective.window)
            burn = max(burn, observed / objective.latency_p99_s)
            if self.obs is not None:
                self.obs.burn[objective.tenant, "latency"].set(
                    observed / objective.latency_p99_s)
        if objective.min_sessions_per_s is not None:
            rate = self.session_rate(objective.tenant, objective.window, now)
            ratio = (objective.min_sessions_per_s / rate
                     if rate > 0 else float("inf"))
            burn = max(burn, ratio)
            if self.obs is not None:
                self.obs.burn[objective.tenant, "throughput"].set(
                    min(ratio, 1e6))
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
    victim's WFQ weight (cheap, reversible), then tighten co-resident
    offenders' byte throttles, and once both are exhausted emit a
    migration hint.  A burn back under ``cool`` resets the ladder.
    """

    def __init__(self, tracker: SloTracker,
                 objectives: Tuple[SloObjective, ...] = (),
                 metrics: Optional[MetricsRegistry] = None,
                 hot: float = 1.0, cool: float = 0.8,
                 max_weight: float = 16.0,
                 throttle_step: float = 0.75,
                 min_rate_scale: float = 0.25) -> None:
        self.tracker = tracker
        self.objectives = tuple(objectives)
        self.hot = hot
        self.cool = cool
        self.max_weight = max_weight
        self.throttle_step = throttle_step
        self.min_rate_scale = min_rate_scale
        self.obs = bind(metrics, SLO) if metrics is not None else None
        #: tenant -> [(flow, host_id)] currently serving that tenant.
        self._bound: Dict[str, List[Tuple[object, Optional[str]]]] = {}
        self._streak: Dict[str, int] = {}
        self._hints: List[str] = []
        self.actions: List[SloAction] = []

    # -- flow registry -------------------------------------------------------

    def bind(self, tenant: str, flow, host_id: Optional[str] = None) -> None:
        self._bound.setdefault(tenant, []).append((flow, host_id))

    def unbind(self, tenant: str, flow) -> None:
        flows = self._bound.get(tenant, [])
        self._bound[tenant] = [(f, h) for f, h in flows if f is not flow]
        if not self._bound[tenant]:
            self._bound.pop(tenant)

    def _offenders(self, tenant: str) -> List[Tuple[str, object]]:
        """Bound flows of *other* tenants sharing a host with ``tenant``."""
        hosts = {host for _, host in self._bound.get(tenant, ())
                 if host is not None}
        out = []
        for other, flows in self._bound.items():
            if other == tenant:
                continue
            for flow, host in flows:
                if host is None or not hosts or host in hosts:
                    out.append((other, flow))
        return out

    # -- the control loop body ----------------------------------------------

    def evaluate(self, now: float) -> List[SloAction]:
        """One enforcement pass; returns the actions taken this pass."""
        taken: List[SloAction] = []
        for objective in self.objectives:
            tenant = objective.tenant
            burn = self.tracker.burn_rate(objective, now)
            if burn <= self.hot:
                if burn < self.cool:
                    self._streak[tenant] = 0
                continue
            if self.obs is not None:
                kind = ("latency" if objective.latency_p99_s is not None
                        else "throughput")
                self.obs.violations[tenant, kind].inc()
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
        for flow, _ in self._bound.get(tenant, ()):
            new = min(self.max_weight, flow.weight * 2.0)
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
            new_rate = flow.scale_byte_rate(self.throttle_step,
                                            min_scale=self.min_rate_scale)
            if new_rate is not None:
                out.append(SloAction(offender, "throttle",
                                     f"bytes_per_s={new_rate:g}"))
                if self.obs is not None:
                    self.obs.actuations[offender, "throttle"].inc()
        return out

    def _hint_migration(self, tenant: str) -> List[SloAction]:
        if tenant in self._hints:
            return []
        self._hints.append(tenant)
        if self.obs is not None:
            self.obs.actuations[tenant, "migrate_hint"].inc()
        return [SloAction(tenant, "migrate_hint")]

    def take_migration_hints(self) -> List[str]:
        """Drain pending hints (the Consolidator's ``relieve`` input)."""
        hints, self._hints = self._hints, []
        return hints
