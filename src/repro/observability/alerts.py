"""Declarative alert rules evaluated against the time-series store.

A rule watches one metric through a windowed query and walks a small
state machine::

    inactive --condition true--> pending --held for_s--> firing
    firing --condition false--> resolved --next eval--> inactive

``pending`` is the hold-down Prometheus calls ``for:`` — a condition
must stay true for ``for_s`` simulated seconds before the rule fires, so
a single slow scrape cannot page anyone.  ``resolved`` is a transient
state held for exactly one evaluation, so dashboards can show the
recovery edge before the rule returns to ``inactive``.

Three rule kinds cover the scenarios the monitor runs:

- ``threshold``: a windowed query (rate / delta / latest / percentile)
  compared against a bound;
- ``burn_rate``: observed/target ratio of a latency percentile — the
  SLO-layer convention from ``repro.qos.slo``, reusing the same shared
  percentile math;
- ``absence``: fires when a metric that should be flowing has produced
  no sample within the window (a dead scrape target, a stalled driver).

Rules are validated against the metric catalog at construction: a rule
naming a metric that cannot exist is a configuration bug, and the CI
smoke job turns it into a build failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.observability.catalog import CATALOG
from repro.observability.instruments import ALERT, bind
from repro.observability.metrics import MetricsRegistry
from repro.observability.timeseries import TimeSeriesStore

#: Rule states, in lifecycle order.
STATES = ("inactive", "pending", "firing", "resolved")

#: Supported windowed queries for threshold rules.
_QUERIES = ("rate", "delta", "latest", "percentile")

#: Supported comparison operators.
_OPS = (">", ">=", "<", "<=")


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule.

    ``kind`` selects the evaluation: ``threshold`` compares
    ``query(metric)`` against ``bound`` with ``op``; ``burn_rate``
    compares ``percentile(metric, q) / target`` against ``bound``;
    ``absence`` is true when the metric has no point in ``window``.
    """

    name: str
    metric: str
    kind: str = "threshold"
    query: str = "rate"            #: threshold rules: rate|delta|latest|percentile
    op: str = ">"
    bound: float = 0.0
    q: float = 0.99                #: percentile / burn-rate quantile
    target: float = 0.0            #: burn-rate denominator (SLO target)
    window: Optional[float] = None
    for_s: float = 0.0             #: hold-down before pending -> firing
    labels: Optional[Tuple[Tuple[str, str], ...]] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.metric not in CATALOG:
            raise ObservabilityError(
                f"alert rule {self.name!r} watches unknown metric "
                f"{self.metric!r} (not in the catalog)")
        if self.kind not in ("threshold", "burn_rate", "absence"):
            raise ObservabilityError(
                f"alert rule {self.name!r} has unknown kind {self.kind!r}")
        if self.kind == "threshold" and self.query not in _QUERIES:
            raise ObservabilityError(
                f"alert rule {self.name!r} has unknown query "
                f"{self.query!r} (expected one of {_QUERIES})")
        if self.op not in _OPS:
            raise ObservabilityError(
                f"alert rule {self.name!r} has unknown operator {self.op!r}")
        if self.kind == "burn_rate" and self.target <= 0:
            raise ObservabilityError(
                f"burn-rate rule {self.name!r} needs a positive target")

    def label_dict(self) -> Optional[Dict[str, str]]:
        return dict(self.labels) if self.labels else None


@dataclass
class Transition:
    """One edge of a rule's state machine, for the alert timeline."""

    ts: float
    rule: str
    from_state: str
    to_state: str
    value: float


@dataclass
class _RuleState:
    state: str = "inactive"
    #: Simulated time the condition first went true (pending entry).
    since: Optional[float] = None
    last_value: float = 0.0
    transitions: List[Transition] = field(default_factory=list)


class AlertRuleEngine:
    """Evaluates rules against a :class:`TimeSeriesStore`.

    ``evaluate(now)`` runs every rule once; the monitor drivers call it
    on the scrape cadence.  All state changes are exported through the
    ``repro_alert_*`` families, so the alert layer is itself observable
    (and its trajectory lands in the same store it reads).
    """

    def __init__(self, store: TimeSeriesStore,
                 rules: List[AlertRule],
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.store = store
        self.rules = list(rules)
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ObservabilityError(f"duplicate alert rule names in {names}")
        self.obs = bind(registry, ALERT) if registry is not None else None
        self.states: Dict[str, _RuleState] = {
            rule.name: _RuleState() for rule in self.rules
        }
        for rule in self.rules:
            self._publish_state(rule.name, "inactive")
        self.evaluations = 0

    def _publish_state(self, rule: str, state: str) -> None:
        """One gauge per lifecycle state of ``rule``: 1 on ``state``, 0 on
        the others."""
        if self.obs is not None:
            for candidate in STATES:
                self.obs.state[rule, candidate].set(
                    1.0 if candidate == state else 0.0)

    # -- condition evaluation ------------------------------------------------

    def _value(self, rule: AlertRule) -> float:
        labels = rule.label_dict()
        if rule.kind == "absence":
            matched = self.store.select(rule.metric, labels)
            present = any(s.window(rule.window) for s in matched)
            return 0.0 if present else 1.0
        if rule.kind == "burn_rate":
            observed = self.store.window_percentile(
                rule.metric, rule.q, labels, rule.window)
            return observed / rule.target
        if rule.query == "rate":
            return self.store.rate(rule.metric, labels, rule.window)
        if rule.query == "delta":
            return self.store.delta(rule.metric, labels, rule.window)
        if rule.query == "latest":
            latest = self.store.latest(rule.metric, labels)
            return latest if latest is not None else 0.0
        return self.store.window_percentile(rule.metric, rule.q, labels,
                                            rule.window)

    def _breached(self, rule: AlertRule, value: float) -> bool:
        if rule.kind == "absence":
            return value >= 1.0
        bound = rule.bound
        if rule.op == ">":
            return value > bound
        if rule.op == ">=":
            return value >= bound
        if rule.op == "<":
            return value < bound
        return value <= bound

    # -- state machine -------------------------------------------------------

    def _move(self, rule: AlertRule, state: _RuleState, to_state: str,
              now: float, value: float) -> None:
        state.transitions.append(Transition(
            ts=now, rule=rule.name, from_state=state.state,
            to_state=to_state, value=value))
        state.state = to_state
        if self.obs is not None:
            self.obs.transitions[rule.name, to_state].inc()
        self._publish_state(rule.name, to_state)

    def evaluate(self, now: float) -> None:
        """One evaluation pass at simulated time ``now``."""
        self.evaluations += 1
        for rule in self.rules:
            state = self.states[rule.name]
            value = self._value(rule)
            state.last_value = value
            breached = self._breached(rule, value)
            if self.obs is not None:
                self.obs.evaluations[rule.name].inc()
            if state.state == "resolved":
                # Transient: one evaluation wide, then back to rest.
                self._move(rule, state, "inactive", now, value)
            if state.state == "inactive":
                if breached:
                    state.since = now
                    if now - state.since >= rule.for_s:
                        # Zero hold-down fires immediately.
                        self._move(rule, state, "firing", now, value)
                    else:
                        self._move(rule, state, "pending", now, value)
            elif state.state == "pending":
                if not breached:
                    state.since = None
                    self._move(rule, state, "inactive", now, value)
                elif state.since is not None and now - state.since >= rule.for_s:
                    self._move(rule, state, "firing", now, value)
            elif state.state == "firing":
                if not breached:
                    state.since = None
                    self._move(rule, state, "resolved", now, value)

    # -- queries -------------------------------------------------------------

    def state_of(self, rule_name: str) -> str:
        return self.states[rule_name].state

    def transitions(self) -> List[Transition]:
        """Every transition of every rule, in simulated-time order."""
        out: List[Transition] = []
        for rule in self.rules:
            out.extend(self.states[rule.name].transitions)
        out.sort(key=lambda t: (t.ts, t.rule))
        return out

    def firing(self) -> List[str]:
        return [r.name for r in self.rules
                if self.states[r.name].state == "firing"]

    def snapshot(self) -> dict:
        """Engine state as plain data for the dashboard/JSON artifact."""
        return {
            "evaluations": self.evaluations,
            "rules": [
                {
                    "name": rule.name,
                    "kind": rule.kind,
                    "metric": rule.metric,
                    "state": self.states[rule.name].state,
                    "last_value": self.states[rule.name].last_value,
                    "description": rule.description,
                    "transitions": [
                        {"ts": t.ts, "from": t.from_state,
                         "to": t.to_state, "value": t.value}
                        for t in self.states[rule.name].transitions
                    ],
                }
                for rule in self.rules
            ],
        }
