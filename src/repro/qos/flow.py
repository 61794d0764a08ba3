"""One VM's QoS flow handle: arbitration, throttles, telemetry.

A :class:`QosFlow` is created by the Firecracker launcher for every VM
whose :class:`~repro.virt.opts.OptimizationConfig` carries a
:class:`~repro.qos.config.QosConfig`.  The VM's frontends call
:meth:`on_kick` on every transferq roundtrip (dispatch wait + token
throttles) and its backend calls :meth:`on_bus` on every data transfer
(bandwidth-share stretch) — both return modeled durations the caller
folds into its op time; neither touches the clock.
"""

from __future__ import annotations

from typing import Optional

from repro.hardware.timing import BandwidthArbiter
from repro.observability import MetricsRegistry
from repro.observability.instruments import QOS, bind
from repro.observability.spans import SpanRecorder
from repro.qos.config import QosConfig
from repro.qos.tokens import TokenBucket


class QosFlow:
    """The live QoS state of one VM (see ``docs/qos.md``)."""

    def __init__(self, flow_id: str, config: QosConfig,
                 arbiter: BandwidthArbiter, loop,
                 metrics: Optional[MetricsRegistry] = None,
                 spans: Optional[SpanRecorder] = None) -> None:
        self.flow_id = flow_id
        self.config = config
        self.arbiter = arbiter
        self.loop = loop
        self.tenant = config.tenant or flow_id
        self._flow = arbiter.register(
            flow_id, weight=config.weight, demand=config.demand,
            mean_op_s=config.mean_op_s)
        self._kick_bucket = (
            TokenBucket(config.kick_rate_per_s, config.kick_burst)
            if config.kick_rate_per_s is not None else None)
        self._byte_bucket = (
            TokenBucket(config.bytes_per_s, config.byte_burst)
            if config.bytes_per_s is not None else None)
        self._byte_rate_floor = (
            config.bytes_per_s if config.bytes_per_s is not None else 0.0)
        self.obs = (bind(metrics, QOS, spans=spans, vm=flow_id)
                    if metrics is not None else None)
        self.spans = spans
        if self.obs is not None:
            self.obs.weight.set(config.weight)
        self.closed = False

    # -- knobs (SLO actuation) ----------------------------------------------

    @property
    def weight(self) -> float:
        return self._flow.weight

    def set_weight(self, weight: float) -> None:
        self.arbiter.set_weight(self.flow_id, weight)
        if self.obs is not None:
            self.obs.weight.set(weight)

    def scale_byte_rate(self, factor: float,
                        min_scale: float = 0.25) -> Optional[float]:
        """Tighten (or relax) the byte throttle; ``None`` if unthrottled."""
        if self._byte_bucket is None:
            return None
        floor = self._byte_rate_floor * min_scale
        return self._byte_bucket.scale_rate(factor, floor=floor)

    # -- the two data-plane hooks -------------------------------------------

    def _throttle(self, bucket: Optional[TokenBucket], amount: float,
                  resource: str, now: float) -> float:
        if bucket is None or amount <= 0:
            return 0.0
        wait = bucket.consume(amount, now)
        if wait > 0:
            if self.obs is not None:
                self.obs.throttled[resource].inc()
                self.obs.throttle_wait[resource].observe(wait)
            if self.spans is not None:
                self.spans.event("qos.throttle", "qos", wait,
                                 vm=self.flow_id, resource=resource)
        return wait

    def _count_arbitration(self, mode: str, wait: float, cause: str) -> None:
        if self.obs is not None:
            self.obs.arbitrations[mode].inc()
            self.obs.arbitration_wait[cause].observe(
                wait, exemplar=self.obs.exemplar())

    def on_kick(self, kind: str, payload_bytes: int, now: float) -> float:
        """Frontend hook, once per transferq roundtrip.

        Returns the modeled wait: token-bucket throttles (enforced flows
        only) plus the event loop's dispatch delay for this flow.
        """
        wait = 0.0
        if self.config.enforce:
            wait += self._throttle(self._kick_bucket, 1.0, "kicks", now)
            wait += self._throttle(self._byte_bucket, float(payload_bytes),
                                   "bytes", now + wait)
        queue_s, mode = self.loop.dispatch(self.flow_id, now + wait,
                                           fair=self.config.enforce)
        self._count_arbitration(mode, queue_s, "queue")
        if queue_s > 0 and self.spans is not None:
            self.spans.event("qos.arbitrate", "qos", queue_s,
                             vm=self.flow_id, kind=kind, mode=mode,
                             cause="queue")
        return wait + queue_s

    def on_bus(self, bus_seconds: float, now: float) -> float:
        """Backend hook, once per data transfer of ``bus_seconds``.

        Returns the bandwidth-sharing stretch and accounts the flow's
        own usage (stretch included — a slowed transfer occupies the bus
        longer) into the arbiter's demand window.
        """
        share = self.arbiter.bus_share(self.flow_id, bus_seconds, now,
                                       fair=self.config.enforce)
        self.arbiter.record(self.flow_id, bus_seconds + share, now)
        if share > 0:
            mode = "wfq" if self.config.enforce else "fifo"
            self._count_arbitration(mode, share, "share")
            if self.spans is not None:
                self.spans.event("qos.arbitrate", "qos", share,
                                 vm=self.flow_id, mode=mode, cause="share")
        return share

    def intra_contention(self, base: float, now: float) -> float:
        """Neighbor-aware replacement for the fixed contention factor."""
        return self.arbiter.contention_factor(
            self.flow_id, base, now, fair=self.config.enforce)

    def close(self) -> None:
        """Unregister from the arbiter (VM shutdown)."""
        if not self.closed:
            self.arbiter.unregister(self.flow_id)
            self.closed = True
