"""The transport retry policy, and the modeled costs of detecting and
waiting out a transient fault (the paper's ``CostModel`` has none).
"""

from __future__ import annotations

from repro.errors import TransientFaultError
from repro.observability.catalog import FAULT, bind

#: Re-sends of one request before its transient fault propagates.
MAX_TRANSPORT_RETRIES = 3
#: Backoff base: retry N waits ``TRANSPORT_RETRY_BACKOFF * 2**(N-1)``.
TRANSPORT_RETRY_BACKOFF = 200e-6
#: Integrity-check latency that detects a corrupted virtio-pim message.
TRANSPORT_CORRUPTION_DETECT = 50e-6
#: Watchdog timeout that detects a hung backend worker.
BACKEND_WATCHDOG_TIMEOUT = 5e-3


def retry_backoff_time(attempt: int) -> float:
    """Exponential backoff after transient fault ``attempt`` (1-based)."""
    return TRANSPORT_RETRY_BACKOFF * 2 ** (attempt - 1)


class TransportRetry:
    """A frontend's armed ``fault_hook``: sends each request in its place.

    ``before_send(frontend)`` runs before every attempt: it returns a
    stall and may raise a :class:`TransientFaultError`, which is retried
    — safe, since a transient fault fires before the backend does any
    work.  Detection, stall and backoff ride the returned duration;
    nothing here advances the clock.
    """

    def __init__(self, registry, before_send) -> None:
        self.obs = bind(registry, FAULT)
        self.before_send = before_send

    def __call__(self, frontend, span, send):
        """Retry ``send()`` (one exchange) within budget; close ``span``."""
        spans, obs = frontend.spans, self.obs
        penalty = 0.0
        attempts = 0
        try:
            while True:
                try:
                    penalty += self.before_send(frontend)
                    result, duration = send()
                    break
                except TransientFaultError as exc:
                    attempts += 1
                    penalty += exc.penalty_s
                    obs.detected[exc.kind, "frontend"].inc()
                    spans.mark_fault(exc.kind)
                    spans.log("transient_fault", "frontend", kind=exc.kind,
                              attempt=attempts, device=frontend.device_id)
                    if attempts > MAX_TRANSPORT_RETRIES:
                        # Caches may hold state the failed exchange was
                        # about to change.
                        frontend.invalidate("retry_exhausted")
                        raise
                    obs.retries["frontend"].inc()
                    penalty += retry_backoff_time(attempts)
        except BaseException:
            spans.end(span, duration=penalty, error=True)
            raise
        if attempts:
            obs.recovered["transient", "retry"].inc()
        total = duration + penalty
        spans.end(span, duration=total, retries=attempts)
        return result, total
