"""Token-bucket throttles with *modeled* wait accounting.

A bucket never sleeps: :meth:`TokenBucket.consume` returns the simulated
wait the caller must fold into its operation's duration, keeping the
single-writer clock rule intact.  Debt-based pacing: a consume may drive
the bucket negative, and the wait is the time the refill needs to pay
the debt back — so a sustained over-rate producer is paced to exactly
``rate`` in the long run.
"""

from __future__ import annotations


class TokenBucket:
    """A classic token bucket over simulated time.

    ``rate`` tokens accrue per simulated second up to ``burst``; consume
    returns the modeled wait (0.0 when tokens cover the request).  Debt
    is bounded by ``MAX_DEBT_S`` seconds of refill so one huge request
    cannot poison every follow-up with an unbounded backlog.
    """

    #: Seconds of refill the carried debt is capped at.
    MAX_DEBT_S = 0.1

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"bucket rate must be positive, got {rate}")
        if burst <= 0:
            raise ValueError(f"bucket burst must be positive, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last = 0.0

    def _refill(self, now: float) -> None:
        dt = now - self._last
        if dt > 0:
            self.tokens = min(self.burst, self.tokens + dt * self.rate)
        self._last = max(self._last, now)

    def consume(self, n: float, now: float) -> float:
        """Take ``n`` tokens; returns the modeled wait in seconds."""
        if n < 0:
            raise ValueError(f"cannot consume {n} tokens")
        self._refill(now)
        self.tokens -= n
        if self.tokens >= 0:
            return 0.0
        wait = -self.tokens / self.rate
        # Bound the carried debt (not the returned wait): the *next*
        # consume starts from at most MAX_DEBT_S seconds in the red.
        self.tokens = max(self.tokens, -self.rate * self.MAX_DEBT_S)
        return wait

    def scale_rate(self, factor: float, floor: float = 0.0) -> float:
        """Multiply the refill rate (SLO actuation); returns the new rate."""
        if factor <= 0:
            raise ValueError(f"rate scale factor must be positive, got {factor}")
        self.rate = max(floor, self.rate * factor) if floor > 0 \
            else self.rate * factor
        return self.rate
