"""Token buckets: modeled waits, debt bounding, SLO rate scaling."""

import pytest

from repro.qos.tokens import TokenBucket


def test_burst_is_free():
    bucket = TokenBucket(rate=10.0, burst=5.0)
    assert bucket.consume(5.0, now=0.0) == 0.0


def test_over_rate_consume_returns_the_payback_wait():
    bucket = TokenBucket(rate=10.0, burst=5.0)
    bucket.consume(5.0, now=0.0)
    # 5 tokens in the red at 10/s: half a second to pay back.
    assert bucket.consume(5.0, now=0.0) == pytest.approx(0.5)


def test_refill_caps_at_burst():
    bucket = TokenBucket(rate=10.0, burst=5.0)
    bucket.consume(5.0, now=0.0)
    # After 10 s of idle refill the bucket holds burst, not 100 tokens.
    assert bucket.consume(5.0, now=10.0) == 0.0
    assert bucket.consume(0.5, now=10.0) > 0.0


def test_debt_is_bounded():
    bucket = TokenBucket(rate=10.0, burst=5.0)
    assert TokenBucket.MAX_DEBT_S == 0.1
    # One huge request pays its own full wait...
    assert bucket.consume(1000.0, now=0.0) == pytest.approx(99.5)
    # ...but the *carried* debt is capped: the next small consume waits
    # at most MAX_DEBT_S plus its own share, not 99 seconds.
    assert bucket.consume(1.0, now=0.0) == pytest.approx(0.2)


def test_sustained_producer_is_paced_to_rate():
    bucket = TokenBucket(rate=100.0, burst=1.0)
    total_wait = sum(bucket.consume(1.0, now=0.0) for _ in range(10))
    # 10 tokens minus the 1-token burst at 100/s, with debt snapping
    # each consume back to at most MAX_DEBT_S in the red.
    assert total_wait > 0.0


def test_scale_rate_applies_floor():
    bucket = TokenBucket(rate=10.0, burst=5.0)
    assert bucket.scale_rate(0.5) == 5.0
    assert bucket.scale_rate(0.01, floor=2.0) == 2.0


def test_invalid_arguments_rejected():
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(ValueError):
        TokenBucket(rate=1.0, burst=0.0)
    bucket = TokenBucket(rate=1.0, burst=1.0)
    with pytest.raises(ValueError):
        bucket.consume(-1.0, now=0.0)
    with pytest.raises(ValueError):
        bucket.scale_rate(0.0)
