"""Virtual/system clocks and the query-rate pacer."""

import time

import pytest

from snoopdns.clock import SystemClock, VirtualClock
from snoopdns.ratelimit import RateLimiter


class TestVirtualClock:
    def test_starts_at_zero_and_only_moves_forward(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.sleep(2.5)
        assert clock.now() == 2.5
        clock.sleep_until(10.0)
        assert clock.now() == 10.0
        clock.sleep_until(4.0)  # past deadlines are already met
        assert clock.now() == 10.0

    def test_negative_sleep_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().sleep(-1.0)

    def test_zero_sleep_is_a_no_op(self):
        clock = VirtualClock()
        clock.sleep(0.0)
        assert clock.now() == 0.0


class TestSystemClock:
    def test_now_tracks_wall_time(self):
        clock = SystemClock()
        assert abs(clock.now() - time.time()) < 1.0

    def test_short_sleep_blocks_about_right(self):
        clock = SystemClock()
        before = time.monotonic()
        clock.sleep(0.02)
        assert time.monotonic() - before >= 0.015

    def test_sleep_until_past_deadline_returns_immediately(self):
        clock = SystemClock()
        before = time.monotonic()
        clock.sleep_until(clock.now() - 5.0)
        assert time.monotonic() - before < 0.2


class TestRateLimiter:
    def test_slots_are_spaced_by_the_interval(self):
        clock = VirtualClock()
        limiter = RateLimiter(10.0, clock)
        slots = [limiter.acquire() for _ in range(5)]
        assert slots == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])
        assert clock.now() == pytest.approx(0.4)

    def test_idle_time_earns_no_burst_credit(self):
        clock = VirtualClock()
        limiter = RateLimiter(10.0, clock)
        limiter.acquire()
        clock.sleep(10.0)
        first = limiter.acquire()
        second = limiter.acquire()
        assert first == pytest.approx(10.0)
        assert second == pytest.approx(10.1)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            RateLimiter(0.0, VirtualClock())
        with pytest.raises(ValueError):
            RateLimiter(-3.0, VirtualClock())

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_rate_must_be_finite(self, rate):
        # a nan or infinite rate would hand out every slot at once
        with pytest.raises(ValueError):
            RateLimiter(rate, VirtualClock())

    def test_sustained_rate_is_capped(self):
        clock = VirtualClock()
        limiter = RateLimiter(50.0, clock)
        slots = [limiter.acquire() for _ in range(200)]
        elapsed = slots[-1] - slots[0]
        assert 200 / (elapsed + 1 / 50.0) == pytest.approx(50.0, rel=1e-6)
