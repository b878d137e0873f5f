"""Per-server send pacing.

A scan must never exceed its queries-per-second cap no matter how many
domain probers share the server, so the limiter serializes senders onto
a schedule with at least 1/rate seconds between consecutive sends.
Works against any injected clock.
"""

import threading

from .clock import Clock


class RateLimiter:
    """Paces acquire() calls to at most rate_qps per second."""

    def __init__(self, rate_qps: float, clock: Clock):
        if not 0 < rate_qps < float("inf"):
            raise ValueError(f"rate must be finite and positive: {rate_qps}")
        self.interval = 1.0 / rate_qps
        self.clock = clock
        self._next_free = float("-inf")
        self._lock = threading.Lock()

    def acquire(self) -> float:
        """Block until a send slot is available; returns the slot time."""
        with self._lock:
            now = self.clock.now()
            slot = max(now, self._next_free)
            self._next_free = slot + self.interval
        self.clock.sleep_until(slot)
        return slot
