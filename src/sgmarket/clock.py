"""Virtual and wall clocks.

Services read time through this interface so the simulation harness can own
time completely: a :class:`VirtualClock` advances only when told to, which is
what makes scenario runs replayable.
"""

from __future__ import annotations

import threading
import time


class VirtualClock:
    """Logical seconds that advance only via :meth:`advance`."""

    def __init__(self):
        self._now = 0
        self._lock = threading.Lock()

    def now(self) -> int:
        with self._lock:
            return self._now

    def advance(self, dt: int) -> int:
        if dt < 0:
            raise ValueError("dt must be >= 0")
        with self._lock:
            self._now += dt
            return self._now


class WallClock:
    """Monotonic wall time in whole seconds since clock creation."""

    def __init__(self):
        self._origin = time.monotonic()

    def now(self) -> int:
        return int(time.monotonic() - self._origin)
