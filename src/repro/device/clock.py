"""The simulated clock.

All simulated time in the reproduction flows through one
:class:`SimClock`.  Components charge CPU time with :meth:`cpu`;
devices advance the clock when synchronous I/O completes.  Asynchronous
I/O is modeled by letting the device keep its *own* busy-until horizon
(see ``repro/device/block.py``) so CPU work and device transfers can
overlap, exactly the effect the paper's read-ahead and write-back
optimizations exploit.
"""

from __future__ import annotations


class SimClock:
    """A monotonically increasing simulated clock (seconds)."""

    __slots__ = ("now", "cpu_time", "io_wait")

    def __init__(self) -> None:
        self.now = 0.0
        #: Total CPU seconds charged (subset of ``now``).
        self.cpu_time = 0.0
        #: Total seconds spent waiting on device completions.
        self.io_wait = 0.0

    def cpu(self, seconds: float) -> None:
        """Charge ``seconds`` of CPU work."""
        if seconds <= 0.0:
            return
        self.now += seconds
        self.cpu_time += seconds

    def wait_until(self, deadline: float) -> None:
        """Block (advance the clock) until ``deadline`` if in the future."""
        if deadline > self.now:
            self.io_wait += deadline - self.now
            self.now = deadline

    def reset(self) -> None:
        """Rewind the clock to zero (new experiment)."""
        self.now = 0.0
        self.cpu_time = 0.0
        self.io_wait = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimClock(now={self.now:.6f}s cpu={self.cpu_time:.6f}s "
            f"io_wait={self.io_wait:.6f}s)"
        )
