"""The host's speed during a pass, measured by a fixed chunk of Python work.

On a shared VM the same pass can take 1.6 times longer when other tenants
load the host, and the slow periods last from seconds to minutes, so pass
times from separate runs spread widely.  A `HostProbe` used as a context
manager around a pass times a fixed reference chunk every INTERVAL seconds
from a SIGALRM handler, so the chunks sample the host in the same moments
as the pass.  Dividing the pass time by the median chunk time gives the
pass's cost in units of the reference chunk, which the host's state moves
much less than it moves the pass time.  A change to cylq does not change
the chunk, so it moves the ratio as much as it moves the pass time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL = 0.02   # seconds of pass time between two chunks
MODULUS = 2_147_483_647


class HostProbe:
    """Times the reference chunk while the `with` block runs."""

    def __init__(self):
        self.times: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._old = None

    @staticmethod
    def chunk():
        """The reference work: dict updates with modular multiply-adds, the
        inner loop of cylq's witness search and support solves.  Of the
        chunks tried (list reads with Fraction arithmetic, big-integer
        products and this one), its time tracked the pass times of all
        four workloads most closely."""
        row = {}
        for k in range(150):
            row[k * 17 % 211] = (row.get(k, 1) * 48271 + k) % MODULUS
        return row

    def _tick(self, signum, frame):
        if self._busy:     # a tick that arrives during a chunk is dropped
            return
        self._busy = True
        t0 = perf_counter()
        self.chunk()
        self.times.append(perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self.times = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        # seconds the chunks took, to subtract from the block's time
        self.spent = sum(self.times)
        if not self.times:   # a block shorter than INTERVAL
            self._tick(None, None)

    def chunk_s(self) -> float:
        """Median chunk time during the block."""
        return statistics.median(self.times)
