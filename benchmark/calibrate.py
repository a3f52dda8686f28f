"""The machine's current speed, from a fixed reference workload.

On a shared virtual machine other tenants slow every program by up to a
half, in phases that last from a fraction of a second to minutes, so a
run's raw host times mostly measure the phases it fell into. Between
frames the benchmark runs `reference`, fixed work that is not the
program's, made of the two kinds of work the frames spend their time on: a
pure-Python stack walk like the flood fill's, and fresh memory touched page
by page like the page faults of the program's numpy temporaries (nearly
half of a `step_track` frame is system time). Its time rises and falls
with the program's. Each frame's host time is then scaled by NOMINAL_S
over the reference's time around it: the result is the frame's host time
at the machine's nominal speed. On a 2-vCPU Xeon VM, 20 s windows of raw
frame times spread 0.10 (`step_track`) and 0.21 (`offline_vga`) as IQR
over median; scaled, 0.015 and 0.041.

Nothing here calls the program, so a change to the program cannot change
the reference.
"""

from __future__ import annotations

import mmap
import time
from bisect import bisect_right

# The reference's time on a 2-vCPU Xeon VM in a quiet moment; it only sets
# the scale, so the scaled times read as host times at that speed.
NOMINAL_S = 0.004
INTERVAL_S = 0.05  # between reference runs; each frame boundary may run one

_GRID = 64  # the stack walk's grid side
_MAPS = 2  # fresh mappings per run
_MAP_BYTES = 2 << 20
_PAGE = mmap.PAGESIZE


def reference() -> int:
    """Fixed work; returns a checksum so that nothing is optimised away."""
    seen = bytearray(_GRID * _GRID)
    stack = [0]
    visited = 0
    while stack:
        p = stack.pop()
        if seen[p]:
            continue
        seen[p] = 1
        visited += 1
        x, y = p % _GRID, p // _GRID
        if x + 1 < _GRID:
            stack.append(p + 1)
        if x > 0:
            stack.append(p - 1)
        if y + 1 < _GRID:
            stack.append(p + _GRID)
        if y > 0:
            stack.append(p - _GRID)
    for _ in range(_MAPS):
        with mmap.mmap(-1, _MAP_BYTES) as fresh:
            for offset in range(0, _MAP_BYTES, _PAGE):
                fresh[offset] = 1  # one page fault each
            visited += fresh[0]
    return visited


class Speed:
    """Reference timings of one round, and the scale they give each frame."""

    def __init__(self):
        self.t = []  # when each reference run ended
        self.s = []  # how long it took
        self.spent_s = 0.0

    def sample(self, force=False):
        """Run the reference if INTERVAL_S has passed since the last run."""
        now = time.perf_counter()
        if not force and self.t and now - self.t[-1] < INTERVAL_S:
            return
        reference()
        end = time.perf_counter()
        self.t.append(end)
        self.s.append(end - now)
        self.spent_s += end - now

    def scale(self, start):
        """NOMINAL_S over the mean time of the reference runs on either side
        of the frame that starts at `start`.

        A run at a frame boundary ends just before the boundary's clock
        read, so the first run after `start` is the one at the frame's end
        (or a later one).
        """
        after = bisect_right(self.t, start)
        before = max(after - 1, 0)
        after = min(after, len(self.t) - 1)
        return 2 * NOMINAL_S / (self.s[before] + self.s[after])

    def round_scale(self):
        """NOMINAL_S over the mean of all the round's reference runs."""
        return NOMINAL_S * len(self.s) / sum(self.s)
