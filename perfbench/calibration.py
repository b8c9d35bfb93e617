"""Machine-speed calibration for timings on a shared, noisy machine.

On a virtual machine whose cores are shared with other tenants, the same
pure-Python call can take 1.7 times longer for tens of seconds at a time.  A
fixed calibration job, timed just before and just after each call, measures
how fast the machine runs right then; dividing the call's time by it cancels
most of that drift.  Multiplying by the job's time on the reference machine
turns the ratio back into seconds at the reference speed.

The job is pure Python in the program's own style: elimination mod 3 over
every fill of a small matrix, with Fraction results.  It does not use the
program, so no change to the program can change it.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

# calibrate() on the reference machine, one Intel Xeon vCPU at 2.1 GHz
# (Python 3.11), in a quiet period.
REFERENCE_S = 0.040


def calibrate() -> float:
    """Seconds taken by the fixed calibration job, about 40 ms at reference speed."""
    start = time.perf_counter()
    best = None
    for fill in itertools.chain.from_iterable(itertools.product(range(3), repeat=7) for _ in range(2)):
        rows = [[1, fill[0], fill[1], 0, fill[2]], [0, 1, fill[3], fill[4], 0], [fill[5], 0, 1, fill[6], 1]]
        rank = 0
        for col in range(5):
            piv = next((i for i in range(rank, 3) if rows[i][col]), None)
            if piv is None:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            prow = [(x * rows[rank][col]) % 3 for x in rows[rank]]
            rows[rank] = prow
            for i in range(3):
                if i != rank and rows[i][col]:
                    c = rows[i][col]
                    rows[i] = [(a - c * b) % 3 for a, b in zip(rows[i], prow)]
            rank += 1
        h = Fraction(5 - rank, 3)
        if best is None or h < best:
            best = h
    return time.perf_counter() - start


class SpeedClock:
    """Converts wall times of consecutive calls to reference seconds.

    Each call is bracketed by calibrations; the one after a call is the one
    before the next, so every call costs one calibration.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.samples = [self.last]

    def reference_seconds(self, elapsed: float) -> float:
        after = calibrate()
        self.samples.append(after)
        speed = (self.last + after) / 2
        self.last = after
        return elapsed * REFERENCE_S / speed
