"""Reference seconds: measured times scaled by the machine's speed at the time.

The benchmark runs on shared hosts whose speed drifts by half or more
within tens of seconds, and CPU time drifts with wall time, since the
slowdown comes from outside the process.  So the timing process runs a
fixed calibration loop (exact products of polynomials over Q, the kind of
work dfields does, written with ``oracle`` and not with dfields) between
every two items, and scales each item's measured time by ``REF_S`` over
the median loop time around it.  The speed changes within a tenth of a
second, so the loop runs that often; one run is noisy, so the median of a
few runs before and after an item is used.  While a child process runs a
set-up probe or a ladder rung, run.py runs the loop on the other core.  A reference second is the
time the work would take at the speed at which the loop takes ``REF_S``.
"""

import statistics
import time
from fractions import Fraction

import oracle as O

# the loop's fastest time, in seconds, on one core of the 2-vCPU Intel Xeon
# virtual machine the benchmark was written on
REF_S = 0.00087
# a stretch of work is scaled by the median loop time of the WINDOW
# calibrations before it and the WINDOW after it
WINDOW = 2


def _base():
    p = O.const(Fraction(1, 2), 2)
    for i, c in enumerate((3, 5, 7, 11)):
        p = O.add(p, O.scale(O.var(i % 2, 2), Fraction(1, c)))
    return p


BASE = _base()


def loop_once():
    q = BASE
    for _ in range(6):
        q = O.mul(q, BASE)
    return q


def loop_seconds():
    """The calibration loop's time, once."""
    t0 = time.perf_counter()
    loop_once()
    return time.perf_counter() - t0


def to_reference(measured, loops):
    """Reference seconds of consecutive stretches of work: ``measured[i]``
    ran between the calibrations ``loops[i]`` and ``loops[i + 1]``."""
    assert len(loops) == len(measured) + 1
    return [
        took * REF_S / statistics.median(loops[max(0, i + 1 - WINDOW) : i + 1 + WINDOW])
        for i, took in enumerate(measured)
    ]
