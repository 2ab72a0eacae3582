"""Calibration probe: a fixed piece of pure-Python work timed next to every
measurement, so that latencies can be reported at a reference speed.

On a shared host the same code runs at very different speeds from one
moment to the next: on the machine this benchmark was built on, a loop of
this kind ran 1.0-2.0 times its fastest time, switching within
milliseconds and drifting over minutes. Timing the probe just before and
just after a request and scaling the request's wall time by
REFERENCE_S / (probe time) cancels most of that drift. The probe mixes the
operations gbsep spends its time on (big-integer arithmetic, tuple-keyed
dicts, Fraction arithmetic) so that it slows down the way gbsep does; it
never calls gbsep, so a faster gbsep does not make the probe faster.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 100e-6   # one probe round takes this long on the reference machine
ROUNDS = 3             # rounds per probe


def _round() -> None:
    acc = 0
    table = {}
    for i in range(300):
        acc += (i * 7919) ** 3 % 1000003
        table[(i & 63, acc & 7)] = (acc, i)
    f = Fraction(1)
    for i in range(1, 12):
        f = f * Fraction(i, i + 2) + Fraction(1, i)


def seconds() -> float:
    """Mean wall time of one probe round, over ROUNDS rounds."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return (time.perf_counter() - t0) / ROUNDS


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two probes into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
