"""Machine-speed calibration for the stack benchmark.

A shared box drifts: the same pure-Python work takes 5-15 % longer or
shorter from one minute to the next (frequency scaling, noisy
neighbours stealing cache), and each vCPU drops for a second or two at a
time into a state about 1.6x slower.  CPU time moves with wall time, so
it is machine speed rather than descheduling.  The benchmark therefore
times a fixed pure-Python loop after every round and reports times
*relative to the fastest that loop ran during the run*:

    calibrated = seconds * CAL_REF_S / floor(every loop time of the run)

The work being timed is taken at its own floor too (each unit slot's
fastest repetition, see ``driver.slot_floors``): both floors are
reached whenever the box is in its fast state, however much of the run
it spent there, where a median moves with the share of the run that was
disturbed.

The loop uses the same interpreter features the simulator leans on —
generator resumes, ``heapq`` traffic, dict updates and short-lived small
objects — so a change in how fast the box runs Python moves both alike.
It cancels machine-speed drift; it does not cancel cache or
memory-bandwidth interference, and calibrated numbers are comparable on
one machine only.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import List

#: Calibrated times are scaled as if one loop took this long.  Fixed in
#: the benchmark (not measured) so numbers from different runs share one
#: scale; it is roughly what the loop takes on the 2-core reference box.
CAL_REF_S = 0.025

#: Loops timed after every round, with the program quiescent.
ROUND_LOOPS = 3

#: Loops timed before and after a set-up; the best one counts.
SETUP_LOOPS = 5

#: The floor is this quantile of a run's loop times, not their minimum:
#: a run times a few hundred loops and a few dozen repetitions of each
#: unit slot, so the fastest loop is a rarer event than the fastest
#: repetition.
FLOOR_QUANTILE = 0.05

_LOOP_STEPS = 34000


class _Token:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _ticker(start: int):
    now = start
    while True:
        now += 7 + (now & 3)
        yield now


def cal_loop() -> int:
    """One fixed unit of pure-Python work; returns a checksum."""
    heap: list = []
    table: dict = {}
    tickers = [_ticker(k) for k in range(8)]
    for step in range(_LOOP_STEPS):
        due = next(tickers[step & 7])
        heappush(heap, (due, step, _Token(step)))
        if step & 1:
            when, index, token = heappop(heap)
            table[index & 255] = token.value + when
    return len(heap) + len(table)


def loops(count: int) -> List[float]:
    """Seconds each of ``count`` calibration loops takes right now."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        cal_loop()
        times.append(time.perf_counter() - start)
    return times

