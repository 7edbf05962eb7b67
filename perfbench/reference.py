"""A fixed reference kernel that measures how fast the machine is right now.

The benchmark runs on shared machines whose speed swings by a third or more
over seconds to minutes, in CPU time as much as in wall time.  Every timing
the benchmark gates on is therefore rescaled to a fixed reference speed: a
duration is multiplied by ``NOMINAL_S`` over the time this kernel took next
to it.  The kernel is the benchmark's own exact arithmetic, of the same kind
as the library's (Fractions and big integers in small matrices), and uses
nothing from qibg, so a change to the library moves the rescaled times
exactly as much as it moves the raw ones.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

# The kernel's time on the machine the benchmark was written on, in a
# typical state: rescaled timings read as seconds on that machine.
NOMINAL_S = 0.001
SPAN = 3  # samples taken on each side of a timed call to rescale it

_N = 6
_rng = random.Random(20190806)
_M = tuple(tuple(_rng.randrange(-10 ** 25, 10 ** 25) for _ in range(_N))
           for _ in range(_N))


def _kernel():
    a = [[Fraction(x) for x in row] for row in _M]
    for k in range(_N):
        for i in range(k + 1, _N):
            f = a[i][k] / a[k][k]
            for j in range(k, _N):
                a[i][j] -= f * a[k][j]
    b = [[sum(_M[i][t] * _M[t][j] for t in range(_N)) for j in range(_N)]
         for i in range(_N)]
    return [[sum(b[i][t] * _M[t][j] for t in range(_N)) for j in range(_N)]
            for i in range(_N)]


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


def samples(n: int) -> list:
    """``n`` samples, after one run that warms the kernel up."""
    _kernel()
    return [sample() for _ in range(n)]


def scale(samples) -> float:
    """Factor that turns a duration measured next to ``samples`` into
    seconds at the reference speed."""
    return NOMINAL_S / statistics.fmean(samples)


def around(samples: list, i: int) -> list:
    """The samples next to a call that ran after ``samples[i - 1]`` and
    before ``samples[i]``: up to ``SPAN`` on each side."""
    return samples[max(0, i - SPAN):i + SPAN]
