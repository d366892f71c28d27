"""Machine-speed reference for timings taken on a shared machine.

On a shared 2-core VM the speed of a core drifts by up to 2x within seconds
as neighbours come and go.  ``reference_s`` times one pass of a fixed loop
that calls nothing of koszul, so only the machine's current speed moves it,
never a change to the program.  A timed call is rescaled by the reference
passes taken just before and just after it:

    rescaled = seconds * (REF_NOMINAL_S / median pass) ** SLOWDOWN_EXPONENT

The exponent is measured, not assumed to be 1.  Between a quiet hour and a
busy one on this machine, ``operators-r8``, ``chain-r4`` and ``linfty-r8``
campaigns slowed by the pass time's slowdown to the power 0.77-0.86; within
single busy runs, log-log fits of campaign time on pass time gave lower
slopes, 0.44-0.71.  The campaign slows less than the small loop does, so a
plain ratio would over-correct; 0.8 keeps quiet and busy hours comparable,
which matters most when two sets of runs are taken at different times.
"""

from __future__ import annotations

import statistics
import time

# Median time of one reference pass on the benchmark's machine (2-core
# x86-64 VM, Python 3.11.7) while it was quiet: the speed timings are
# rescaled to.
REF_NOMINAL_S = 0.00045
SLOWDOWN_EXPONENT = 0.8
IDLE_PASSES = 5

_A = {(i % 5, i % 3, i % 7, i % 2): i + 1 for i in range(48)}
_B = {(i % 4, i % 6, i % 2, i % 3): 2 * i - 7 for i in range(36)}


def reference_s() -> float:
    """Seconds of one pass of a fixed sparse polynomial product.

    It spends its time where the exact kernel does: tuple exponents, dict
    accumulation and small-int arithmetic.
    """
    started = time.perf_counter()
    out = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return time.perf_counter() - started


def median_pass_s() -> float:
    """Median of IDLE_PASSES reference passes: the current speed of this core."""
    return statistics.median(reference_s() for _ in range(IDLE_PASSES))


def rescale(seconds: float, pass_s: float) -> float:
    """``seconds`` measured while one pass took ``pass_s``, at the nominal speed."""
    return seconds * (REF_NOMINAL_S / pass_s) ** SLOWDOWN_EXPONENT


class SpeedClock:
    """Times calls and rescales each by the reference passes around it."""

    def __init__(self):
        self.passes: list[float] = []

    def time(self, fn, *args):
        """Run ``fn(*args)``; return (result, seconds, rescaled seconds)."""
        before = median_pass_s()
        started = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - started
        after = median_pass_s()
        self.passes += [before, after]
        return result, elapsed, rescale(elapsed, (before + after) / 2)
