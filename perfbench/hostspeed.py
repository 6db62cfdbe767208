"""Host-speed calibration for the timed runs.

The benchmark runs on shared machines whose speed drifts by tens of per cent
over seconds to minutes, as other tenants come and go.  Around every timed
call the benchmark times a fixed calibration task: the benchmark's own
plain-Python reference enumerator (no evtforge code) on a fixed machine.  It
does dict, tuple and generator work of the same kind as evtforge.  A timing
is then reported at the reference host speed:

    reported = measured × REFERENCE_S / calibration time around the call

On the reference machine at its usual speed the two are equal.  The factor
cancels host drift that affects evtforge and the calibration task alike.
Over 8 passes of bridge-refine on a shared 2-vCPU VM the pass time varied
with a coefficient of variation of 0.12 as measured and 0.046 normalised.
"""

from __future__ import annotations

import random
from time import perf_counter

import workloads

# calibration time of the reference machine (2-vCPU VM, Python 3.11)
REFERENCE_S = 0.0006

_MACHINE = workloads.wide_machine(random.Random(0), 2, 1, 1, 1, 3)
_REF = workloads.WideRef(_MACHINE)
_EVENT = _MACHINE["events"][0]["name"]


def _task() -> float:
    t0 = perf_counter()
    _REF.relation_count(_EVENT)
    return perf_counter() - t0


def sample() -> float:
    """Calibration time now: the faster of two runs of the task."""
    return min(_task(), _task())


def normalise(seconds: float, before: float, after: float) -> float:
    """A measured time at the reference host speed, given calibration
    samples taken just before and just after it."""
    return seconds * REFERENCE_S * 2 / (before + after)
