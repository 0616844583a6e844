"""Host-speed probe: the reference the end-to-end op times are scaled to.

The benchmark gets a few cores of a shared host whose speed drifts by up
to a quarter over phases of 5 to 20 seconds (other tenants on sibling
hardware threads and on the memory bus; process CPU time drifts with wall
time, so it is not steal time). A ten-second run samples one or two such
phases, and raw op times of ten runs spread by 15 to 35 %.

The probe is fixed in-place numpy work on a preallocated 20 000-element
array (add, square root, sort: the mid-sized array work the ops do). It
allocates nothing, so its time does not depend on the heap the ops left
behind, and it calls no code of the library. Of the probes tried --
interpreter loops over dicts and sorts, allocating and in-place array
passes -- it tracked the ops best: across eight spmv-fig8 processes it
correlated at -0.8 with the pass rate and moved about as far (slope 1.1),
and scaling by it cut the spread of the rates from 0.10 to 0.06 (standard
deviation of the log).

The probe runs at every pass boundary, and a pass's op times are
multiplied by ``NOMINAL_S / probe`` with the mean of the two probes that
bracket the pass. Set-up is scaled the same way, by probes run before
the input set-ups and after the warm-up pass. A change to the library
moves op times and not the probe, so the scaled figures move with it:
they are seconds of a host that runs the probe in ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: The probe's median time on the two-vCPU x86 host the bounds were set
#: on, so that scaled figures there read like raw ones.
NOMINAL_S = 1.7e-3
#: Probe repeats at each pass boundary; the median is kept.
REPEATS = 9

_SOURCE = np.arange(20000.0)
_WORK = np.empty_like(_SOURCE)


def _probe_once() -> float:
    began = perf_counter()
    np.copyto(_WORK, _SOURCE)
    for _ in range(12):
        np.add(_WORK, 1.0, out=_WORK)
        np.sqrt(_WORK, out=_WORK)
        _WORK[::-1].sort()
    return perf_counter() - began


def probe() -> float:
    """Median seconds of ``REPEATS`` probe runs."""
    return statistics.median(_probe_once() for _ in range(REPEATS))
