"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared cloud VM, other tenants slow this process down by 1.3-2.3x for
stretches that last from seconds to several minutes, often longer than a
whole benchmark run.  No statistic over one run's own timings removes a
slowdown that covers the run.  So the harness times this kernel next to
every job, both in thread CPU time, and reports each job time scaled by
``REF_NOMINAL_S / ref``: CPU seconds at the speed the machine had when the
kernel took ``REF_NOMINAL_S``.

The kernel intersects and unites two sets of some 20k and 30k integers.
Its working set is larger than a core's private caches, so the cache
state a job leaves behind barely moves it.  On a 2-CPU VM, its slowdown
tracked the jobs' own: a log-log slope of 0.9-1.1 on both workloads, where
small kernels that stay in cache slowed about twice as much as the jobs
did.  It imports nothing from ``tangles``, so a change to the program
cannot move it.
"""

from __future__ import annotations

import statistics
from time import thread_time

#: the kernel's time between jobs on an unloaded 2-CPU Xeon VM (Python
#: 3.11); scaled job times read in seconds at that speed
REF_NOMINAL_S = 0.0019

_EVENS = frozenset(range(0, 60000, 2))
_THIRDS = frozenset(range(0, 60000, 3))


def ref_time() -> float:
    """CPU seconds one run of the reference kernel takes now."""
    start = thread_time()
    len(_EVENS & _THIRDS) + len(_EVENS | _THIRDS)
    return thread_time() - start


def scaled(seconds: float, refs) -> float:
    """``seconds`` at nominal speed, given kernel times taken around it."""
    return seconds * REF_NOMINAL_S / statistics.median(refs)
