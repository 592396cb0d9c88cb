"""Host-speed probe: the yardstick every end-to-end time is scaled by.

The same request loop on a shared 2-vCPU VM drifts by 10-30% between
runs, and each vCPU speeds up and slows down on its own, within a second.
The probe is a fixed dictionary-lookup loop, the interpreter work the codec
is made of.  It allocates nothing and runs with the garbage collector
paused, and it takes about 2 ms, well under the interpreter's 5 ms thread
switch interval, so a background thread rarely splits it.  The load
generator runs it only while no request is in flight.
"""

import gc
import os
import time
from typing import List

#: Probe time, in ms, of the reference host that normalised figures are
#: reported at: the mean probe of a 2-vCPU x86-64 VM running Python 3.11.
REFERENCE_PROBE_MS = 2.5

_TABLE = {i * 7919: i for i in range(512)}
#: 40k lookups in a fixed scattered order, prebuilt so that the timed loop
#: creates no objects.  Integer keys hash the same in every process; string
#: hashing is salted per process, which would move the probe's own speed.
_SEQUENCE = tuple(((i * 197) % 512) * 7919 for i in range(40000))


def _loop_ms() -> float:
    table = _TABLE
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for key in _SEQUENCE:
            table[key]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed * 1e3


def probe_ms() -> List[float]:
    """One probe on each CPU the calling thread may run on, in ms.

    Each vCPU of a shared VM slows on its own, and the codec's executor
    threads may run on another CPU than the event loop that probes, so
    the calling thread visits every CPU for one probe each.
    """
    if not hasattr(os, "sched_setaffinity"):
        return [_loop_ms()]
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(_loop_ms())
    finally:
        os.sched_setaffinity(0, allowed)
    return times


def scale(probe: float) -> float:
    """Factor that turns a raw time on a host whose mean probe takes
    ``probe`` ms into a reference time."""
    return REFERENCE_PROBE_MS / probe
