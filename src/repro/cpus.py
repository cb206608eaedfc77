"""How many threads the package's parallel work runs on.

One rule, written once: a pool runs one thread per CPU this process may
use.  Stage A of a repair of chunks longer than 4 KiB
(:mod:`repro.recovery.streaming`) and the encode of a data store's
stripe blocks (:mod:`repro.cluster.state`) both size their thread pools
by it.  It sits below both so neither
imports the other for it.
"""

from __future__ import annotations

import os

__all__ = ["usable_cpus"]


def usable_cpus() -> int:
    """How many CPUs this process may run on.

    The size of its affinity mask, or the machine's CPU count where
    there is no affinity call.  It is the default number of stage-A
    threads for chunks longer than 4 KiB
    (:func:`repro.recovery.streaming.default_workers`) and the number
    of the store build's encode threads.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None:
        return os.cpu_count() or 1
    return len(affinity(0))
