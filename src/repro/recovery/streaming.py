"""Stage A of the repair pipeline: windows, columnar decodes, accounting.

:meth:`~repro.recovery.executor.PlanExecutor.execute` repairs every
stripe through one two-stage pipeline; this module is the half that
never touches the tracer, the journal or the fault hooks:

- :func:`default_window` sizes a window from the chunk size against a
  fixed byte budget, so coordinator memory is O(window) regardless of
  stripe count;
- :func:`compute_window` performs every GF decode of a window in one
  columnar pass over its :class:`~repro.recovery.planner.WindowPlan`.
  The helper columns are in decode order (one term per helper chunk,
  the terms of a rack group adjacent, the groups of a stripe adjacent),
  each a row id into the chunk store's one matrix
  (:meth:`~repro.cluster.state.DataStore.rows`).  A stripe's repair, the
  XOR of its racks' partial decodes (Equation 7), is one sum over all
  its helpers, so unless partials are shipped the window's rebuilt
  chunks are one :func:`~repro.gf.vector.segment_dot` call over
  stripes; the truth check is one :func:`~repro.gf.vector.rows_equal`
  call.  How the kernels treat 256-byte and 4 MiB rows is their
  business — nothing here looks at the chunk size;
- :func:`window_coefficients` looks a window up in the code's
  :class:`~repro.erasure.code.DecodeTable` at once; a degraded read is
  a one-row window, and ``code.repair_vector`` reads the same entries.
- :func:`thread_stage` runs stage A on a thread pool, overlapping the
  executor's stage B, or on the calling thread (:func:`default_workers`
  says which); every window is one :func:`compute_window` call, so the
  outcome does not depend on where it runs.

Everything here is *pure computation* over read-only state: no tracer,
journal, or data-store mutation.  That is a hard requirement —
:func:`compute_window` may run on worker threads while the executor's
thread ships the oldest window (the tracer and the journal are not
thread-safe, so each stays on exactly one thread).  The GF kernels count
into the metrics registry from these threads; the registry's mutators
hold a lock, so the two stages overlap whether telemetry is on or off.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections.abc import Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.cpus import usable_cpus
from repro.gf.field import gf
from repro.gf.vector import _SHORT_ROW, rows_equal, segment_dot, xor_segments
from repro.recovery.planner import WindowPlan
from repro.recovery.solution import NO_HELPER

__all__ = [
    "WindowOutcome",
    "default_window",
    "default_workers",
    "compute_window",
    "thread_stage",
    "window_coefficients",
]

#: Bytes one window may hold in flight when the caller names no window.
WINDOW_BYTES = 2 << 20

#: What a stripe in flight costs besides its chunk: its solution, its
#: row of the window's columns and its decode buffers' headers.  At
#: 256 B chunks this, not the chunk, is what a window's memory is made
#: of.
STRIPE_OVERHEAD_BYTES = 4096


@dataclass
class WindowOutcome:
    """Everything stage B (shipping) needs about one decoded window.

    Attributes:
        rebuilt: per stripe, the reconstructed chunk (at small chunk
            sizes the rows of one result matrix).
        ok: per stripe, byte-exact match against ground truth.
        heads: ``(S, H)`` whether a group starts at a helper column:
            one group per rack when aggregated, one in all when direct.
        rack: ``(S, H)`` helper racks, the group keys (aggregated).
        partials: every group's partially decoded buffer, in window
            order (at small chunk sizes the rows of one matrix).
        first_partial: per stripe, the index of its first group.
        started / finished: the stage's wall-clock bounds.
        thread: which of :func:`thread_stage`'s threads decoded the
            window, numbered from 0 as they started.

    The four group fields are ``None`` unless partials were kept, for a
    walk of the stripes' checkpoint/delivery events (a journal,
    integrity verification or a fault-injecting subclass).
    """

    rebuilt: Sequence[np.ndarray]
    ok: list[bool]
    heads: np.ndarray | None
    rack: np.ndarray | None
    partials: Sequence[np.ndarray] | None
    first_partial: list[int] | None
    started: float
    finished: float
    thread: int = 0

    def partials_of(self, i: int) -> dict:
        """Stripe ``i``'s group key -> partially decoded buffer: its rack,
        or ``None`` for the one group of a direct repair."""
        first = self.first_partial[i]
        if self.rack is None:
            return {None: self.partials[first]}
        keys = self.rack[i, self.heads[i]].tolist()
        return {key: self.partials[first + j] for j, key in enumerate(keys)}


def default_window(chunk_size: int) -> int:
    """Stripes per window when the caller does not say.

    The window is the pipeline's memory bound, so it is sized in bytes:
    :data:`WINDOW_BYTES` over what one stripe holds in flight.  Paper
    sized chunks (1 MiB and up) get one stripe — stage A of the next
    still overlaps stage B of the last — and 256 B chunks get a few
    hundred, enough to amortise the per-window hand-off.
    """
    return max(1, WINDOW_BYTES // (chunk_size + STRIPE_OVERHEAD_BYTES))


def window_coefficients(code, win: WindowPlan) -> np.ndarray:
    """``(S, H)`` coefficients of ``win``'s helpers, 0 in unused slots:
    one lookup of the stripes' keys in the code's
    :class:`~repro.erasure.code.DecodeTable`, each coefficient read off
    its row by chunk number."""
    used = win.chunk != NO_HELPER
    chunk = np.where(used, win.chunk, 0).astype(np.int64)
    helper_mask = (np.left_shift(1, chunk) * used).sum(axis=1)
    table = code.decode_table
    keys = table.key(win.lost_chunk.astype(np.int64), helper_mask)
    return np.take_along_axis(table.rows(code, keys), chunk, axis=1) * used


def compute_window(
    code, data, win: WindowPlan, *, keep_partials: bool = False
) -> WindowOutcome:
    """Stage A: decode every stripe of one window in one columnar pass.

    With :func:`window_coefficients`, one
    :func:`~repro.gf.vector.segment_dot` call sums each stripe's
    helpers into its rebuilt chunk; to keep partials, it sums
    each group of Equation 7 instead (a rack when aggregated, the stripe
    when direct) and one :func:`~repro.gf.vector.xor_segments` call
    combines them.  The outcome is **in window order** and carries the
    stage's wall-clock start/end (this function must stay
    telemetry-free, see the module docstring).
    """
    start = time.perf_counter()
    used = win.chunk != NO_HELPER
    coefficients = window_coefficients(code, win)[used]
    heads = used.copy()  # where a segment starts
    keep_racks = keep_partials and win.aggregated
    heads[:, 1:] &= (win.rack[:, 1:] != win.rack[:, :-1]) & keep_racks
    rows = data.rows()
    helpers = data.row_ids(
        np.broadcast_to(win.stripe_id[:, None], used.shape)[used],
        win.chunk[used],
    )
    sums = segment_dot(
        gf(code.w), coefficients, rows, np.flatnonzero(heads[used]), ids=helpers
    )
    partials = first_partial = None
    if keep_partials:
        groups = heads.sum(axis=1)
        first_partial = (np.cumsum(groups) - groups).tolist()
        partials, sums = sums, xor_segments(sums, first_partial)
    return WindowOutcome(
        rebuilt=sums,
        ok=rows_equal(rows, sums, ids=data.row_ids(win.stripe_id, win.lost_chunk)),
        heads=heads if keep_partials else None,
        rack=win.rack if keep_racks else None,
        partials=partials,
        first_partial=first_partial,
        started=start,
        finished=time.perf_counter(),
    )


def default_workers(chunk_size: int) -> int:
    """Stage-A threads when the caller does not say.

    A window of short chunks (up to the kernels' ``_SHORT_ROW``, 4 KiB)
    is a few dozen short numpy calls: a thread decoding it mostly waits
    for the GIL behind the shipping thread, so none is started (``0``:
    decode on the calling thread).  Longer chunks spend their decode in
    kernels that release the GIL, so they get one thread per usable CPU
    (:func:`repro.cpus.usable_cpus`).  docs/PERFORMANCE.md has the sweep
    that put the crossover there.
    """
    return 0 if chunk_size <= _SHORT_ROW else usable_cpus()


@contextmanager
def thread_stage(code, data, *, keep_partials: bool, workers: int):
    """Stage A on ``workers`` threads: yields ``submit(window) -> future``.

    The next windows decode here while the caller ships the oldest one,
    each by one :func:`compute_window` call, so which thread decodes a
    window (the outcome names it) does not change its outcome.  The
    pool starts a thread only when a window finds none idle.  With
    ``workers=0`` no thread starts: ``submit`` decodes on the calling
    thread (thread ``0``) and returns a completed future, holding the
    decode's exception if it raised, as from a pool.
    """
    local = threading.local()
    numbers = itertools.count()

    def number_thread() -> None:
        local.thread = next(numbers)

    def decode(win: WindowPlan) -> WindowOutcome:
        outcome = compute_window(code, data, win, keep_partials=keep_partials)
        outcome.thread = local.thread
        return outcome

    if not workers:
        number_thread()

        def inline(win: WindowPlan) -> Future:
            future = Future()
            try:
                future.set_result(decode(win))
            except Exception as exc:
                future.set_exception(exc)
            return future

        yield inline
        return
    pool = ThreadPoolExecutor(max_workers=workers, initializer=number_thread)
    try:
        yield lambda win: pool.submit(decode, win)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
