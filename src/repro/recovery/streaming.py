"""Stage A of the repair pipeline: windows, columnar decodes, accounting.

:meth:`~repro.recovery.executor.PlanExecutor.execute` repairs every
stripe through one two-stage pipeline; this module is the half that
never touches the tracer, the journal or the fault hooks:

- :func:`default_window` sizes a window from the chunk size against a
  fixed byte budget; the planner cuts the solution's columns into
  windows of that many stripes
  (:meth:`~repro.recovery.solution.SolutionColumns.windows`), so
  coordinator memory is O(window) regardless of stripe count;
- :func:`compute_window` performs every GF decode of a window in one
  columnar pass over its :class:`~repro.recovery.planner.WindowPlan`.
  The window's helper columns are already in decode order — one term
  per helper chunk, the terms of one rack group adjacent (a *segment*),
  the segments of one stripe adjacent — and each is a row id into the
  chunk store's one matrix (:meth:`~repro.cluster.state.DataStore.rows`),
  so every per-rack partial decode (Equation 7) of the window is a
  single :func:`~repro.gf.vector.segment_dot` call, every final combine
  a single :func:`~repro.gf.vector.xor_segments` call and the truth
  check a single :func:`~repro.gf.vector.rows_equal` call; how those
  treat 256-byte rows and 4 MiB rows differently is the kernels'
  business — nothing here looks at the chunk size;
- the per-signature decode table is memoised in the named
  :data:`REPAIR_GROUP_CACHE`, looked up once per distinct signature of
  a window, whose hit/miss rates surface through the
  :mod:`repro.obs` metrics registry (the hit rate is how often stripes
  share a repair vector); a window's misses get their repair vectors
  from one batched solve (:func:`_coefficients`);
- :func:`thread_stage` runs stage A on a thread pool, overlapping the
  executor's stage B, or on the calling thread; every window is still
  one :func:`compute_window` call, so the outcome does not depend on
  where it runs.  :func:`default_workers` is the executor's default:
  one thread per usable CPU for chunks longer than the kernels' short
  rows, and none for short ones, whose decode is mostly interpreter
  time that a second thread would spend waiting for the GIL.

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

from repro.cache import BoundedCache
from repro.cpus import usable_cpus
from repro.gf.field import gf
from repro.gf.vector import _SHORT_ROW, rows_equal, segment_dot, xor_segments
from repro.recovery.planner import WindowPlan
from repro.recovery.solution import NO_HELPER

__all__ = [
    "REPAIR_GROUP_CACHE",
    "WindowOutcome",
    "default_window",
    "default_workers",
    "compute_window",
    "thread_stage",
]

#: Bytes one window may hold in flight when the caller names no window.
WINDOW_BYTES = 2 << 20

#: What a stripe in flight costs besides its chunk: its solution, its
#: row of the window's columns and its decode buffers' headers.  At
#: 256 B chunks this, not the chunk, is what a window's memory is made
#: of.
STRIPE_OVERHEAD_BYTES = 4096

#: Memoised per-signature decode tables, keyed by (code id, signature)
#: (see :func:`_code_id`).  Named, so the cache self-registers with the
#: metrics registry: its hit rate quantifies how often stripes share a
#: repair vector and shows up in ``repro-car metrics`` next to the GF
#: table caches.
REPAIR_GROUP_CACHE = BoundedCache(4096, name="exec.repair_groups")

#: (code, repair mode) -> a small int naming it in cache keys.
_CODE_IDS: dict = {}
_NEXT_CODE_ID = itertools.count()


def _code_id(code, aggregated: bool) -> int:
    """A small int for one (code, repair mode), so a window hashes its
    code once, not once per signature.  The code itself is part of the
    key: two codes of one shape (say the Vandermonde and Cauchy RS
    constructions) repair with different coefficients."""
    # One atomic setdefault, so two threads never share an id.
    return _CODE_IDS.setdefault((code, aggregated), next(_NEXT_CODE_ID))


@dataclass
class WindowOutcome:
    """Everything stage B (shipping) needs about one decoded window.

    Attributes:
        rebuilt: per stripe, the reconstructed chunk (at small chunk
            sizes the rows of one result matrix).
        ok: per stripe, byte-exact match against ground truth.
        heads: ``(S, H)`` whether a group starts at a helper column:
            one group per rack when aggregated, one in all when direct.
        rack: ``(S, H)`` helper racks, the group keys; ``None`` (direct).
        partials: every group's partially decoded buffer, in window
            order (at small chunk sizes the rows of one matrix); only
            kept when the executor walks the stripes'
            checkpoint/delivery events (a journal, integrity
            verification or a fault-injecting subclass).
        first_partial: per stripe, the index of its first group.
        started / finished: the stage's wall-clock bounds (the executor
            emits them as a pipeline span).
        thread: which of :func:`thread_stage`'s threads decoded the
            window, numbered from 0 in the order they started (0 when
            it decoded on the calling thread).
    """

    rebuilt: Sequence[np.ndarray]
    ok: list[bool]
    heads: np.ndarray
    rack: np.ndarray | None
    partials: Sequence[np.ndarray] | None
    first_partial: list[int]
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


def _coefficients(code, signatures: Sequence[bytes], width: int) -> np.ndarray:
    """The decode-table rows of the given signatures, read from their
    own bytes: each helper column's repair coefficient, padding 0.

    A signature starts with the lost chunk and the ``width`` helper
    columns, so it fixes the repair vector.  Every row's vector comes
    from one :meth:`~repro.erasure.code.ErasureCode.repair_vectors` call
    per helper count (one call for an MDS code), over the helpers in
    ascending order.
    """
    keys = np.frombuffer(b"".join(signatures), dtype=np.int32).reshape(
        len(signatures), -1
    )
    lost, chunk = keys[:, 0], keys[:, 1 : 1 + width]
    used = chunk != NO_HELPER
    # Padding sorts last: ``order[:, :n]`` are n helpers, ascending.
    order = np.argsort(np.where(used, chunk, np.iinfo(np.int32).max), axis=1)
    count = used.sum(axis=1)
    out = np.zeros(chunk.shape, dtype=np.intp)
    for n in np.unique(count).tolist():
        rows = np.flatnonzero(count == n)
        cols = order[rows, :n]
        out[rows[:, None], cols] = code.repair_vectors(
            lost[rows], np.take_along_axis(chunk[rows], cols, axis=1)
        )
    return out


def compute_window(
    code, data, win: WindowPlan, *, keep_partials: bool = False
) -> WindowOutcome:
    """Stage A: decode every stripe of one window in one columnar pass.

    The window's decode table is one stack of its distinct signatures'
    rows (those the cache lacks derived by one :func:`_coefficients`
    call), indexed by each stripe's signature and masked to its helper
    columns; a group (Equation 7) starts wherever the rack changes, or
    once when direct.  The helpers and the lost chunks are row ids into
    the chunk store's matrix, which the kernels gather from.  The
    outcome is **in window order** and carries the stage's wall-clock
    start/end (this function itself must stay telemetry-free, see the
    module docstring).
    """
    start = time.perf_counter()
    ident = _code_id(code, win.aggregated)
    tables = [REPAIR_GROUP_CACHE.get((ident, s)) for s in win.signatures]
    missing = [u for u, row in enumerate(tables) if row is None]
    if missing:
        signatures = [win.signatures[u] for u in missing]
        derived = _coefficients(code, signatures, win.chunk.shape[1])
        for u, s, row in zip(missing, signatures, derived):
            tables[u] = REPAIR_GROUP_CACHE.put((ident, s), row)
    coefficients = np.stack(tables)[win.signature]
    used = win.chunk != NO_HELPER
    heads = used.copy()
    heads[:, 1:] &= (win.rack[:, 1:] != win.rack[:, :-1]) & win.aggregated
    rows = data.rows()
    helpers = data.row_ids(
        np.broadcast_to(win.stripe_id[:, None], used.shape)[used],
        win.chunk[used],
    )
    partials = segment_dot(
        gf(code.w),
        coefficients[used],
        rows,
        np.flatnonzero(heads[used]),
        ids=helpers,
    )
    groups = heads.sum(axis=1)
    first_partial = (np.cumsum(groups) - groups).tolist()
    # A shipped partial must stay as decoded: only when none is kept may
    # the combine accumulate into one.
    rebuilt = xor_segments(partials, first_partial, consume=not keep_partials)
    lost = data.row_ids(win.stripe_id, win.lost_chunk)
    return WindowOutcome(
        rebuilt=rebuilt,
        ok=rows_equal(rows, rebuilt, ids=lost),
        heads=heads,
        rack=win.rack if win.aggregated else None,
        partials=partials if keep_partials else None,
        first_partial=first_partial,
        started=start,
        finished=time.perf_counter(),
    )


# -- where stage A runs -----------------------------------------------------


def default_workers(chunk_size: int) -> int:
    """Stage-A threads when the caller does not say.

    A window of short chunks (up to the kernels' ``_SHORT_ROW``, 4 KiB)
    is about a hundred short numpy calls and a Python loop per
    signature: a thread decoding it mostly waits for the GIL behind the
    shipping thread, so none is started (``0``: decode on the calling
    thread).  Longer chunks spend their decode in kernels that release
    the GIL, so they get one thread per usable CPU
    (:func:`repro.cpus.usable_cpus`).  docs/PERFORMANCE.md has the
    sweep that put the crossover there.
    """
    return 0 if chunk_size <= _SHORT_ROW else usable_cpus()


@contextmanager
def thread_stage(code, data, *, keep_partials: bool, workers: int):
    """Stage A on ``workers`` threads: yields ``submit(window) -> future``.

    The decodes of the next windows run here while the caller ships the
    oldest one.  Every window is decoded by one :func:`compute_window`
    call, so which thread decodes it does not change its outcome; the
    outcome names the thread.  The pool starts a thread only when a
    window finds none idle, so a one-window run starts one.  With
    ``workers=0`` no thread starts: ``submit`` decodes the window on the
    calling thread (thread ``0``) and returns a completed future, which
    holds the decode's exception if it raised, so the caller meets it
    when it ships that window, as from a pool.
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
