"""Stage A of the repair pipeline: windows, columnar decodes, accounting.

:meth:`~repro.recovery.executor.PlanExecutor.execute` repairs every
stripe through one two-stage pipeline; this module is the half that
never touches telemetry, the journal or the fault hooks:

- :func:`default_window` sizes a window from the chunk size against a
  fixed byte budget, and :func:`windows` slices a lazy
  ``(solution, stripe_plan)`` iterator into windows of that many
  stripes, so coordinator memory is O(window) regardless of stripe
  count;
- :func:`compute_window` performs every GF decode of a window in one
  columnar pass.  A window is a table: one row per helper chunk (its
  buffer and its repair-vector coefficient), the rows of one rack group
  adjacent (a *segment*), the segments of one stripe adjacent.  Every
  per-rack partial decode (Equation 7) of the window is then a single
  :func:`~repro.gf.vector.segment_dot` call and every final combine a
  single :func:`~repro.gf.vector.xor_segments` call; how those treat
  256-byte rows and 4 MiB rows differently is the kernels' business —
  nothing here looks at the chunk size.  Stripes that share a repair
  vector need no special case: they are adjacent segments;
- the per-signature :class:`~repro.erasure.repair.PartialDecodePlan` is
  memoised in the named :data:`REPAIR_GROUP_CACHE`, whose hit/miss rates
  surface through the :mod:`repro.obs` metrics registry (the hit rate is
  how often stripes share a repair vector);
- :func:`stripe_accounting` is the one place a stripe's cross-/intra-rack
  bytes and per-node compute are derived, for the in-process ship and
  the worker-process fold alike;
- :func:`thread_stage` / :func:`process_stage` run stage A on one
  worker thread (overlapping the executor's stage B) or fan it out over
  a process pool, with chunk data mapped zero-copy through
  :mod:`repro.io_shm` instead of pickled per task.

Everything here is *pure computation* over read-only state: no tracer,
journal, or data-store mutation.  That is a hard requirement —
:func:`compute_window` runs on a worker thread while the executor's
thread ships the previous window (the tracer and the journal are not
thread-safe, so each stays on exactly one thread; the GF kernels are
re-entrant, but they count into the metrics registry, which is not —
that is why :func:`thread_stage` does not let the two stages overlap
while a registry is active).
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.cache import BoundedCache
from repro.erasure.repair import PartialDecodePlan, split_repair_vector
from repro.gf.field import gf
from repro.gf.vector import segment_dot, xor_segments
from repro.obs import metrics as _metrics
from repro.recovery.planner import StripePlan
from repro.recovery.solution import PerStripeSolution

__all__ = [
    "REPAIR_GROUP_CACHE",
    "StripeOutcome",
    "default_window",
    "repair_signature",
    "windows",
    "compute_window",
    "stripe_accounting",
    "thread_stage",
    "process_stage",
]

#: Bytes one window may hold in flight when the caller names no window.
WINDOW_BYTES = 2 << 20

#: What a stripe in flight costs besides its chunk: the solution and its
#: stripe plan (one Transfer per helper; 1.9–3.1 KiB traced for CFS1–3)
#: plus the outcome record and its array headers.  At 256 B chunks this,
#: not the chunk, is what a window's memory is made of.
STRIPE_OVERHEAD_BYTES = 4096

#: Memoised per-signature repair decompositions.  Named, so the cache
#: self-registers with the metrics registry: its hit rate quantifies how
#: often stripes share a repair vector and shows up in ``repro-car
#: metrics`` next to the GF table caches.
REPAIR_GROUP_CACHE = BoundedCache(4096, name="exec.repair_groups")


@dataclass
class StripeOutcome:
    """Everything stage B (shipping) needs about one computed stripe.

    Attributes:
        sol / sp: the stripe's solution and plan.
        rebuilt: the reconstructed chunk (at small chunk sizes a row of
            the window's result matrix, which it keeps alive).
        ok: byte-exact match against ground truth.
        groups: the repair decomposition's groups — one per rack when
            aggregated (used for compute charging and checkpoint
            ordering), a single one holding every helper when direct.
        partials: group key -> partially decoded buffer.  Only populated
            when the executor walks the stripe's checkpoint/delivery
            events (telemetry, journal, integrity verification or a
            fault-injecting subclass).
    """

    sol: PerStripeSolution
    sp: StripePlan
    rebuilt: np.ndarray
    ok: bool
    groups: tuple = ()
    partials: dict | None = None


def repair_signature(sol: PerStripeSolution, aggregated: bool):
    """The key under which stripes share a repair vector.

    Two stripes with equal signatures repair with identical coefficient
    rows and identical rack grouping, so they share one memoised
    :class:`~repro.erasure.repair.PartialDecodePlan`.
    """
    if aggregated:
        return (
            sol.lost_chunk,
            sol.helpers,
            tuple(sorted(sol.rack_map().items())),
            sol.failed_rack,
        )
    return (sol.lost_chunk, sol.helpers)


def default_window(chunk_size: int) -> int:
    """Stripes per window when the caller does not say.

    The window is the pipeline's memory bound, so it is sized in bytes:
    :data:`WINDOW_BYTES` over what one stripe holds in flight.  Paper
    sized chunks (1 MiB and up) get one stripe — stage A of the next
    still overlaps stage B of the last — and 256 B chunks get a few
    hundred, enough to amortise the per-window hand-off.
    """
    return max(1, WINDOW_BYTES // (chunk_size + STRIPE_OVERHEAD_BYTES))


def windows(pairs, window: int):
    """Slice an iterator of ``(sol, sp)`` pairs into lists of ``window``."""
    pairs = iter(pairs)
    while True:
        chunk = list(islice(pairs, window))
        if not chunk:
            return
        yield chunk


def _decode_plan(
    code, sol: PerStripeSolution, aggregated: bool
) -> PartialDecodePlan:
    """The stripe's repair decomposition, memoised by signature.

    Aggregated repairs split the repair vector per rack (Equation 7); a
    direct repair is the same arithmetic with every helper in one group,
    decoded at the replacement node.  The code itself is part of the
    key: two codes of one shape (say the Vandermonde and Cauchy RS
    constructions) repair with different coefficients.
    """
    return REPAIR_GROUP_CACHE.get_or_build(
        (code, repair_signature(sol, aggregated)),
        lambda: split_repair_vector(
            code,
            sol.lost_chunk,
            sol.helpers,
            sol.rack_map() if aggregated else dict.fromkeys(sol.helpers),
        ),
    )


def compute_window(
    code,
    data,
    pairs: list[tuple[PerStripeSolution, StripePlan]],
    aggregated: bool,
    *,
    keep_partials: bool = False,
) -> tuple[list[StripeOutcome], float, float]:
    """Stage A: decode every stripe of one window in one columnar pass.

    Returns the outcomes **in input order** plus the stage's wall-clock
    start/end (the executor emits them as a pipeline span — this
    function itself must stay telemetry-free, see the module docstring).
    """
    start = time.perf_counter()
    plans = [_decode_plan(code, sol, aggregated) for sol, _ in pairs]
    # The window as columns: one row per helper chunk, one segment per
    # rack group, one run of segments per stripe.
    coeffs: list[int] = []
    helpers: list[np.ndarray] = []
    group_starts: list[int] = []
    stripe_starts: list[int] = []
    for (sol, _), plan in zip(pairs, plans):
        stripe_starts.append(len(group_starts))
        for group in plan.groups:
            group_starts.append(len(coeffs))
            coeffs.extend(group.coefficients)
            helpers.extend(
                [data.chunk(sol.stripe_id, h) for h in group.helper_indices]
            )
    partials = segment_dot(gf(code.w), coeffs, helpers, group_starts)
    # A shipped partial must stay as decoded: only when none is kept may
    # the combine accumulate into one.
    rebuilt = xor_segments(partials, stripe_starts, consume=not keep_partials)
    outcomes = []
    for i, ((sol, sp), plan) in enumerate(zip(pairs, plans)):
        first = stripe_starts[i]
        outcomes.append(
            StripeOutcome(
                sol=sol,
                sp=sp,
                rebuilt=rebuilt[i],
                ok=data.matches(sol.stripe_id, sol.lost_chunk, rebuilt[i]),
                groups=plan.groups,
                partials=(
                    {
                        group.group_key: partials[first + j]
                        for j, group in enumerate(plan.groups)
                    }
                    if keep_partials
                    else None
                ),
            )
        )
    return outcomes, start, time.perf_counter()


def stripe_accounting(
    outcome: StripeOutcome,
    aggregated: bool,
    replacement_node: int,
    chunk_bytes: int,
) -> tuple[int, int, dict[int, int]]:
    """One repaired stripe's ``(cross_bytes, intra_bytes, charges)``.

    Every planned flow moves one chunk-sized buffer, across the core or
    inside a rack.  Compute is charged in GF input bytes: each rack's
    partial decode to its delegate (the failed rack's local fold to the
    replacement node) plus the replacement node's final combine of one
    buffer per rack; a direct repair decodes all helpers at the
    replacement node.
    """
    sol, sp = outcome.sol, outcome.sp
    crossing = sum(1 for t in sp.transfers if t.cross_rack)
    charges: dict[int, int] = {}
    if aggregated:
        for group in outcome.groups:
            node = (
                replacement_node
                if group.group_key == sol.failed_rack
                else sp.delegates[group.group_key]
            )
            charges[node] = charges.get(node, 0) + group.size * chunk_bytes
        charges[replacement_node] = (
            charges.get(replacement_node, 0)
            + len(outcome.groups) * chunk_bytes
        )
    else:
        charges[replacement_node] = sol.helper_count * chunk_bytes
    return (
        crossing * chunk_bytes,
        (len(sp.transfers) - crossing) * chunk_bytes,
        charges,
    )


# -- where stage A runs -----------------------------------------------------


@contextmanager
def thread_stage(code, data, aggregated: bool, *, keep_partials: bool):
    """Stage A on one worker thread: yields ``submit(window) -> future``.

    The decode of the next window runs here while the caller ships the
    previous one — unless a metrics registry is active: the kernels
    count into it and it is not thread-safe, so ``submit`` then returns
    only once the window is decoded.
    """
    pool = ThreadPoolExecutor(max_workers=1)

    def submit(win):
        future = pool.submit(
            compute_window, code, data, win, aggregated,
            keep_partials=keep_partials,
        )
        if _metrics.CURRENT is not None:
            wait([future])
        return future

    try:
        yield submit
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


#: Per-worker context installed by the pool initializer: (code, data
#: store, aggregated, replacement node, shared store to close on exit).
#: Module-global because ProcessPoolExecutor initializers cannot return
#: values.
_WORKER: dict | None = None


def _init_worker(payload: bytes) -> None:
    from repro.io_shm import SharedChunkStore

    global _WORKER
    ctx = pickle.loads(payload)
    if ctx["handle"] is not None:
        shared = SharedChunkStore.attach(ctx["handle"])
        data = shared.store()
    else:
        shared = None
        data = ctx["data"]
    _WORKER = {
        "code": ctx["code"],
        "data": data,
        "aggregated": ctx["aggregated"],
        "replacement_node": ctx["replacement_node"],
        "shared": shared,
    }


def _run_window(pairs: list) -> tuple[list[tuple], float, float]:
    """Worker task: stage A plus accounting for one window.

    Returns per stripe ``(stripe_id, rebuilt, ok, cross_bytes,
    intra_bytes, charges)`` — plain picklable tuples, folded by the
    parent in submission order so results are order-stable for any
    worker count — and the stage's start/end like :func:`compute_window`.
    """
    ctx = _WORKER
    aggregated, repl = ctx["aggregated"], ctx["replacement_node"]
    outcomes, start, end = compute_window(
        ctx["code"], ctx["data"], pairs, aggregated
    )
    chunk_bytes = ctx["data"].chunk_size
    return (
        [
            (o.sol.stripe_id, o.rebuilt, o.ok)
            + stripe_accounting(o, aggregated, repl, chunk_bytes)
            for o in outcomes
        ],
        start,
        end,
    )


@contextmanager
def process_stage(code, data, aggregated: bool, replacement_node: int, *,
                  workers: int, shm: bool | None):
    """Stage A over worker processes: yields ``submit(window) -> future``.

    The chunk store crosses the process boundary exactly once — as a
    shared-memory mapping by default (``shm=None``/``True``), or pickled
    into the initializer when ``shm=False`` — never per task.
    """
    from repro.io_shm import SharedChunkStore

    shared = SharedChunkStore.from_datastore(data) if shm is not False else None
    payload = pickle.dumps(
        {
            "code": code,
            "handle": shared.handle if shared is not None else None,
            "data": None if shared is not None else data,
            "aggregated": aggregated,
            "replacement_node": replacement_node,
        }
    )
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(payload,),
        ) as pool:
            yield lambda win: pool.submit(_run_window, win)
    finally:
        if shared is not None:
            shared.close()
