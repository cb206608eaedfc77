"""A window's repair vectors come from one solve: counted, cold and warm.

At fleet shape almost every stripe of a cold repair has a helper set no
earlier stripe used.  Stage A looks the window's (lost chunk, helper
set) keys up in the code's decode table at once and derives every
miss's coefficients with one ``repair_vectors`` call (one batched
Gauss-Jordan), never with a per-stripe ``GFMatrix.invert``; a warm
repair solves nothing.  The ``exec.repair_groups`` counters mean one
lookup per distinct (lost, helper set) of a window, a miss the first
time it is seen.  Misses are merged under the table's lock, which
re-checks what another thread merged meanwhile, so the counts are exact
on any number of stage-A threads: at the default (at 256-byte chunks,
no thread: stage A runs on the shipping thread) and on two threads.
Which window meets a key first may change with the interleaving, so
there only the solve's total size is pinned.
"""

import pytest

from repro.cluster.failure import FailureInjector
from repro.erasure.matrix import GFMatrix
from repro.erasure.rs import RSCode
from repro.experiments.configs import CFS3, build_state
from repro.recovery.baselines import CarStrategy
from repro.recovery.executor import PlanExecutor
from repro.recovery.planner import plan_recovery_streaming
from repro.recovery.solution import NO_HELPER

WINDOW = 256


@pytest.fixture(scope="module")
def fleet():
    state = build_state(
        CFS3, 0, with_data=True, chunk_size=256, num_stripes=4000
    )
    event = FailureInjector(rng=0).fail_random_node(state)
    return state, event, CarStrategy().solve(state)


def expected_lookups(state, event, solution):
    """Per window: (distinct (lost, helper set) keys, keys not seen before)."""
    seen, out = set(), []
    for win in plan_recovery_streaming(state, event, solution).iter_windows(WINDOW):
        keys = {
            (lost, frozenset(row) - {NO_HELPER})
            for lost, row in zip(win.lost_chunk.tolist(), win.chunk.tolist())
        }
        new = keys - seen
        seen |= new
        out.append((len(keys), len(new)))
    return out


@pytest.fixture
def counted(monkeypatch):
    calls = {"repair_vectors": [], "invert": 0}
    batched, invert = RSCode.repair_vectors, GFMatrix.invert

    def counting_repair_vectors(self, lost, helpers):
        calls["repair_vectors"].append(len(lost))
        return batched(self, lost, helpers)

    def counting_invert(self):
        calls["invert"] += 1
        return invert(self)

    monkeypatch.setattr(RSCode, "repair_vectors", counting_repair_vectors)
    monkeypatch.setattr(GFMatrix, "invert", counting_invert)
    return calls


def run(state, event, solution, workers=1):
    table = state.code.decode_table
    before = table.hits, table.misses
    result = PlanExecutor(state).execute(
        plan_recovery_streaming(state, event, solution), window=WINDOW,
        workers=workers,
    )
    assert result.verified
    return table.hits - before[0], table.misses - before[1]


def cold(state):
    state.code.decode_table.clear()
    state.code._inverse_cache.clear()


def test_one_solve_per_window_with_misses_then_none(fleet, counted):
    state, event, solution = fleet
    assert len(solution.solutions) >= 2000
    cold(state)
    lookups = expected_lookups(state, event, solution)
    distinct = sum(new for _, new in lookups)
    # No eviction within the run, so the counts below are exact.
    assert distinct <= state.code.decode_table.maxsize
    assert distinct > len(solution.solutions) // 2  # helper sets rarely repeat

    hits, misses = run(state, event, solution)
    assert counted["repair_vectors"] == [new for _, new in lookups if new]
    assert counted["invert"] == 0
    assert misses == distinct
    assert hits == sum(n for n, _ in lookups) - distinct

    counted["repair_vectors"].clear()
    hits, misses = run(state, event, solution)
    assert counted["repair_vectors"] == []
    assert counted["invert"] == 0
    assert (hits, misses) == (sum(n for n, _ in lookups), 0)


def test_default_threads_solve_at_most_once_per_window(fleet, counted):
    solve_at_most_once_per_window(fleet, counted, None)


def test_two_threads_solve_at_most_once_per_window(fleet, counted):
    solve_at_most_once_per_window(fleet, counted, 2)


def solve_at_most_once_per_window(fleet, counted, workers):
    state, event, solution = fleet
    cold(state)
    lookups = expected_lookups(state, event, solution)
    distinct = sum(new for _, new in lookups)

    hits, misses = run(state, event, solution, workers=workers)
    assert len(counted["repair_vectors"]) <= len(lookups)
    assert sum(counted["repair_vectors"]) == distinct
    assert counted["invert"] == 0
    assert misses == distinct
    assert hits == sum(n for n, _ in lookups) - distinct

    counted["repair_vectors"].clear()
    hits, misses = run(state, event, solution, workers=workers)
    assert counted["repair_vectors"] == []
    assert counted["invert"] == 0
    assert (hits, misses) == (sum(n for n, _ in lookups), 0)
