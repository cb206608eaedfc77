"""Shared fixtures for the test suite, plus Hypothesis profiles.

Profiles (select with ``HYPOTHESIS_PROFILE=<name>``):

- ``default``: Hypothesis defaults (random seeds, local dev).
- ``ci``: derandomized with a fixed example budget, so property suites
  are reproducible run-to-run on CI (the ``regen-smoke`` job pins this).
- ``thorough``: a larger randomized budget for occasional deep local runs.
"""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.cluster.placement import RandomPlacementPolicy

settings.register_profile("default", settings())
settings.register_profile(
    "ci", settings(derandomize=True, max_examples=50, deadline=None)
)
settings.register_profile(
    "thorough", settings(max_examples=500, deadline=None)
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure.rs import RSCode


@pytest.fixture
def stage_a_threads(monkeypatch) -> list:
    """Two stage-A threads wherever ``workers`` is left to the default.

    A session picks no thread count of its own, and by default windows
    of short chunks decode on the shipping thread; this runs a suite's
    short-chunk repairs on a pool of two instead.  Returns the
    ``workers`` each run handed :func:`~repro.recovery.streaming.thread_stage`.
    """
    from repro.recovery import streaming

    started = []
    stage = streaming.thread_stage

    def recording(*args, workers, **kwargs):
        started.append(workers)
        return stage(*args, workers=workers, **kwargs)

    monkeypatch.setattr(streaming, "default_workers", lambda chunk_size: 2)
    monkeypatch.setattr(streaming, "thread_stage", recording)
    return started


@pytest.fixture
def rs63() -> RSCode:
    """The Google-Colossus (6, 3) RS code."""
    return RSCode(6, 3)


@pytest.fixture
def small_topology() -> ClusterTopology:
    """Four racks of 4/3/3/3 nodes (the paper's CFS2 layout)."""
    return ClusterTopology.from_rack_sizes([4, 3, 3, 3])


@pytest.fixture
def small_state(rs63: RSCode, small_topology: ClusterTopology) -> ClusterState:
    """A 20-stripe CFS2-like cluster with real data, no failure yet."""
    placement = RandomPlacementPolicy(rng=random.Random(11)).place(
        small_topology, 20, rs63.k, rs63.m
    )
    data = DataStore(rs63, 20, chunk_size=512, seed=3)
    return ClusterState(small_topology, rs63, placement, data)


@pytest.fixture
def failed_state(small_state: ClusterState) -> ClusterState:
    """``small_state`` with a deterministic failed node."""
    # Node 0 stores chunks with very high probability at 20 stripes; pick
    # the first node that actually stores something to stay deterministic.
    for node in small_state.topology.nodes:
        if small_state.placement.chunks_on_node(node.node_id):
            small_state.fail_node(node.node_id)
            return small_state
    raise AssertionError("no node stores any chunk")
