"""Shared builders for the durable-recovery test suite."""

from __future__ import annotations

import json
import random

import pytest

from repro.cluster import (
    ClusterState,
    ClusterTopology,
    DataStore,
    FailureInjector,
    RandomPlacementPolicy,
)
from repro.erasure import RSCode

CHUNK = 96


def build_failed_cluster(seed=7, stripes=6, chunk=CHUNK):
    """A small CFS2-like cluster with real data and one failed node."""
    code = RSCode(6, 3)
    topo = ClusterTopology.from_rack_sizes([4, 3, 3, 3])
    placement = RandomPlacementPolicy(rng=random.Random(seed)).place(
        topo, stripes, code.k, code.m
    )
    data = DataStore(code, stripes, chunk_size=chunk, seed=seed)
    state = ClusterState(topo, code, placement, data)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


def frames(path):
    """``(record, start, body, end)`` for each record of a journal file.

    An independent walk of the on-disk format for tests that cut files
    at frame boundaries: ``start`` is the offset of the record's JSON
    line, ``body`` the offset just after that line's newline, ``end``
    the offset just after the record (for a commit, after the payload's
    closing newline; otherwise ``end == body``).
    """
    data = path.read_bytes()
    out, pos = [], 0
    while pos < len(data):
        body = data.index(b"\n", pos) + 1
        record = json.loads(data[pos:body])
        end = body
        if record["rec"] == "commit":
            end += record["payload_bytes"] + 1
        out.append((record, pos, body, end))
        pos = end
    return out


#: The boundaries of a commit frame a crash can land on (``commit_cuts``).
CUTS = [
    "mid-header", "after-header-newline", "mid-payload",
    "before-closing-newline", "after-closing-newline",
]


def commit_cuts(path, which=-1):
    """Offset of each of :data:`CUTS` in the ``which``-th commit frame."""
    commits = [f for f in frames(path) if f[0]["rec"] == "commit"]
    record, start, body, end = commits[which]
    return {
        "mid-header": start + (body - start) // 2,
        "after-header-newline": body,
        "mid-payload": body + record["payload_bytes"] // 2,
        "before-closing-newline": end - 1,
        "after-closing-newline": end,
    }


@pytest.fixture
def failed_cluster():
    return build_failed_cluster()
