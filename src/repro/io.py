"""JSON (de)serialization of experiment artefacts.

Reproducibility plumbing: lets a placement, a failure trace, or a
traffic report be written to disk and reloaded bit-identically, so an
experiment can be re-run against the *exact* layout that produced a
number (rather than trusting seeds across library versions).

Only plain-JSON types are emitted; loaders validate structure and
re-derive every invariant through the normal constructors.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster.placement import Placement
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.errors import ConfigurationError, PlacementError
from repro.recovery.metrics import TrafficReport
from repro.workloads.traces import FailureEventSpec, FailureTrace

__all__ = [
    "topology_to_dict",
    "topology_from_dict",
    "placement_to_dict",
    "placement_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "traffic_report_to_dict",
    "save_json",
    "load_json",
]


def _require(data: dict, key: str) -> Any:
    try:
        return data[key]
    except (KeyError, TypeError):
        raise ConfigurationError(f"missing field {key!r} in serialized data")


# -- topology ---------------------------------------------------------------


def topology_to_dict(topology: ClusterTopology) -> dict:
    """Serializable form of a topology (rack sizes + bandwidth)."""
    bw = topology.bandwidth
    return {
        "kind": "topology",
        "rack_sizes": list(topology.rack_sizes()),
        "bandwidth": {
            "node_nic_gbps": bw.node_nic_gbps,
            "rack_uplink_gbps": bw.rack_uplink_gbps,
            "core_gbps": None if bw.core_gbps == float("inf") else bw.core_gbps,
            "per_rack_uplink_gbps": (
                None
                if bw.per_rack_uplink_gbps is None
                else list(bw.per_rack_uplink_gbps)
            ),
        },
    }


def topology_from_dict(data: dict) -> ClusterTopology:
    """Inverse of :func:`topology_to_dict`."""
    if data.get("kind") != "topology":
        raise ConfigurationError("not a serialized topology")
    bw = _require(data, "bandwidth")
    core = bw.get("core_gbps")
    profile = BandwidthProfile(
        node_nic_gbps=_require(bw, "node_nic_gbps"),
        rack_uplink_gbps=_require(bw, "rack_uplink_gbps"),
        core_gbps=float("inf") if core is None else core,
        per_rack_uplink_gbps=bw.get("per_rack_uplink_gbps"),
    )
    return ClusterTopology.from_rack_sizes(
        _require(data, "rack_sizes"), bandwidth=profile
    )


# -- placement ---------------------------------------------------------------


def placement_to_dict(placement: Placement) -> dict:
    """Serializable form of a placement (embeds its topology)."""
    return {
        "kind": "placement",
        "topology": topology_to_dict(placement.topology),
        "k": placement.k,
        "m": placement.m,
        "assignment": [
            [stripe, chunk, node]
            for (stripe, chunk), node in placement.iter_chunks()
        ],
    }


def placement_from_dict(data: dict) -> Placement:
    """Inverse of :func:`placement_to_dict` (re-validates everything).

    Raises:
        PlacementError: if a ``(stripe, chunk)`` entry is repeated or
            missing, or the layout breaks a :class:`Placement` rule.
    """
    if data.get("kind") != "placement":
        raise ConfigurationError("not a serialized placement")
    topology = topology_from_dict(_require(data, "topology"))
    k, m = int(_require(data, "k")), int(_require(data, "m"))
    n = k + m
    entries = np.array(_require(data, "assignment"), dtype=np.int64)
    entries = entries.reshape(-1, 3)
    entries = entries[np.lexsort((entries[:, 1], entries[:, 0]))]
    # Sorted, the entries must be exactly (0, 0), (0, 1), ..., (S-1, n-1).
    position = np.arange(len(entries))
    wrong = (entries[:, 0] != position // n) | (entries[:, 1] != position % n)
    if wrong.any() or len(entries) % n:
        first = int(wrong.argmax()) if wrong.any() else len(entries)
        raise PlacementError(
            f"stripe {first // n} chunk {first % n} is missing or repeated "
            f"in the assignment"
        )
    return Placement(topology, k, m, entries[:, 2].reshape(-1, n))


# -- failure traces ------------------------------------------------------------


def trace_to_dict(trace: FailureTrace) -> dict:
    """Serializable form of a failure trace."""
    return {
        "kind": "failure_trace",
        "horizon_hours": trace.horizon_hours,
        "events": [[e.time_hours, e.node_id] for e in trace.events],
    }


def trace_from_dict(data: dict) -> FailureTrace:
    """Inverse of :func:`trace_to_dict`."""
    if data.get("kind") != "failure_trace":
        raise ConfigurationError("not a serialized failure trace")
    events = tuple(
        FailureEventSpec(time_hours=float(t), node_id=int(n))
        for t, n in _require(data, "events")
    )
    return FailureTrace(
        events=events, horizon_hours=float(_require(data, "horizon_hours"))
    )


# -- reports (one-way export) ------------------------------------------------


def traffic_report_to_dict(report: TrafficReport) -> dict:
    """Serializable form of a traffic report (export only)."""
    return {
        "kind": "traffic_report",
        "strategy": report.strategy,
        "chunk_size_bytes": report.chunk_size_bytes,
        "per_rack_chunks": list(report.per_rack_chunks),
        "failed_rack": report.failed_rack,
        "lambda_rate": report.lambda_rate,
        "num_stripes": report.num_stripes,
        "total_bytes": report.total_bytes,
    }


# -- files --------------------------------------------------------------------


def save_json(path: str | Path, data: dict) -> None:
    """Write a serialized artefact to ``path``."""
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True))


def load_json(path: str | Path) -> dict:
    """Read a serialized artefact from ``path``."""
    return json.loads(Path(path).read_text())
