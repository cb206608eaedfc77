"""Live cluster service: coordinator + chunkserver daemons over asyncio.

This package turns the recovery *library* into a running *system* — the
setting where the paper's argument actually plays out: background CAR
repair and foreground degraded reads competing for the same scarce
cross-rack bandwidth.

- :mod:`repro.service.protocol` — length-prefixed JSON/binary wire
  frames (sans-io parser, frame helpers) and the one socket transport
  every daemon uses;
- :mod:`repro.service.heartbeat` — per-node leases and the
  UNKNOWN→ALIVE→SUSPECT→DEAD failure-detection state machine;
- :mod:`repro.service.admission` — the modelled clock, the shared
  cross-rack link, the token-bucket repair cap, and the
  client-priority knob;
- :mod:`repro.service.chunkserver` — the data daemon (chunk reads,
  per-rack partial decodes, heartbeats);
- :mod:`repro.service.coordinator` — the control daemon (membership,
  degraded reads, repair control);
- :mod:`repro.service.repair` — the paced, crash-resumable background
  repair on top of :mod:`repro.durable`;
- :mod:`repro.service.cluster` — the in-process harness
  (:class:`LocalCluster`) and the foreground client;
- :mod:`repro.service.bench` — ``repro-car serve`` /
  ``bench-service`` drivers.

See ``docs/SERVICE.md`` for the protocol spec, the failure-detection
state machine, the admission knobs, and the crash-resume recipe.
"""

from repro.service.admission import (
    AdmissionController,
    ModeledLink,
    ServiceClock,
    TokenBucket,
)
from repro.service.bench import (
    render_service_table,
    run_bench_service,
    run_service,
)
from repro.service.chunkserver import Chunkserver
from repro.service.cluster import LocalCluster, ServiceClient
from repro.service.coordinator import Coordinator
from repro.service.heartbeat import (
    FailureDetector,
    LeaseTransition,
    NodeHealth,
)
from repro.service.protocol import (
    MAX_BLOB_BYTES,
    MAX_HEADER_BYTES,
    Connection,
    ConnectionPool,
    FrameReader,
    FrameServer,
    MsgType,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)
from repro.service.repair import RepairGovernor, RepairService

__all__ = [
    "MsgType",
    "MAX_HEADER_BYTES",
    "MAX_BLOB_BYTES",
    "encode_frame",
    "decode_frame",
    "FrameReader",
    "read_frame",
    "write_frame",
    "Connection",
    "FrameServer",
    "ConnectionPool",
    "NodeHealth",
    "LeaseTransition",
    "FailureDetector",
    "ServiceClock",
    "TokenBucket",
    "ModeledLink",
    "AdmissionController",
    "Chunkserver",
    "Coordinator",
    "RepairGovernor",
    "RepairService",
    "LocalCluster",
    "ServiceClient",
    "run_service",
    "run_bench_service",
    "render_service_table",
]
