"""File-level client API: the "file system" of the clustered file system.

Everything below this module thinks in stripes and chunks; real clients
think in files.  :class:`FileStore` bridges the two, the way GFS/HDFS
split files into fixed-size blocks:

- :meth:`write` pads a byte payload to whole stripes, erasure-codes it,
  and places the chunks rack-fault-tolerantly;
- :meth:`read` streams the data chunks back and trims the padding;
- :meth:`read_degraded` serves a read while a node is down, rebuilding
  the file's lost chunks on the fly through CAR's minimum-rack partial
  decoding (the degraded-read path of the Li et al. DSN'14 scenario);
- :meth:`cluster_state` exposes the underlying
  :class:`~repro.cluster.state.ClusterState`, so recovery strategies,
  scrubbing, and the simulators all run unmodified against stored
  files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.cluster.placement import (
    Placement,
    PlacementPolicy,
    RandomPlacementPolicy,
)
from repro.cluster.state import ClusterState, DataStore
from repro.cluster.topology import ClusterTopology
from repro.erasure.code import LinearCode
from repro.erasure.repair import (
    combine_partials,
    execute_partial_decode,
    split_repair_vector,
)
from repro.errors import ClusterError, ConfigurationError
from repro.recovery.baselines import CarStrategy

__all__ = ["FileInfo", "FileStore"]


@dataclass(frozen=True)
class FileInfo:
    """Metadata of one stored file.

    Attributes:
        name: file name (unique within the store).
        size: payload bytes (without padding).
        stripe_ids: the stripes holding this file, in order.
    """

    name: str
    size: int
    stripe_ids: tuple[int, ...]

    @property
    def stripes(self) -> int:
        """Number of stripes the file occupies."""
        return len(self.stripe_ids)


class FileStore:
    """Erasure-coded file storage over a rack-aware cluster.

    Args:
        topology: the cluster.
        code: the erasure code (GF(2^8) codes only — files are bytes).
        chunk_size: bytes per chunk; a stripe holds ``k * chunk_size``
            payload bytes.
        policy: placement policy (default: the paper's random
            rack-fault-tolerant placement).
        rng: seed for the default policy.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        code: LinearCode,
        chunk_size: int = 4096,
        policy: PlacementPolicy | None = None,
        rng: random.Random | int | None = None,
    ) -> None:
        if code.w != 8:
            raise ConfigurationError(
                "FileStore requires a GF(2^8) code (byte-oriented payloads)"
            )
        if chunk_size <= 0:
            raise ConfigurationError("chunk_size must be positive")
        self.topology = topology
        self.code = code
        self.chunk_size = chunk_size
        self.policy = policy or RandomPlacementPolicy(rng=rng)
        self._table = np.empty((0, code.n), dtype=np.int32)
        self._data = DataStore.empty(code, chunk_size)
        self._files: dict[str, FileInfo] = {}

    # -- metadata ---------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def stat(self, name: str) -> FileInfo:
        """Metadata of one file.

        Raises:
            ClusterError: if the file does not exist.
        """
        try:
            return self._files[name]
        except KeyError:
            raise ClusterError(f"no such file: {name!r}") from None

    def files(self) -> list[FileInfo]:
        """All stored files, name-ordered."""
        return [self._files[n] for n in sorted(self._files)]

    @property
    def stripe_payload(self) -> int:
        """Payload bytes per stripe (``k * chunk_size``)."""
        return self.code.k * self.chunk_size

    # -- write --------------------------------------------------------------

    def write(self, name: str, payload: bytes) -> FileInfo:
        """Store a file: pad, stripe, encode, place.

        Raises:
            ClusterError: if the name is already taken.
            ConfigurationError: for empty payloads.
        """
        if name in self._files:
            raise ClusterError(f"file exists: {name!r}")
        if not payload:
            raise ConfigurationError("cannot store an empty file")
        per_stripe = self.stripe_payload
        num_stripes = -(-len(payload) // per_stripe)  # ceil division
        padded = payload + b"\0" * (num_stripes * per_stripe - len(payload))
        new_placement = self.policy.place(
            self.topology, num_stripes, self.code.k, self.code.m
        )
        stripe_ids = range(len(self._table), len(self._table) + num_stripes)
        for local, stripe_id in enumerate(stripe_ids):
            offset = local * per_stripe
            data_chunks = [
                np.frombuffer(
                    padded[
                        offset + i * self.chunk_size
                        : offset + (i + 1) * self.chunk_size
                    ],
                    dtype=np.uint8,
                ).copy()
                for i in range(self.code.k)
            ]
            stripe = self.code.encode_stripe(data_chunks)
            self._data.add_stripe(stripe_id, stripe)
        self._table = np.concatenate((self._table, new_placement.node_table()))
        info = FileInfo(
            name=name, size=len(payload), stripe_ids=tuple(stripe_ids)
        )
        self._files[name] = info
        return info

    # -- read --------------------------------------------------------------

    def read(self, name: str) -> bytes:
        """Read a file back from its data chunks."""
        info = self.stat(name)
        parts = []
        for stripe_id in info.stripe_ids:
            for i in range(self.code.k):
                parts.append(self._data.chunk(stripe_id, i).tobytes())
        return b"".join(parts)[: info.size]

    def read_degraded(self, name: str, failed_node: int) -> bytes:
        """Read a file while ``failed_node`` is unavailable.

        Data chunks on the failed node are reconstructed on the fly via
        CAR's minimum-rack partial decoding; everything else is read
        directly.
        """
        info = self.stat(name)
        state = self.cluster_state()
        state.fail_node(failed_node)
        parts = []
        for stripe_id in info.stripe_ids:
            lost = np.flatnonzero(self._table[stripe_id] == failed_node)
            for i in range(self.code.k):
                if i not in lost:
                    parts.append(self._data.chunk(stripe_id, i).tobytes())
                    continue
                helpers, rack_map = self._degraded_helpers(state, stripe_id, i)
                plan = split_repair_vector(self.code, i, helpers, rack_map)
                chunks = {
                    c: self._data.chunk(stripe_id, c) for c in helpers
                }
                partials = execute_partial_decode(self.code, plan, chunks)
                parts.append(combine_partials(self.code, partials).tobytes())
        return b"".join(parts)[: info.size]

    def _degraded_helpers(
        self, state: ClusterState, stripe_id: int, lost_chunk: int
    ) -> tuple[tuple[int, ...], dict[int, int]]:
        """Helper set + rack map for rebuilding one chunk on the fly.

        Locality-aware codes (LRC) dictate their own minimal helper set;
        MDS codes get CAR's minimum-rack selection.
        """
        minimal = getattr(self.code, "minimal_repair_helpers", None)
        if minimal is not None:
            helpers = tuple(minimal(lost_chunk))
        else:
            failure = state.failure_columns(stripes=[stripe_id])
            helpers = CarStrategy(load_balance=False).solve_failure(
                self.topology, self.code.k, failure
            ).solutions[0].helpers
        rack_map = {
            c: self.topology.rack_of(self._table[stripe_id, c])
            for c in helpers
        }
        return helpers, rack_map

    # -- integration --------------------------------------------------------

    def cluster_state(self) -> ClusterState:
        """A :class:`ClusterState` over the store's current contents."""
        placement = Placement(
            self.topology, self.code.k, self.code.m, self._table
        )
        return ClusterState(self.topology, self.code, placement, self._data)
