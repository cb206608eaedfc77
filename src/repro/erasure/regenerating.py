"""Product-Matrix MSR regenerating codes — Rashmi, Shah, Kumar (2011).

The paper's related work (Section II-B) cites regenerating codes
(Dimakis et al.) as the information-theoretic answer to repair traffic:
at the *minimum-storage* (MSR) point, a failed node downloads
``d * B / (k * (d - k + 1))`` symbols from ``d`` helpers instead of
``B`` symbols from ``k``.  The product-matrix construction realises the
MSR point for ``d = 2k - 2`` with ``beta = 1``:

- each node stores ``alpha = k - 1`` symbols (the node's *content*);
- the ``B = k (k - 1)`` message symbols fill two symmetric
  ``alpha x alpha`` matrices ``S1, S2``;
- node ``i``'s content is ``psi_i^T M`` with ``M = [S1; S2]`` and
  ``psi_i = [phi_i^T, lambda_i phi_i^T]`` a Vandermonde row;
- **repair**: each of ``d`` helpers sends the single symbol
  ``psi_j^T M phi_f``; the replacement inverts the ``d x d`` helper
  matrix to get ``M phi_f = [S1 phi_f; S2 phi_f]`` and, using the
  symmetry of ``S1, S2``, reassembles ``phi_f^T S1 + lambda_f phi_f^T
  S2`` — exactly its lost content.

Repair downloads ``d = 2(k - 1)`` symbols to rebuild ``alpha = k - 1``
symbols: a **2x** blowup, versus the ``k x`` blowup of RS — the bound
CAR's cross-rack traffic is compared against in the analysis bench.

:class:`RackAwareMSRCode` lifts the construction to the paper's
two-tier network (Chen & Barg, arXiv:1901.04419): code nodes are racks,
each rack's content is striped over ``u`` physical nodes, and because
every product-matrix operation is elementwise over packet positions,
repairing one *node* runs the rack-level repair on that node's slice
only.  Each of ``dbar`` helper racks ships exactly one packet across
the core — meeting the rack-aware cut-set bound
``dbar * alpha / (dbar - kbar + 1)`` with equality — while intra-rack
reads are free, exactly the cost model CAR is built on.

Symbols here are numpy buffers (packets), so all claims are verified on
real bytes.

Reached by ``examples/repair_landscape.py`` (byte-verified PM-MSR repairs
behind the PM-MSR row of EXPERIMENTS.md "Repair landscape"); the
rack-aware construction is what ``repro-car regen`` models.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.errors import (
    CodingError,
    InsufficientChunksError,
    InvalidCodeParametersError,
)
from repro.erasure.matrix import GFMatrix
from repro.gf.field import GaloisField, gf
from repro.gf.vector import buffer_dtype, dot_rows

__all__ = ["PMMSRCode", "RackAwareMSRCode"]


class PMMSRCode:
    """Product-matrix MSR code with ``d = 2k - 2`` and ``beta = 1``.

    Args:
        n: number of storage nodes (``n > d``).
        k: reconstruction threshold (``k >= 2``).
        w: GF(2^w) width.

    Attributes:
        d: helpers contacted per repair (``2k - 2``).
        alpha: symbols stored per node (``k - 1``).
        B: message symbols per stripe (``k * (k - 1)``).
    """

    def __init__(self, n: int, k: int, w: int = 8) -> None:
        if k < 2:
            raise InvalidCodeParametersError("PM-MSR requires k >= 2")
        d = 2 * k - 2
        if n <= d:
            raise InvalidCodeParametersError(
                f"PM-MSR requires n > d = {d}, got n = {n}"
            )
        self.n = n
        self.k = k
        self.d = d
        self.alpha = k - 1
        self.B = k * (k - 1)
        self.w = w
        self.field: GaloisField = gf(w)
        if n + 1 >= self.field.order:
            raise InvalidCodeParametersError(
                f"n = {n} does not fit GF(2^{w})"
            )
        self._xs = self._pick_points()
        self._phi = self._build_phi()
        self._lambdas = [
            self.field.pow(x, self.alpha) for x in self._xs
        ]
        self._psi = self._build_psi()

    # -- construction ------------------------------------------------------

    def _pick_points(self) -> list[int]:
        """Distinct nonzero x_i with pairwise-distinct x_i^alpha.

        Distinct lambdas are required for the repair interference
        cancellation; greedily select candidates.
        """
        xs: list[int] = []
        seen_lambda: set[int] = set()
        for candidate in range(1, self.field.order):
            lam = self.field.pow(candidate, self.alpha)
            if lam in seen_lambda:
                continue
            xs.append(candidate)
            seen_lambda.add(lam)
            if len(xs) == self.n:
                return xs
        raise InvalidCodeParametersError(
            f"cannot find {self.n} points with distinct lambda in GF(2^{self.w})"
        )

    def _build_phi(self) -> GFMatrix:
        f = self.field
        rows = []
        for x in self._xs:
            acc, row = 1, []
            for _ in range(self.alpha):
                row.append(acc)
                acc = f.mul(acc, x)
            rows.append(row)
        return GFMatrix(f, rows)

    def _build_psi(self) -> GFMatrix:
        f = self.field
        rows = []
        for i in range(self.n):
            phi_row = [int(v) for v in self._phi.data[i]]
            lam = self._lambdas[i]
            rows.append(phi_row + [f.mul(lam, int(v)) for v in phi_row])
        return GFMatrix(f, rows)

    # -- message layout -----------------------------------------------------

    def _message_matrices(
        self, packets: Sequence[np.ndarray]
    ) -> list[list[np.ndarray | None]]:
        """Arrange B packets into M = [S1; S2] (symmetric blocks).

        Returns M as a (d x alpha) grid of packet references.
        """
        if len(packets) != self.B:
            raise CodingError(
                f"PM-MSR encodes exactly B={self.B} packets, got {len(packets)}"
            )
        a = self.alpha
        per_block = a * (a + 1) // 2
        grid: list[list[np.ndarray | None]] = [
            [None] * a for _ in range(self.d)
        ]
        idx = 0
        for block in range(2):
            base = block * a
            for r in range(a):
                for c in range(r, a):
                    grid[base + r][c] = packets[idx]
                    grid[base + c][r] = packets[idx]
                    idx += 1
        assert idx == 2 * per_block == self.B
        return grid

    # -- encode ------------------------------------------------------------

    def _check_packets(self, packets: Sequence[np.ndarray]) -> None:
        dtype = buffer_dtype(self.field)
        shapes = {p.shape for p in packets}
        if len(shapes) > 1:
            raise CodingError(f"packets have differing shapes: {shapes}")
        for p in packets:
            if p.dtype != dtype:
                raise CodingError(
                    f"packet dtype {p.dtype} does not match field dtype {dtype}"
                )

    def encode(self, packets: Sequence[np.ndarray]) -> list[list[np.ndarray]]:
        """Encode B message packets into per-node contents.

        Returns ``n`` contents, each a list of ``alpha`` packets
        (node ``i``'s content is ``psi_i^T M``).
        """
        self._check_packets(packets)
        m = self._message_matrices(packets)
        contents: list[list[np.ndarray]] = []
        for i in range(self.n):
            psi = [int(v) for v in self._psi.data[i]]
            row = []
            for col in range(self.alpha):
                column = [m[r][col] for r in range(self.d)]
                row.append(dot_rows(self.field, psi, column))
            contents.append(row)
        return contents

    # -- decode (any k nodes) -------------------------------------------------

    def _coefficient_row(self, node: int, col: int) -> list[int]:
        """Coefficients of stored symbol (node, col) over the B packets."""
        f = self.field
        psi = [int(v) for v in self._psi.data[node]]
        coeffs = [0] * self.B
        a = self.alpha
        per_block = a * (a + 1) // 2

        def packet_index(block: int, r: int, c: int) -> int:
            lo, hi = min(r, c), max(r, c)
            # index of (lo, hi) in the upper-triangle enumeration
            offset = lo * a - lo * (lo - 1) // 2 + (hi - lo)
            return block * per_block + offset

        for r in range(self.d):
            block, rr = divmod(r, a)
            coeffs[packet_index(block, rr, col)] ^= psi[r]
        return coeffs

    def decode(
        self, contents: Mapping[int, Sequence[np.ndarray]]
    ) -> list[np.ndarray]:
        """Reconstruct all B packets from any ``k`` node contents."""
        nodes = sorted(contents)[: self.k]
        if len(nodes) < self.k:
            raise InsufficientChunksError(
                f"decode needs k={self.k} nodes, got {len(contents)}"
            )
        rows = []
        bufs = []
        for node in nodes:
            content = list(contents[node])
            if len(content) != self.alpha:
                raise CodingError(
                    f"node {node} content must have alpha={self.alpha} packets"
                )
            for col in range(self.alpha):
                rows.append(self._coefficient_row(node, col))
                bufs.append(content[col])
        system = GFMatrix(self.field, rows)  # B x B
        inverse = system.invert()
        out = []
        for r in range(self.B):
            coeffs = [int(v) for v in inverse.data[r]]
            out.append(dot_rows(self.field, coeffs, bufs))
        return out

    # -- repair ------------------------------------------------------------

    def repair_symbol(
        self, helper: int, failed: int, helper_content: Sequence[np.ndarray]
    ) -> np.ndarray:
        """What helper ``helper`` sends: ``psi_helper^T M phi_failed``.

        One packet — this is beta = 1, the whole point of MSR.
        """
        if helper == failed:
            raise CodingError("a failed node cannot help its own repair")
        phi_f = [int(v) for v in self._phi.data[failed]]
        if len(helper_content) != self.alpha:
            raise CodingError(
                f"helper content must have alpha={self.alpha} packets"
            )
        return dot_rows(self.field, phi_f, list(helper_content))

    def repair(
        self, failed: int, symbols: Mapping[int, np.ndarray]
    ) -> list[np.ndarray]:
        """Rebuild node ``failed`` from ``d`` helper repair symbols.

        Args:
            failed: index of the failed node.
            symbols: helper node -> the packet from :meth:`repair_symbol`.

        Returns:
            The failed node's ``alpha`` content packets.
        """
        helpers = sorted(symbols)
        if len(helpers) != self.d:
            raise InsufficientChunksError(
                f"repair needs exactly d={self.d} helpers, got {len(helpers)}"
            )
        if failed in helpers:
            raise CodingError("helper set must not contain the failed node")
        f = self.field
        # Invert the d x d matrix of helper psi rows to recover
        # M phi_f = [S1 phi_f ; S2 phi_f].
        psi_rows = self._psi.take_rows(helpers)
        inverse = psi_rows.invert()
        bufs = [symbols[h] for h in helpers]
        m_phi = []
        for r in range(self.d):
            coeffs = [int(v) for v in inverse.data[r]]
            m_phi.append(dot_rows(f, coeffs, bufs))
        s1_phi = m_phi[: self.alpha]
        s2_phi = m_phi[self.alpha :]
        # Content col c of node f: phi_f^T S1 e_c + lambda_f phi_f^T S2 e_c
        # = (S1 phi_f)[c] + lambda_f (S2 phi_f)[c] by symmetry.
        lam = self._lambdas[failed]
        out = []
        for c in range(self.alpha):
            buf = s1_phi[c].copy()
            from repro.gf.vector import axpy

            axpy(f, lam, s2_phi[c], buf)
            out.append(buf)
        return out

    # -- metrics ------------------------------------------------------------

    def repair_traffic_ratio(self) -> float:
        """Downloaded symbols per repaired symbol: ``d / alpha`` (= 2)."""
        return self.d / self.alpha

    def rs_equivalent_repair_ratio(self) -> float:
        """What an RS code with the same (B, k) downloads per repaired
        symbol: ``k`` (read k nodes' worth to rebuild one)."""
        return float(self.k)

    def __reduce__(self):
        # The field/Vandermonde state is derived from (n, k, w); rebuild
        # from the constructor so instances ship cheaply to pool workers.
        return (self.__class__, (self.n, self.k, self.w))

    def __repr__(self) -> str:
        return (
            f"PMMSRCode(n={self.n}, k={self.k}, d={self.d}, "
            f"alpha={self.alpha}, B={self.B}, w={self.w})"
        )


class RackAwareMSRCode:
    """Rack-aware MSR code: a product-matrix MSR code over racks,
    striped across the ``u`` nodes of each rack.

    The two-tier model (Chen & Barg, arXiv:1901.04419): ``nbar`` racks
    of ``u`` nodes each; intra-rack transfer is free, only cross-rack
    packets count.  Rack ``i`` plays code node ``i`` of a
    :class:`PMMSRCode` ``(nbar, kbar)`` with ``dbar = 2 kbar - 2``.  The
    rack's ``alpha = kbar - 1`` super-symbols are striped so node ``j``
    of every rack holds packet-slice ``j`` — i.e. ``u`` independent
    product-matrix instances run side by side, instance ``j`` living
    entirely on the ``j``-th node of each rack.

    Repairing one *node* ``(rack f, slot j)`` therefore runs the
    rack-level repair on instance ``j`` alone: node ``j`` of each of
    ``dbar`` helper racks computes its repair symbol locally (free) and
    ships **one packet** across the core.  Cross-rack download is
    ``dbar`` packets for ``alpha`` packets rebuilt — exactly the
    rack-aware MSR bound ``dbar * alpha / (dbar - kbar + 1)`` with
    equality, and no intra-rack traffic at all.

    Any ``kbar`` complete racks reconstruct the whole stripe (the code
    is MDS over racks, not over arbitrary nodes — losing a full rack
    costs one code node).

    Args:
        nbar: number of racks (``nbar > 2 kbar - 2``).
        kbar: rack-level reconstruction threshold (``kbar >= 2``).
        u: nodes per rack (stripe slices).
        w: GF(2^w) width.

    Attributes:
        dbar: helper racks contacted per repair.
        alpha: packets stored per node.
        B: message packets per stripe (``u * kbar * (kbar - 1)``).
    """

    def __init__(self, nbar: int, kbar: int, u: int, w: int = 8) -> None:
        if u < 1:
            raise InvalidCodeParametersError(
                f"rack-aware MSR needs u >= 1 nodes per rack, got {u}"
            )
        self.rack_code = PMMSRCode(nbar, kbar, w)
        self.nbar = nbar
        self.kbar = kbar
        self.u = u
        self.w = w
        self.dbar = self.rack_code.d
        self.alpha = self.rack_code.alpha
        self.B = self.rack_code.B * u

    @property
    def num_nodes(self) -> int:
        """Physical nodes across all racks."""
        return self.nbar * self.u

    # -- encode ------------------------------------------------------------

    def encode(
        self, packets: Sequence[np.ndarray]
    ) -> list[list[list[np.ndarray]]]:
        """Encode ``B`` message packets into per-node contents.

        Message packet ``b * u + j`` belongs to stripe instance ``j``.
        Returns ``contents[rack][slot]`` = that node's ``alpha`` packets.
        """
        if len(packets) != self.B:
            raise CodingError(
                f"rack-aware MSR encodes exactly B={self.B} packets, "
                f"got {len(packets)}"
            )
        per_instance: list[list[list[np.ndarray]]] = [
            self.rack_code.encode(list(packets[j :: self.u]))
            for j in range(self.u)
        ]
        return [
            [per_instance[j][rack] for j in range(self.u)]
            for rack in range(self.nbar)
        ]

    # -- decode (any kbar complete racks) -----------------------------------

    def decode(
        self, racks: Mapping[int, Sequence[Sequence[np.ndarray]]]
    ) -> list[np.ndarray]:
        """Reconstruct all ``B`` packets from any ``kbar`` rack contents.

        Args:
            racks: rack id -> that rack's ``u x alpha`` content grid.
        """
        if len(racks) < self.kbar:
            raise InsufficientChunksError(
                f"decode needs kbar={self.kbar} racks, got {len(racks)}"
            )
        for rack, grid in racks.items():
            if len(grid) != self.u:
                raise CodingError(
                    f"rack {rack} content must have u={self.u} node slots"
                )
        out: list[np.ndarray | None] = [None] * self.B
        for j in range(self.u):
            instance = self.rack_code.decode(
                {rack: list(grid[j]) for rack, grid in racks.items()}
            )
            for b, packet in enumerate(instance):
                out[b * self.u + j] = packet
        return [p for p in out if p is not None]

    # -- repair ------------------------------------------------------------

    def repair_symbol(
        self,
        helper_rack: int,
        failed_rack: int,
        slot: int,
        helper_node_content: Sequence[np.ndarray],
    ) -> np.ndarray:
        """The one packet node ``(helper_rack, slot)`` ships cross-rack.

        Computed entirely from that node's own ``alpha`` packets — no
        intra-rack gathering is needed, so a single-node repair costs
        **zero** intra-rack traffic on the helper side.
        """
        if not 0 <= slot < self.u:
            raise CodingError(f"slot {slot} out of range for u={self.u}")
        return self.rack_code.repair_symbol(
            helper_rack, failed_rack, list(helper_node_content)
        )

    def repair_node(
        self, failed_rack: int, slot: int, symbols: Mapping[int, np.ndarray]
    ) -> list[np.ndarray]:
        """Rebuild node ``(failed_rack, slot)`` from ``dbar`` helper packets.

        Args:
            symbols: helper rack -> the packet from :meth:`repair_symbol`.

        Returns:
            The node's ``alpha`` content packets, byte-identical to what
            :meth:`encode` placed there.
        """
        if not 0 <= slot < self.u:
            raise CodingError(f"slot {slot} out of range for u={self.u}")
        return self.rack_code.repair(failed_rack, symbols)

    # -- metrics ------------------------------------------------------------

    def cross_rack_repair_packets(self) -> int:
        """Packets crossing the core per single-node repair: ``dbar``."""
        return self.dbar

    def cross_rack_chunk_units(self) -> float:
        """Cross-rack download per repair in node-chunk units:
        ``dbar / alpha`` (= 2 at the ``dbar = 2 kbar - 2`` point)."""
        return self.dbar / self.alpha

    def storage_overhead(self) -> float:
        """Raw-to-useful storage ratio: ``nbar / kbar``."""
        return self.nbar / self.kbar

    def __reduce__(self):
        return (self.__class__, (self.nbar, self.kbar, self.u, self.w))

    def __repr__(self) -> str:
        return (
            f"RackAwareMSRCode(nbar={self.nbar}, kbar={self.kbar}, "
            f"u={self.u}, dbar={self.dbar}, alpha={self.alpha}, "
            f"B={self.B}, w={self.w})"
        )
