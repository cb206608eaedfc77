"""Background scrubbing: detect and heal silent chunk corruption.

Production CFSes continuously verify stored data against its erasure
coding (GFS checksums every block; HDFS runs a block scanner).  This
module implements code-level scrubbing for the simulated cluster:

- **detection**: a stripe is consistent iff re-encoding the data chunks
  reproduces every parity chunk (systematic codes make this a direct
  check);
- **location**: with a single corrupted chunk, excluding each candidate
  in turn and re-deriving the stripe from ``k`` of the others isolates
  the culprit — the stripe is consistent without it and inconsistent
  without any other;
- **repair**: rebuild the located chunk from ``k`` healthy ones and
  overwrite it in the :class:`~repro.cluster.state.DataStore`.

Scrubbing is orthogonal to failure recovery (the paper's topic) but
shares all of its machinery, which is why it lives here: it exercises
decode paths on every chunk the way a real deployment would.

Reached by ``repro-car scrub`` (an integrity drill that passes or fails;
it has no EXPERIMENTS.md row).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.state import ClusterState
from repro.errors import ClusterError
from repro.gf.vector import matrix_apply
from repro.obs import metrics as _metrics

__all__ = ["ScrubFinding", "ScrubReport", "Scrubber"]


@dataclass(frozen=True)
class ScrubFinding:
    """One detected-and-diagnosed corruption.

    Attributes:
        stripe_id: the inconsistent stripe.
        chunk_index: located corrupt chunk, or None if the corruption
            could not be isolated (more than one bad chunk).
        repaired: whether the chunk was rebuilt and overwritten.
    """

    stripe_id: int
    chunk_index: int | None
    repaired: bool


@dataclass
class ScrubReport:
    """Outcome of one scrubbing pass.

    Attributes:
        stripes_checked: stripes verified.
        clean_stripes: stripes found consistent.
        findings: diagnosed corruptions.
    """

    stripes_checked: int = 0
    clean_stripes: int = 0
    findings: list[ScrubFinding] = field(default_factory=list)

    @property
    def corrupt_stripes(self) -> int:
        """Stripes with at least one corruption."""
        return len(self.findings)

    @property
    def all_repaired(self) -> bool:
        """True iff every finding was located and healed."""
        return all(f.repaired for f in self.findings)


class Scrubber:
    """Verifies and heals a cluster's stored chunks."""

    def __init__(self, state: ClusterState) -> None:
        if state.data is None:
            raise ClusterError("scrubbing requires a DataStore")
        self.state = state

    # -- checks -----------------------------------------------------------

    def stripe_is_consistent(self, stripe_id: int) -> bool:
        """Re-encode the data chunks and compare every parity chunk."""
        code = self.state.code
        data = self.state.data
        chunks = [data.chunk(stripe_id, i) for i in range(code.n)]
        return self._consistent(chunks)

    def _consistent(self, chunks: list[np.ndarray]) -> bool:
        code = self.state.code
        parity = matrix_apply(
            code.field, code.generator.data[code.k :, :], chunks[: code.k]
        )
        for got, stored in zip(parity, chunks[code.k :]):
            if not np.array_equal(got, stored):
                return False
        return True

    def locate_corruption(self, stripe_id: int) -> int | None:
        """Isolate a single corrupt chunk by exclusion.

        Returns the chunk index, or None when exclusion cannot isolate
        one chunk (i.e. multiple corruptions).
        """
        code = self.state.code
        data = self.state.data
        chunks = {i: data.chunk(stripe_id, i) for i in range(code.n)}
        culprits = []
        for candidate in range(code.n):
            rest = {i: b for i, b in chunks.items() if i != candidate}
            try:
                rebuilt_data = code.decode(rest)
            except ClusterError:  # pragma: no cover - defensive
                continue
            except Exception:
                # Non-MDS codes may not span without this chunk.
                continue
            full = code.encode_stripe(rebuilt_data)
            ok = all(
                np.array_equal(full[i], chunks[i])
                for i in range(code.n)
                if i != candidate
            )
            if ok:
                culprits.append(candidate)
        return culprits[0] if len(culprits) == 1 else None

    # -- healing -------------------------------------------------------------

    def heal_stripe(self, stripe_id: int) -> ScrubFinding:
        """Diagnose one inconsistent stripe and repair it if possible."""
        culprit = self.locate_corruption(stripe_id)
        if culprit is None:
            return ScrubFinding(
                stripe_id=stripe_id, chunk_index=None, repaired=False
            )
        code = self.state.code
        data = self.state.data
        healthy = {
            i: data.chunk(stripe_id, i)
            for i in range(code.n)
            if i != culprit
        }
        rebuilt = code.decode(healthy)
        full = code.encode_stripe(rebuilt)
        data.overwrite(stripe_id, culprit, full[culprit])
        return ScrubFinding(
            stripe_id=stripe_id, chunk_index=culprit, repaired=True
        )

    def scrub(self) -> ScrubReport:
        """One full pass over every stripe: verify, diagnose, heal.

        When a metrics registry is installed the pass is counted into
        ``scrub.stripes`` (by clean/corrupt outcome), ``scrub.findings``
        (by repaired/unrepairable), and ``scrub.passes``.
        """
        report = ScrubReport()
        for stripe in range(self.state.placement.num_stripes):
            report.stripes_checked += 1
            if self.stripe_is_consistent(stripe):
                report.clean_stripes += 1
                continue
            report.findings.append(self.heal_stripe(stripe))
        reg = _metrics.CURRENT
        if reg is not None:
            reg.counter("scrub.passes").inc()
            reg.counter("scrub.stripes").inc(
                report.clean_stripes, outcome="clean"
            )
            reg.counter("scrub.stripes").inc(
                report.corrupt_stripes, outcome="corrupt"
            )
            for finding in report.findings:
                reg.counter("scrub.findings").inc(
                    outcome="repaired" if finding.repaired else "unrepairable"
                )
        return report
