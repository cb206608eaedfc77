"""Systematic Reed-Solomon codes over GF(2^w).

Two classical constructions are provided, selected by ``construction``:

- ``"vandermonde"`` (default): start from the ``(k+m) x k`` Vandermonde
  matrix over distinct field elements and right-multiply by the inverse
  of its top square block so the first ``k`` rows become the identity.
  Column operations preserve the any-k-rows-invertible (MDS) property.
- ``"cauchy"``: stack the identity on an ``m x k`` Cauchy matrix with
  disjoint coordinate sets; every square submatrix of a Cauchy matrix is
  invertible, so the code is MDS by construction.

Everything else is :class:`~repro.erasure.code.LinearCode`: decoding
inverts the ``k x k`` generator submatrix of the first ``k`` survivors
(Equation 4 of the paper), and single-chunk repair uses the *repair
vector* ``y = g_lost · X`` (Equation 6), which is also the quantity CAR
splits per rack for partial decoding.  The one RS-specific rule is that
a repair takes exactly ``k`` helpers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InsufficientChunksError, InvalidCodeParametersError
from repro.erasure.code import LinearCode
from repro.erasure.matrix import GFMatrix
from repro.gf.field import GaloisField, gf

__all__ = ["RSCode", "default_width_for"]

_CONSTRUCTIONS = ("vandermonde", "cauchy")


def default_width_for(k: int, m: int) -> int:
    """Smallest supported field width that fits a ``(k, m)`` code.

    A ``(k, m)`` RS code needs ``k + m`` distinct evaluation points for
    the Vandermonde construction (and ``k + m`` disjoint coordinates for
    Cauchy), so we need ``2^w >= k + m`` with a little headroom for the
    Cauchy coordinate split.  Widths below 8 are never chosen by default
    because chunk buffers carry whole bytes (GF(2^4) is available
    explicitly for algebra-level work, not byte-buffer coding).
    """
    for w in (8, 16):
        if (1 << w) >= k + m + 1:
            return w
    raise InvalidCodeParametersError(f"no supported field fits k+m={k + m}")


class RSCode(LinearCode):
    """A systematic MDS ``(k, m)`` Reed-Solomon code.

    Args:
        k: number of data chunks per stripe (``>= 1``).
        m: number of parity chunks per stripe (``>= 1``).
        w: field width; defaults to the smallest width that fits.
        construction: ``"vandermonde"`` or ``"cauchy"``.

    Raises:
        InvalidCodeParametersError: if the parameters cannot form an MDS
            code in the chosen field.
    """

    def __init__(
        self,
        k: int,
        m: int,
        w: int | None = None,
        construction: str = "vandermonde",
    ) -> None:
        if k < 1 or m < 1:
            raise InvalidCodeParametersError(f"k and m must be >= 1, got ({k}, {m})")
        if construction not in _CONSTRUCTIONS:
            raise InvalidCodeParametersError(
                f"unknown construction {construction!r}; choose from {_CONSTRUCTIONS}"
            )
        if w is None:
            w = default_width_for(k, m)
        field = gf(w)
        if k + m + 1 > field.order:
            raise InvalidCodeParametersError(
                f"(k={k}, m={m}) does not fit in GF(2^{w})"
            )
        self.construction = construction
        super().__init__(_generator(field, k, m, construction), k, "rs")

    def __reduce__(self):
        # Rebuild from parameters: the generator is deterministic, and a
        # clone starts with empty caches and its own decode table (whose
        # lock would not pickle).
        return (RSCode, (self.k, self.m, self.w, self.construction))

    @property
    def parity_rows(self) -> np.ndarray:
        """The ``m x k`` parity part of the generator matrix."""
        return self.generator.data[self.k :, :]

    def _check_helpers(self, count: int) -> None:
        if count != self.k:
            raise InsufficientChunksError(
                f"repair needs exactly k={self.k} helpers, got {count}"
            )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RSCode)
            and (other.k, other.m, other.w, other.construction)
            == (self.k, self.m, self.w, self.construction)
        )

    def __hash__(self) -> int:
        return hash((self.k, self.m, self.w, self.construction))

    def __repr__(self) -> str:
        return (
            f"RSCode(k={self.k}, m={self.m}, w={self.w}, "
            f"construction={self.construction!r})"
        )


def _generator(field: GaloisField, k: int, m: int, construction: str) -> GFMatrix:
    """The systematic ``(k + m) x k`` generator of one construction."""
    if construction == "vandermonde":
        return GFMatrix.vandermonde(field, k + m, k).to_systematic()
    # Cauchy: xs are the parity coordinates, ys the data coordinates.
    cauchy = GFMatrix.cauchy(field, list(range(k, k + m)), list(range(k)))
    return GFMatrix(field, np.vstack([np.eye(k, dtype=cauchy.data.dtype), cauchy.data]))
