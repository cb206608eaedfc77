"""Scalar arithmetic in GF(2^w).

:class:`GaloisField` wraps the precomputed tables from
:mod:`repro.gf.tables` and exposes the usual field operations on plain
Python integers.  Elements are represented as ``int`` in ``[0, 2^w)``;
addition is XOR, multiplication/division go through the log/antilog
tables.

For bulk (chunk-sized) operations on numpy buffers use
:mod:`repro.gf.vector`, which shares the same tables.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import DivisionByZeroError, FieldError
from repro.gf.tables import FieldTables, get_tables

__all__ = ["GaloisField", "GF4", "GF8", "GF16", "gf"]


class GaloisField:
    """The finite field GF(2^w) for w in {4, 8, 16}.

    Instances are cheap, stateless views over cached tables; prefer the
    module-level singletons :data:`GF8` etc. or the :func:`gf` factory.
    """

    __slots__ = ("tables",)

    def __init__(self, w: int) -> None:
        self.tables: FieldTables = get_tables(w)

    # -- introspection ------------------------------------------------

    @property
    def w(self) -> int:
        """Field width in bits."""
        return self.tables.w

    @property
    def order(self) -> int:
        """Number of field elements, ``2^w``."""
        return self.tables.order

    def __repr__(self) -> str:
        return f"GaloisField(w={self.w})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaloisField) and other.w == self.w

    def __hash__(self) -> int:
        return hash(("GaloisField", self.w))

    def __reduce__(self):
        # Pickle as a factory call: unpickling returns the cached
        # singleton (cheap — no table arrays ship across process pools).
        return (gf, (self.w,))

    # -- validation ---------------------------------------------------

    def check(self, a: int) -> int:
        """Validate that ``a`` is a field element and return it.

        Raises:
            FieldError: if ``a`` is outside ``[0, 2^w)``.
        """
        if not 0 <= a < self.order:
            raise FieldError(f"{a} is not an element of GF(2^{self.w})")
        return a

    # -- field operations ----------------------------------------------

    def add(self, a: int, b: int) -> int:
        """Field addition (XOR). Identical to :meth:`sub`."""
        return self.check(a) ^ self.check(b)

    # In characteristic 2, subtraction and addition coincide.
    sub = add

    def mul(self, a: int, b: int) -> int:
        """Field multiplication via log/antilog tables."""
        self.check(a)
        self.check(b)
        if a == 0 or b == 0:
            return 0
        t = self.tables
        return int(t.exp[int(t.log[a]) + int(t.log[b])])

    def div(self, a: int, b: int) -> int:
        """Field division ``a / b``.

        Raises:
            DivisionByZeroError: if ``b`` is zero.
        """
        self.check(a)
        self.check(b)
        if b == 0:
            raise DivisionByZeroError(f"division by zero in GF(2^{self.w})")
        if a == 0:
            return 0
        t = self.tables
        return int(t.exp[int(t.log[a]) - int(t.log[b]) + t.group_order])

    def inv(self, a: int) -> int:
        """Multiplicative inverse of ``a``.

        Raises:
            DivisionByZeroError: if ``a`` is zero.
        """
        self.check(a)
        if a == 0:
            raise DivisionByZeroError(f"zero has no inverse in GF(2^{self.w})")
        return int(self.tables.inv[a])

    def pow(self, a: int, n: int) -> int:
        """Raise ``a`` to the integer power ``n`` (``n`` may be negative)."""
        self.check(a)
        if a == 0:
            if n < 0:
                raise DivisionByZeroError("0 cannot be raised to a negative power")
            return 1 if n == 0 else 0
        t = self.tables
        e = (int(t.log[a]) * n) % t.group_order
        return int(t.exp[e])

    def generator_pow(self, n: int) -> int:
        """Return ``g^n`` for the group generator ``g = 2``."""
        return int(self.tables.exp[n % self.tables.group_order])

    def dot(self, xs: list[int], ys: list[int]) -> int:
        """Inner product of two equal-length coefficient vectors."""
        if len(xs) != len(ys):
            raise FieldError("dot product requires equal-length vectors")
        acc = 0
        for x, y in zip(xs, ys):
            acc ^= self.mul(x, y)
        return acc


@lru_cache(maxsize=None)
def gf(w: int) -> GaloisField:
    """Return the cached :class:`GaloisField` instance for width ``w``."""
    return GaloisField(w)


#: GF(2^4) — sixteen elements; the smallest supported field.
GF4 = gf(4)
#: GF(2^8) — the workhorse field; one byte per element (Jerasure default).
GF8 = gf(8)


def __getattr__(name: str) -> GaloisField:
    """:data:`GF16`, built on first use.

    GF(2^16) — for stripes wider than 255 + parity chunks.  Its tables
    take a 65 535-step loop to build, which no import should pay for;
    the attribute is the :func:`gf` singleton all the same.
    """
    if name == "GF16":
        return gf(16)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
