"""The one linear erasure code of the recovery layer, and its repair-vector table.

The recovery algorithms in :mod:`repro.recovery` only need three things
from a code: its parameters ``(k, m)``, the ability to encode/decode, and
— crucially for CAR — a *repair vector*: the coefficients ``y`` such that
a lost chunk equals ``sum_i y_i * H'_i`` over the chosen helpers
(Equation 6 of the paper).

:class:`LinearCode` implements all of it once from an ``n x k``
generator matrix: encode applies its parity rows, decode inverts the
generator rows of a spanning basis of the survivors (Equation 4), and a
repair vector solves ``y · G[helpers] = G[lost]`` through the stacked
reduction of :mod:`repro.erasure.matrix`.  Reed-Solomon and LRC differ
only in their generators and in which helper sets they accept.

Each code keeps the repair vectors it has solved in one
:class:`DecodeTable`: a window of repairs looks all its rows up at once
(:func:`~repro.recovery.streaming.window_coefficients`), and
:meth:`LinearCode.repair_vector` is a one-row read of the same entries.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cache import BoundedCache
from repro.errors import CodingError, ConfigurationError, InsufficientChunksError
from repro.erasure.matrix import GFMatrix, _solve
from repro.gf.field import GaloisField
from repro.gf.vector import batch_dot, buffer_dtype, dot_rows, matrix_apply
from repro.obs.metrics import register_cache

__all__ = ["DecodeTable", "LinearCode"]


class DecodeTable:
    """One code's repair vectors as columns.

    An entry is one ``(lost chunk, helper set)``, keyed ``lost << n |
    helper_mask`` in 63 bits (:meth:`key`; racks do not change a repair
    vector), and its row the repair vector over chunk numbers, 0 where a
    chunk does not help.  :attr:`entries` is the sorted keys and the
    ``(entries, n)`` rows as one tuple, replaced whole, so a reader never
    pairs arrays of two updates.  :attr:`maxsize` bounds it, least
    recently looked up out first.  Its hit rate (``exec.repair_groups``
    in the metrics registry) is how often repairs share a repair vector.
    """

    maxsize = 4096

    def __init__(self, n: int) -> None:
        self.n = n
        self.hits = self.misses = self.evictions = 0
        self.entries = (np.empty(0, np.int64), np.empty((0, n), np.int64))
        # Per entry, the lookup count when it was last looked up.
        self._used = np.empty(0, np.int64)
        self._lock = threading.Lock()
        register_cache("exec.repair_groups", self)

    def __len__(self) -> int:
        return len(self.entries[0])

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            keys, rows = self.entries
            self.entries, self._used = (keys[:0], rows[:0]), self._used[:0]

    def key(self, lost, helper_mask):
        """The key of a repair (or the ``int64`` keys of arrays of them).

        Raises:
            ConfigurationError: if ``n`` chunks leave no room for the
                lost chunk in 63 bits (``n`` > 57).
        """
        if self.n + self.n.bit_length() > 63:
            raise ConfigurationError(f"n={self.n} chunks overflow a 63-bit decode key")
        return (lost << self.n) | helper_mask

    def rows(self, code: LinearCode, keys: np.ndarray) -> np.ndarray:
        """The ``(S, n)`` rows of ``(S,)`` keys of ``code``'s repairs,
        ``code`` being the table's owner: one lookup per distinct key."""
        wanted, inverse = np.unique(keys, return_inverse=True)
        entries = self.entries
        at, found = _find(entries[0], wanted)
        return self._read(code, entries, wanted, at, found.all())[inverse]

    def row(self, code: LinearCode, key: int) -> np.ndarray:
        """The ``(n,)`` row of one key: :meth:`rows` with a scalar search."""
        entries = keys, _ = self.entries
        at = int(keys.searchsorted(key))
        found = at < len(keys) and keys[at] == key
        wanted = np.array([key], np.int64)
        return self._read(code, entries, wanted, at, found).reshape(self.n)

    def _read(self, code: LinearCode, entries, wanted, at, found) -> np.ndarray:
        """The rows of the sorted distinct keys ``wanted``: where the
        lock-free search of ``entries`` put them if it ``found`` them
        all, else as merged in (:meth:`_merge`).  The lock is taken once,
        to count and to merge."""
        rows = entries[1]
        with self._lock:
            if not found:
                rows, at = self._merge(code, wanted)
            else:
                self.hits += len(wanted)
                if self.entries is entries:
                    self._used[at] = self.hits + self.misses
        return rows[at]

    def _merge(
        self, code: LinearCode, wanted: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Add the keys of ``wanted`` the entries lack (under the lock),
        solved by one ``repair_vectors`` call per helper count (one for
        an MDS code) over the helpers ascending.  Returns the merged rows
        and ``wanted``'s place in them from before any eviction, so a
        window wider than the bound still decodes.
        """
        keys, rows = self.entries
        _, found = _find(keys, wanted)  # another thread may have added some
        new = wanted[~found]
        self.hits += len(wanted) - len(new)
        self.misses += len(new)
        helps = ((new[:, None] >> np.arange(self.n)) & 1).astype(bool)
        derived = np.zeros((len(new), self.n), np.int64)
        count = helps.sum(axis=1)
        for h in np.unique(count).tolist():
            sel = np.flatnonzero(count == h)
            cols = np.nonzero(helps[sel])[1].reshape(-1, h)
            derived[sel[:, None], cols] = code.repair_vectors(new[sel] >> self.n, cols)
        place = np.searchsorted(keys, new)  # ``new`` is sorted, as ``wanted``
        keys, rows = np.insert(keys, place, new), np.insert(rows, place, derived, 0)
        used = np.insert(self._used, place, 0)
        at = np.searchsorted(keys, wanted)
        used[at] = self.hits + self.misses
        keep = slice(None)
        if len(keys) > self.maxsize:
            keep = np.sort(np.argsort(used, kind="stable")[len(keys) - self.maxsize :])
            self.evictions += len(keys) - self.maxsize
        self.entries, self._used = (keys[keep], rows[keep]), used[keep]
        return rows, at


def _find(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``wanted`` sits in sorted ``keys``, and whether it is there."""
    at = np.searchsorted(keys, wanted)
    return at, np.take(keys, at, mode="clip") == wanted if len(keys) else at < 0


class LinearCode:
    """A systematic ``(k, m)`` linear code over GF(2^w), from its generator.

    Chunk indices run ``0 .. k+m-1``: indices ``< k`` are data chunks,
    the rest are parity chunks.  Chunks are 1-D numpy buffers of the
    field's element dtype, all the same length within a stripe.  Row
    ``i`` of the ``n x k`` ``generator`` maps the ``k`` data chunks to
    chunk ``i``; the first ``k`` rows are the identity.  Decode inverses
    are cached per available-index tuple (as ``<name>.decode_matrix``),
    repair vectors in :attr:`decode_table`.
    """

    def __init__(self, generator: GFMatrix, k: int, name: str) -> None:
        self.field: GaloisField = generator.field
        self.generator = generator
        self.k = k
        self.m = generator.rows - k
        self.w = self.field.w
        self._inverse_cache = BoundedCache(maxsize=512, name=f"{name}.decode_matrix")
        self.decode_table = DecodeTable(self.n)

    @property
    def n(self) -> int:
        """Total chunks per stripe (``k + m``)."""
        return self.k + self.m

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, m={self.m}, w={self.w})"

    # -- encode / decode ---------------------------------------------------

    def _check_chunks(self, chunks: Sequence[np.ndarray]) -> None:
        sizes = {c.shape for c in chunks}
        if len(sizes) > 1:
            raise CodingError(f"chunks have differing shapes: {sizes}")
        dtype = buffer_dtype(self.field)
        for c in chunks:
            if c.dtype != dtype:
                raise CodingError(
                    f"chunk dtype {c.dtype} does not match field dtype {dtype}"
                )

    def _check_indices(self, indices: Sequence[int]) -> None:
        for i in indices:
            if not 0 <= i < self.n:
                raise CodingError(f"chunk index {i} out of range for n={self.n}")

    def encode(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Compute the ``m`` parity chunks from the ``k`` data chunks."""
        if len(data_chunks) != self.k:
            raise CodingError(
                f"encode expects exactly k={self.k} data chunks, got {len(data_chunks)}"
            )
        self._check_chunks(data_chunks)
        return matrix_apply(self.field, self.generator.data[self.k :], list(data_chunks))

    def encode_stripe(self, data_chunks: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return the full stripe: the data chunks followed by parity."""
        return list(data_chunks) + self.encode(data_chunks)

    def encode_into(self, stripes: np.ndarray) -> None:
        """Parity of a ``(B, n, L)`` block of stripes in one kernel call.

        The block's data rows, laid side by side as ``k`` rows of
        ``B * L`` elements, times the parity rows; the ``m`` product rows
        are cut back into each stripe's last ``m`` rows.  A block of one
        stripe is encoded straight into its rows.
        """
        parity = self.generator.data[self.k :]
        if len(stripes) == 1:
            stripe = stripes[0]
            batch_dot(self.field, parity, stripe[: self.k], out=stripe[self.k :])
            return
        count, _, size = stripes.shape
        data = stripes[:, : self.k].transpose(1, 0, 2).reshape(self.k, -1)
        out = batch_dot(self.field, parity, data)
        stripes[:, self.k :] = out.reshape(self.m, count, size).transpose(1, 0, 2)

    def _decode_basis(self, indices: tuple[int, ...]) -> tuple[list[int], GFMatrix]:
        """The lowest-index basis of the available rows (greedy, so the
        first ``k`` of an MDS code) and its generator rows' inverse."""
        basis = self.generator.take_rows(indices).independent_rows()
        if len(basis) < self.k:
            raise InsufficientChunksError(
                f"available chunks {list(indices)} do not span the data space "
                f"(rank {len(basis)} < k={self.k})"
            )
        chosen = [indices[b] for b in basis]
        return chosen, self.generator.take_rows(chosen).invert()

    def decode(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct all ``k`` data chunks from any spanning available set.

        Raises:
            InsufficientChunksError: if the available rows do not span
                the data space.
        """
        indices = tuple(sorted(available))
        self._check_indices(indices)
        chosen, inverse = self._inverse_cache.get_or_build(
            indices, lambda: self._decode_basis(indices)
        )
        bufs = [available[i] for i in chosen]
        self._check_chunks(bufs)
        return matrix_apply(self.field, inverse.data, bufs)

    def decode_all(self, available: Mapping[int, np.ndarray]) -> list[np.ndarray]:
        """Reconstruct the *entire* stripe (data + parity chunks)."""
        return self.encode_stripe(self.decode(available))

    # -- single-failure repair ---------------------------------------------

    def _check_helpers(self, count: int) -> None:
        """Reject a helper count this code can never repair from.  Any
        count may span a lost row of a general linear code; the solve
        finds the sets that do not."""

    def _check_repair(self, lost_index: int, helpers: Sequence[int]) -> None:
        """Raise the error a bad ``(lost, helpers)`` row deserves."""
        if not 0 <= lost_index < self.n:
            raise CodingError(f"lost index {lost_index} out of range")
        for h in helpers:
            if not 0 <= h < self.n:
                raise CodingError(f"helper index {h} out of range")
        if lost_index in helpers:
            raise CodingError("helper set must not contain the lost chunk")
        if len(set(helpers)) != len(helpers):
            raise CodingError("helper indices must be distinct")

    def repair_vectors(
        self, lost_indices: np.ndarray, helper_indices: np.ndarray
    ) -> np.ndarray:
        """Every row's ``y`` with ``y · G[helpers[s]] = G[lost[s]]``, all
        rows in one stacked reduction; an unknown that dependent helpers
        leave free is 0.  A bad row raises the :class:`CodingError` that
        names its fault.

        Raises:
            InsufficientChunksError: naming the first row whose helpers
                do not span its lost row.
        """
        lost = np.asarray(lost_indices, dtype=np.int64)
        helpers = np.asarray(helper_indices, dtype=np.int64)
        self._check_helpers(helpers.shape[1])
        ordered = np.sort(helpers, axis=1)
        bad = (
            (lost < 0) | (lost >= self.n)
            | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
            | ((helpers < 0) | (helpers >= self.n)).any(axis=1)
            | (helpers == lost[:, None]).any(axis=1)
        )
        if bad.any():
            s = int(bad.argmax())
            self._check_repair(int(lost[s]), helpers[s].tolist())
        g = self.generator.data
        y, pivots = _solve(self.field, g[helpers], g[lost])
        # The right-hand column pivots iff G[lost] is outside the span.
        unsolved = pivots[:, -1]
        if unsolved.any():
            s = int(unsolved.argmax())
            raise InsufficientChunksError(
                f"chunk {int(lost[s])} cannot be repaired from helpers "
                f"{tuple(helpers[s].tolist())}"
            )
        return y

    def repair_vector(
        self, lost_index: int, helper_indices: Sequence[int]
    ) -> list[int]:
        """Coefficients ``y = g_lost · X`` over the chosen helpers, ordered
        to match ``helper_indices``: one row of :attr:`decode_table`, so
        solved by :meth:`repair_vectors` only the first time any caller
        asks.  The entry is the helper *set*'s, solved over the helpers
        ascending, which is what an unknown that dependent helpers leave
        free (set to 0) depends on.  A bad row raises what
        :meth:`repair_vectors` raises for it, before the lookup (a
        repeated helper would vanish into the key's helper mask)."""
        helpers = list(helper_indices)
        self._check_helpers(len(helpers))
        self._check_repair(lost_index, helpers)
        table = self.decode_table
        row = table.row(self, table.key(lost_index, sum(1 << h for h in helpers)))
        return row[helpers].tolist()

    def reconstruct(
        self, lost_index: int, helpers: Mapping[int, np.ndarray]
    ) -> np.ndarray:
        """Rebuild one chunk from a helper set :meth:`repair_vector` accepts."""
        indices = sorted(helpers)
        y = self.repair_vector(lost_index, indices)
        bufs = [helpers[i] for i in indices]
        self._check_chunks(bufs)
        return dot_rows(self.field, y, bufs)
