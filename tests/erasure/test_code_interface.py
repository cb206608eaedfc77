"""Tests for what :class:`LinearCode` gives a code that supplies only
its generator.

A minimal replication "code" supplies a column of ones to prove that
the recovery machinery only relies on the generator.
"""

import numpy as np

from repro.erasure.code import LinearCode
from repro.erasure.matrix import GFMatrix
from repro.gf.field import gf


class ReplicationCode(LinearCode):
    """(k=1, m) replication expressed as a linear code: every chunk is a
    copy, so any single helper repairs with coefficient vector [1]."""

    def __init__(self, m: int = 2) -> None:
        field = gf(8)
        ones = np.ones((m + 1, 1), dtype=field.tables.dtype)
        super().__init__(GFMatrix(field, ones), 1, "replication")


class TestInterface:
    def test_n(self):
        assert ReplicationCode(m=2).n == 3

    def test_default_reconstruct_uses_repair_vector(self):
        code = ReplicationCode(m=2)
        chunk = np.arange(16, dtype=np.uint8)
        stripe = [chunk] + code.encode([chunk])
        rebuilt = code.reconstruct(0, {1: stripe[1]})
        assert np.array_equal(rebuilt, chunk)

    def test_repr(self):
        assert "ReplicationCode(k=1, m=2, w=8)" == repr(ReplicationCode(2))

    def test_works_with_partial_decode_machinery(self):
        from repro.erasure.repair import (
            combine_partials,
            execute_partial_decode,
            split_repair_vector,
        )

        code = ReplicationCode(m=2)
        chunk = np.arange(8, dtype=np.uint8)
        plan = split_repair_vector(code, 0, [2], {2: "rackX"})
        partials = execute_partial_decode(code, plan, {2: chunk})
        assert np.array_equal(combine_partials(code, partials), chunk)
