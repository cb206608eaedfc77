"""The stacked reduction against the scalar Gauss-Jordan reference.

``GFMatrix.invert``, ``rank``, ``independent_rows``, ``solve_right`` and
:func:`~repro.erasure.matrix.solve_right_stack` are views of one
vectorised elimination.  Each must agree, bit for bit and error for
error, with the element-by-element loops of
``tests/erasure/_gauss_reference.py`` over GF(2^4), GF(2^8) and
GF(2^16), on every shape from 1 x 1 to 8 x 8, with rank deficiency and
singular squares forced and right-hand sides drawn both inside and
outside the row span.  The codes built on the reduction — Reed-Solomon
(Vandermonde and Cauchy, w = 8 and 16) and LRC(6, 2, 2) / (12, 2, 2) —
must give the reference's generators, repair vectors and decodes.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.erasure.lrc import LRCCode
from repro.erasure.matrix import GFMatrix, solve_right_stack
from repro.erasure.rs import RSCode
from repro.errors import InsufficientChunksError, SingularMatrixError
from repro.gf.field import gf

from tests.erasure import _gauss_reference as gauss

FIELDS = [gf(4), gf(8), gf(16)]


def outcome(call):
    """A call's result as plain data, or the message it raised."""
    try:
        result = call()
    except SingularMatrixError as exc:
        return ("singular", str(exc))
    return result.data.tolist() if isinstance(result, GFMatrix) else result


def solved_ascending(g, lost, helpers):
    """The reference solve over ``helpers`` sorted, read in their order."""
    ordered = sorted(helpers)
    y = gauss.solve_right(g.take_rows(ordered), g.row(lost).tolist())
    return [dict(zip(ordered, y))[h] for h in helpers]


def combination(field, coeffs, rows):
    """``sum_i coeffs[i] * rows[i]`` one element at a time."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        for j, v in enumerate(row):
            out[j] ^= field.mul(c, int(v))
    return out


@st.composite
def matrices(draw, field=None, rows=None, cols=None):
    """A random matrix, often made rank-deficient: some rows replaced by
    combinations of the others (a zero row when all coefficients are 0)."""
    field = field or draw(st.sampled_from(FIELDS))
    r = rows or draw(st.integers(1, 8))
    c = cols or draw(st.integers(1, 8))
    element = st.integers(0, field.order - 1)
    data = draw(st.lists(st.lists(element, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if r > 1:
        for target in draw(st.sets(st.integers(0, r - 1), max_size=r - 1)):
            sources = [i for i in range(r) if i != target]
            coeffs = draw(st.lists(element, min_size=len(sources),
                                   max_size=len(sources)))
            data[target] = combination(field, coeffs, [data[i] for i in sources])
    return GFMatrix(field, data)


@st.composite
def systems(draw, field=None, rows=None, cols=None):
    """A matrix and a right-hand side in its row span or drawn freely."""
    m = draw(matrices(field, rows, cols))
    element = st.integers(0, m.field.order - 1)
    if draw(st.booleans()):
        x = draw(st.lists(element, min_size=m.rows, max_size=m.rows))
        rhs = combination(m.field, x, m.data.tolist())
    else:
        rhs = draw(st.lists(element, min_size=m.cols, max_size=m.cols))
    return m, rhs


class TestMatrixMethods:
    @settings(deadline=None)
    @given(m=matrices())
    def test_rank_and_independent_rows(self, m):
        assert m.rank() == gauss.rank(m)
        assert m.independent_rows() == gauss.independent_rows(m)

    @settings(deadline=None)
    @given(data=st.data())
    def test_invert(self, data):
        n = data.draw(st.integers(1, 8))
        m = data.draw(matrices(rows=n, cols=n))
        assert outcome(m.invert) == outcome(lambda: gauss.invert(m))

    @settings(deadline=None)
    @given(system=systems())
    def test_solve_right(self, system):
        m, rhs = system
        assert outcome(lambda: m.solve_right(rhs)) == outcome(
            lambda: gauss.solve_right(m, rhs)
        )

    @settings(deadline=None)
    @given(data=st.data())
    def test_solve_right_stack(self, data):
        field = data.draw(st.sampled_from(FIELDS))
        k = data.draw(st.integers(1, 8))
        drawn = data.draw(
            st.lists(systems(field, k, k), min_size=0, max_size=5)
        )
        stack = np.array([m.data for m, _ in drawn], dtype=np.int64).reshape(-1, k, k)
        rhs = np.array([b for _, b in drawn], dtype=np.int64).reshape(-1, k)
        singular = [s for s, (m, _) in enumerate(drawn) if not gauss.is_invertible(m)]
        if singular:
            with pytest.raises(SingularMatrixError,
                               match=f"^system {singular[0]} is singular"):
                solve_right_stack(field, stack, rhs)
        else:
            got = solve_right_stack(field, stack, rhs).tolist()
            assert got == [gauss.solve_right(m, b) for m, b in drawn]


RS_CODES = [
    RSCode(6, 3),
    RSCode(10, 4),
    RSCode(4, 2, construction="cauchy"),
    RSCode(10, 4, construction="cauchy"),
    RSCode(20, 10, w=16),
    RSCode(12, 4, w=16, construction="cauchy"),
]
LRC_CODES = [LRCCode(6, 2, 2), LRCCode(12, 2, 2)]
CODES = RS_CODES + LRC_CODES

#: SHA-256 prefixes of each code's generator bytes, in ``CODES`` order.
#: A construction change must update them on purpose.
GENERATOR_DIGESTS = [
    "8b53603ddce4d7c5",
    "c45db25976549245",
    "27a94bdbc11ab1cf",
    "fe48ac163aaf93e9",
    "3ce35c4691c2f4b4",
    "2eaa46ddb266f9e6",
    "4c1071fcad0a6231",
    "ec45333add0c3d8f",
]


@st.composite
def repair_batches(draw, code):
    """1-4 rows of a lost chunk and distinct survivors, the same count
    per row: exactly ``k`` for RS; for LRC any 1..n-1, often spanning,
    sometimes not."""
    size = code.k if isinstance(code, RSCode) else draw(st.integers(1, code.n - 1))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        lost = draw(st.integers(0, code.n - 1))
        survivors = draw(st.permutations([i for i in range(code.n) if i != lost]))
        rows.append((lost, list(survivors[:size])))
    return rows


class TestCodes:
    @pytest.mark.parametrize(
        "code, digest", zip(CODES, GENERATOR_DIGESTS), ids=[repr(c) for c in CODES]
    )
    def test_generator(self, code, digest):
        assert hashlib.sha256(code.generator.data.tobytes()).hexdigest()[:16] == digest
        if getattr(code, "construction", None) == "vandermonde":
            vand = GFMatrix.vandermonde(code.field, code.n, code.k)
            top = GFMatrix(code.field, vand.data[: code.k])
            assert code.generator == vand @ gauss.invert(top)

    @settings(deadline=None)
    @given(data=st.data())
    def test_repair_vectors(self, data):
        code = data.draw(st.sampled_from(CODES))
        rows = data.draw(repair_batches(code))
        g = code.generator
        want = [
            outcome(lambda: gauss.solve_right(g.take_rows(h), g.row(lost).tolist()))
            for lost, h in rows
        ]
        lost = np.array([r[0] for r in rows])
        helpers = np.array([r[1] for r in rows])
        unsolved = [s for s, w in enumerate(want) if isinstance(w, tuple)]
        if unsolved:
            first = rows[unsolved[0]][0]
            with pytest.raises(InsufficientChunksError, match=f"^chunk {first} "):
                code.repair_vectors(lost, helpers)
        else:
            assert code.repair_vectors(lost, helpers).tolist() == want
            # The per-row API reads the code's one entry per helper *set*:
            # the solve over the set ascending, in the order asked.  Where
            # the helpers are independent, that is ``want``.
            assert [code.repair_vector(*r) for r in rows] == [
                solved_ascending(g, *r) for r in rows
            ]

    @settings(deadline=None)
    @given(data=st.data())
    def test_decode(self, data):
        code = data.draw(st.sampled_from(CODES))
        length = 16
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        dtype = code.field.tables.dtype
        stripe = np.array(
            code.encode_stripe(list(rng.integers(0, code.field.order, (code.k, length),
                                                 dtype=dtype)))
        )
        avail = sorted(data.draw(
            st.sets(st.integers(0, code.n - 1), min_size=code.k)
        ))
        basis = gauss.independent_rows(code.generator.take_rows(avail))
        if len(basis) < code.k:
            with pytest.raises(InsufficientChunksError):
                code.decode({i: stripe[i] for i in avail})
            return
        chosen = [avail[b] for b in basis]
        inverse = gauss.invert(code.generator.take_rows(chosen))
        want = inverse @ GFMatrix(code.field, stripe[chosen])
        got = code.decode({i: stripe[i] for i in avail})
        assert np.array_equal(np.array(got), want.data)
        assert np.array_equal(want.data, stripe[: code.k])
