"""Tests for the product-matrix MSR regenerating codes.

Covers the flat :class:`PMMSRCode` (parameter validation, the
degenerate ``d = k`` point at ``k = 2``), the two-tier
:class:`RackAwareMSRCode`, and pickling both through ``__reduce__``,
across a real ``ProcessPoolExecutor`` too.
"""

import pickle
import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CodingError,
    InsufficientChunksError,
    InvalidCodeParametersError,
)
from repro.erasure.regenerating import PMMSRCode, RackAwareMSRCode


@pytest.fixture(scope="module")
def code():
    return PMMSRCode(n=8, k=4)


@pytest.fixture(scope="module")
def encoded(code):
    rng = np.random.default_rng(5)
    packets = [rng.integers(0, 256, 24, dtype=np.uint8) for _ in range(code.B)]
    return packets, code.encode(packets)


class TestParameters:
    def test_derived_parameters(self, code):
        assert code.d == 6
        assert code.alpha == 3
        assert code.B == 12

    def test_k_too_small(self):
        with pytest.raises(InvalidCodeParametersError):
            PMMSRCode(n=5, k=1)

    def test_n_must_exceed_d(self):
        with pytest.raises(InvalidCodeParametersError):
            PMMSRCode(n=6, k=4)  # d = 6, need n > 6

    def test_field_capacity(self):
        with pytest.raises(InvalidCodeParametersError):
            PMMSRCode(n=300, k=3, w=8)

    def test_repair_ratio_is_two(self, code):
        assert code.repair_traffic_ratio() == pytest.approx(2.0)
        assert code.rs_equivalent_repair_ratio() == 4.0

    def test_lambdas_distinct(self, code):
        assert len(set(code._lambdas)) == code.n

    def test_repr(self, code):
        assert "PMMSRCode(n=8, k=4" in repr(code)


class TestEncode:
    def test_shapes(self, code, encoded):
        _, contents = encoded
        assert len(contents) == code.n
        for c in contents:
            assert len(c) == code.alpha

    def test_wrong_packet_count(self, code):
        with pytest.raises(CodingError):
            code.encode([np.zeros(8, dtype=np.uint8)] * (code.B - 1))

    def test_mismatched_packet_sizes(self, code):
        packets = [np.zeros(8, dtype=np.uint8) for _ in range(code.B)]
        packets[3] = np.zeros(16, dtype=np.uint8)
        with pytest.raises(CodingError):
            code.encode(packets)


class TestDecode:
    def test_any_k_subset(self, code, encoded):
        packets, contents = encoded
        random.seed(1)
        for _ in range(8):
            nodes = random.sample(range(code.n), code.k)
            got = code.decode({i: contents[i] for i in nodes})
            for a, b in zip(got, packets):
                assert np.array_equal(a, b), nodes

    def test_too_few_nodes(self, code, encoded):
        _, contents = encoded
        with pytest.raises(InsufficientChunksError):
            code.decode({0: contents[0]})

    def test_malformed_content(self, code, encoded):
        _, contents = encoded
        bad = {i: contents[i] for i in range(code.k)}
        bad[0] = contents[0][:1]
        with pytest.raises(CodingError):
            code.decode(bad)


class TestRepair:
    def test_every_node_repairable(self, code, encoded):
        _, contents = encoded
        random.seed(2)
        for failed in range(code.n):
            helpers = random.sample(
                [i for i in range(code.n) if i != failed], code.d
            )
            symbols = {
                h: code.repair_symbol(h, failed, contents[h]) for h in helpers
            }
            rebuilt = code.repair(failed, symbols)
            for a, b in zip(rebuilt, contents[failed]):
                assert np.array_equal(a, b), failed

    def test_beta_is_one_packet(self, code, encoded):
        """Each helper ships exactly one packet-sized symbol."""
        _, contents = encoded
        symbol = code.repair_symbol(1, 0, contents[1])
        assert symbol.shape == contents[1][0].shape

    def test_wrong_helper_count(self, code, encoded):
        _, contents = encoded
        symbols = {
            h: code.repair_symbol(h, 0, contents[h]) for h in range(1, code.d)
        }
        with pytest.raises(InsufficientChunksError):
            code.repair(0, symbols)

    def test_self_help_rejected(self, code, encoded):
        _, contents = encoded
        with pytest.raises(CodingError):
            code.repair_symbol(0, 0, contents[0])

    def test_failed_in_helper_set_rejected(self, code, encoded):
        _, contents = encoded
        symbols = {
            h: code.repair_symbol(h, 1, contents[h])
            for h in range(2, 2 + code.d - 1)
        }
        symbols[1] = contents[1][0]
        with pytest.raises(CodingError):
            code.repair(1, symbols)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_repair_random_instances(self, seed):
        code = PMMSRCode(n=7, k=3)
        rng = np.random.default_rng(seed)
        packets = [
            rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(code.B)
        ]
        contents = code.encode(packets)
        failed = seed % code.n
        helpers = [i for i in range(code.n) if i != failed][: code.d]
        symbols = {
            h: code.repair_symbol(h, failed, contents[h]) for h in helpers
        }
        rebuilt = code.repair(failed, symbols)
        for a, b in zip(rebuilt, contents[failed]):
            assert np.array_equal(a, b)

    def test_repair_traffic_beats_decode_traffic(self, code, encoded):
        """MSR's point: d packets to repair one node vs B packets to
        decode everything (what naive RS repair would fetch)."""
        assert code.d < code.B


class TestDegenerateK2:
    """k = 2 is the floor: d = 2k - 2 = 2 = k, alpha = 1, B = 2.

    Repair contacts exactly as many helpers as a decode would read —
    the MSR saving vanishes but every operation must still hold.
    """

    @pytest.fixture(scope="class")
    def k2(self):
        return PMMSRCode(n=4, k=2)

    def test_parameters_collapse(self, k2):
        assert k2.d == k2.k == 2
        assert k2.alpha == 1
        assert k2.B == 2
        assert k2.repair_traffic_ratio() == pytest.approx(2.0)

    def test_roundtrip(self, k2):
        rng = np.random.default_rng(9)
        packets = [
            rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(k2.B)
        ]
        contents = k2.encode(packets)
        decoded = k2.decode({0: contents[0], 2: contents[2]})
        for a, b in zip(decoded, packets):
            assert np.array_equal(a, b)
        for failed in range(k2.n):
            helpers = [i for i in range(k2.n) if i != failed][: k2.d]
            symbols = {
                h: k2.repair_symbol(h, failed, contents[h]) for h in helpers
            }
            rebuilt = k2.repair(failed, symbols)
            assert np.array_equal(rebuilt[0], contents[failed][0])


def _roundtrip_worker(code, seed):
    """Pool worker: encode then repair node 0; True on byte identity."""
    rng = np.random.default_rng(seed)
    packets = [
        rng.integers(0, 256, 8, dtype=np.uint8) for _ in range(code.B)
    ]
    if isinstance(code, RackAwareMSRCode):
        contents = code.encode(packets)
        helpers = list(range(1, 1 + code.dbar))
        for slot in range(code.u):
            symbols = {
                h: code.repair_symbol(h, 0, slot, contents[h][slot])
                for h in helpers
            }
            rebuilt = code.repair_node(0, slot, symbols)
            if not all(
                np.array_equal(a, b)
                for a, b in zip(rebuilt, contents[0][slot])
            ):
                return False
        return True
    contents = code.encode(packets)
    helpers = list(range(1, 1 + code.d))
    symbols = {h: code.repair_symbol(h, 0, contents[h]) for h in helpers}
    rebuilt = code.repair(0, symbols)
    return all(np.array_equal(a, b) for a, b in zip(rebuilt, contents[0]))


class TestPickling:
    @pytest.mark.parametrize(
        "code",
        [PMMSRCode(n=7, k=3), RackAwareMSRCode(nbar=5, kbar=2, u=3)],
        ids=["pm-msr", "rack-aware"],
    )
    def test_reduce_roundtrip(self, code):
        clone = pickle.loads(pickle.dumps(code))
        assert repr(clone) == repr(code)

    def test_codes_work_in_pool_workers(self):
        codes = [PMMSRCode(n=7, k=3), RackAwareMSRCode(nbar=5, kbar=2, u=2)]
        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [
                pool.submit(_roundtrip_worker, code, seed)
                for seed, code in enumerate(codes)
            ]
            assert all(f.result() for f in futures)


class TestRackAwareParameters:
    def test_derived_parameters(self):
        code = RackAwareMSRCode(nbar=5, kbar=3, u=4)
        assert code.dbar == 4
        assert code.alpha == 2
        assert code.B == 3 * 2 * 4
        assert code.num_nodes == 20

    def test_u_must_be_positive(self):
        with pytest.raises(InvalidCodeParametersError):
            RackAwareMSRCode(nbar=5, kbar=2, u=0)

    def test_nbar_must_exceed_dbar(self):
        # kbar = 3 -> dbar = 4, so nbar = 4 racks are too few.
        with pytest.raises(InvalidCodeParametersError):
            RackAwareMSRCode(nbar=4, kbar=3, u=2)

    def test_kbar_too_small(self):
        with pytest.raises(InvalidCodeParametersError):
            RackAwareMSRCode(nbar=4, kbar=1, u=2)

    def test_metrics(self):
        code = RackAwareMSRCode(nbar=5, kbar=3, u=2)
        assert code.cross_rack_repair_packets() == 4
        assert code.cross_rack_chunk_units() == pytest.approx(2.0)
        assert code.storage_overhead() == pytest.approx(5 / 3)

    def test_repr(self):
        assert "RackAwareMSRCode(nbar=5, kbar=2" in repr(
            RackAwareMSRCode(nbar=5, kbar=2, u=2)
        )


class TestRackAwareCoding:
    @pytest.fixture(scope="class")
    def rcode(self):
        return RackAwareMSRCode(nbar=5, kbar=3, u=3)

    @pytest.fixture(scope="class")
    def rencoded(self, rcode):
        rng = np.random.default_rng(13)
        packets = [
            rng.integers(0, 256, 24, dtype=np.uint8)
            for _ in range(rcode.B)
        ]
        return packets, rcode.encode(packets)

    def test_encode_shape(self, rcode, rencoded):
        _, contents = rencoded
        assert len(contents) == rcode.nbar
        for rack in contents:
            assert len(rack) == rcode.u
            for node in rack:
                assert len(node) == rcode.alpha

    def test_encode_wrong_packet_count(self, rcode):
        with pytest.raises(CodingError):
            rcode.encode([np.zeros(8, dtype=np.uint8)] * (rcode.B - 1))

    def test_decode_any_kbar_racks(self, rcode, rencoded):
        packets, contents = rencoded
        random.seed(3)
        for _ in range(5):
            racks = random.sample(range(rcode.nbar), rcode.kbar)
            decoded = rcode.decode({r: contents[r] for r in racks})
            for a, b in zip(decoded, packets):
                assert np.array_equal(a, b), racks

    def test_decode_too_few_racks(self, rcode, rencoded):
        _, contents = rencoded
        with pytest.raises(InsufficientChunksError):
            rcode.decode({0: contents[0]})

    def test_decode_malformed_rack(self, rcode, rencoded):
        _, contents = rencoded
        bad = {r: contents[r] for r in range(rcode.kbar)}
        bad[0] = contents[0][:1]  # only one node slot instead of u
        with pytest.raises(CodingError):
            rcode.decode(bad)

    def test_repair_every_node(self, rcode, rencoded):
        _, contents = rencoded
        random.seed(4)
        for failed in range(rcode.nbar):
            helpers = random.sample(
                [r for r in range(rcode.nbar) if r != failed], rcode.dbar
            )
            for slot in range(rcode.u):
                symbols = {
                    h: rcode.repair_symbol(
                        h, failed, slot, contents[h][slot]
                    )
                    for h in helpers
                }
                rebuilt = rcode.repair_node(failed, slot, symbols)
                for a, b in zip(rebuilt, contents[failed][slot]):
                    assert np.array_equal(a, b), (failed, slot)

    def test_slot_out_of_range(self, rcode, rencoded):
        _, contents = rencoded
        with pytest.raises(CodingError):
            rcode.repair_symbol(1, 0, rcode.u, contents[1][0])
        with pytest.raises(CodingError):
            rcode.repair_node(0, -1, {})

    def test_wrong_helper_count(self, rcode, rencoded):
        _, contents = rencoded
        symbols = {
            h: rcode.repair_symbol(h, 0, 0, contents[h][0])
            for h in range(1, rcode.dbar)
        }
        with pytest.raises(InsufficientChunksError):
            rcode.repair_node(0, 0, symbols)
