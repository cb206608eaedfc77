"""Tests for per-stripe and multi-stripe solution objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RecoveryError
from repro.recovery.solution import MultiStripeSolution, PerStripeSolution


def sol(stripe=0, lost=0, failed_rack=0, chunks_by_rack=None):
    return PerStripeSolution(
        stripe_id=stripe,
        lost_chunk=lost,
        failed_rack=failed_rack,
        chunks_by_rack=chunks_by_rack or {0: (1, 2), 1: (3,), 2: (4, 5)},
    )


class TestPerStripe:
    def test_helpers_sorted(self):
        assert sol().helpers == (1, 2, 3, 4, 5)

    def test_helper_count(self):
        assert sol().helper_count == 5

    def test_intact_racks(self):
        s = sol()
        assert s.intact_racks_accessed == (1, 2)
        assert s.num_intact_racks == 2

    def test_uses_rack(self):
        s = sol()
        assert s.uses_rack(1)
        assert not s.uses_rack(3)

    def test_chunks_from_rack(self):
        s = sol()
        assert s.chunks_from_rack(2) == (4, 5)
        assert s.chunks_from_rack(9) == ()

    def test_cross_rack_chunks_aggregated(self):
        assert sol().cross_rack_chunks(aggregated=True) == {1: 1, 2: 1}

    def test_cross_rack_chunks_direct(self):
        assert sol().cross_rack_chunks(aggregated=False) == {1: 1, 2: 2}

    def test_failed_rack_never_counts(self):
        assert 0 not in sol().cross_rack_chunks(aggregated=False)

    def test_rack_map(self):
        assert sol().rack_map() == {1: 0, 2: 0, 3: 1, 4: 2, 5: 2}

    def test_rejects_lost_chunk_retrieval(self):
        with pytest.raises(RecoveryError):
            sol(lost=3)

    def test_rejects_duplicate_chunk(self):
        with pytest.raises(RecoveryError):
            sol(chunks_by_rack={0: (1,), 1: (1,)})

    def test_rejects_empty_rack_entry(self):
        with pytest.raises(RecoveryError):
            sol(chunks_by_rack={0: ()})


class TestMultiStripe:
    def make(self, aggregated=True):
        s0 = sol(stripe=0, chunks_by_rack={1: (1, 2), 2: (3,)})
        s1 = sol(stripe=1, chunks_by_rack={1: (4,), 3: (5, 6)})
        return MultiStripeSolution([s1, s0], num_racks=4, aggregated=aggregated)

    def test_sorted_by_stripe(self):
        ms = self.make()
        assert [s.stripe_id for s in ms] == [0, 1]
        assert len(ms) == 2

    def test_empty_rejected(self):
        with pytest.raises(RecoveryError):
            MultiStripeSolution([], num_racks=3, aggregated=True)

    def test_mixed_failed_racks_rejected(self):
        with pytest.raises(RecoveryError):
            MultiStripeSolution(
                [sol(failed_rack=0), sol(stripe=1, failed_rack=1)],
                num_racks=4,
                aggregated=True,
            )

    def test_traffic_by_rack_aggregated(self):
        ms = self.make(aggregated=True)
        assert ms.traffic_by_rack() == [0, 2, 1, 1]
        assert ms.total_cross_rack_traffic() == 4

    def test_traffic_by_rack_direct(self):
        ms = self.make(aggregated=False)
        assert ms.traffic_by_rack() == [0, 3, 1, 2]

    def test_lambda(self):
        ms = self.make(aggregated=True)
        # intact traffic [2, 1, 1] -> max 2 / mean 4/3
        assert ms.load_balancing_rate() == pytest.approx(2 / (4 / 3))

    def test_lambda_at_least_one(self):
        ms = self.make()
        assert ms.load_balancing_rate() >= 1.0

    def test_lambda_defined_without_traffic(self):
        s = sol(stripe=0, chunks_by_rack={0: (1, 2, 3)})
        ms = MultiStripeSolution([s], num_racks=3, aggregated=True)
        assert ms.load_balancing_rate() == 1.0

    def test_solution_for(self):
        ms = self.make()
        assert ms.solution_for(1).stripe_id == 1
        with pytest.raises(RecoveryError):
            ms.solution_for(9)

    def test_replace(self):
        ms = self.make()
        new = sol(stripe=0, chunks_by_rack={3: (1, 2, 3)})
        replaced = ms.replace(new)
        assert replaced.solution_for(0).uses_rack(3)
        # Original untouched.
        assert ms.solution_for(0).uses_rack(1)

    def test_replace_unknown_stripe(self):
        ms = self.make()
        with pytest.raises(RecoveryError):
            ms.replace(sol(stripe=5))

    def test_repr_mentions_lambda(self):
        assert "lambda=" in repr(self.make())


RACKS = 5


@st.composite
def per_stripe(draw, stripe):
    """A solution over up to three of the five racks (rack 0 failed)."""
    racks = draw(
        st.lists(st.integers(0, RACKS - 1), min_size=1, max_size=3, unique=True)
    )
    chunks = iter(range(1, 10))
    return sol(
        stripe=stripe,
        chunks_by_rack={
            rack: tuple(next(chunks) for _ in range(draw(st.integers(1, 2))))
            for rack in racks
        },
    )


@st.composite
def substitution_runs(draw):
    stripes = draw(
        st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True)
    )
    initial = [draw(per_stripe(stripe)) for stripe in stripes]
    steps = [
        # (replacement, derive the totals first?, derive the index first?)
        (
            draw(per_stripe(draw(st.sampled_from(stripes)))),
            draw(st.booleans()),
            draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 8)))
    ]
    return initial, steps, draw(st.booleans())


def derived(ms):
    return (
        list(ms.solutions),
        ms.traffic_by_rack(),
        {rack: ms.solutions_using(rack) for rack in range(RACKS + 1)},
        ms.load_balancing_rate(),
    )


class TestReplaceCarriesWhatWasDerived:
    @settings(max_examples=300, deadline=None)
    @given(substitution_runs())
    def test_equals_a_solution_built_from_scratch(self, run):
        initial, steps, aggregated = run
        current = MultiStripeSolution(initial, RACKS, aggregated)
        expected = list(current.solutions)
        for new, warm_traffic, warm_index in steps:
            if warm_traffic:
                current.traffic_by_rack()
            if warm_index:
                current.solutions_using(0)
            before = derived(current) if warm_traffic and warm_index else None
            receiver, current = current, current.replace(new)
            expected = [new if s.stripe_id == new.stripe_id else s for s in expected]
            scratch = MultiStripeSolution(expected, RACKS, aggregated)
            assert derived(current) == derived(scratch)
            assert (current.num_racks, current.aggregated, current.failed_rack) == (
                scratch.num_racks, scratch.aggregated, scratch.failed_rack
            )
            if before is not None:  # the receiver is left as it was
                assert derived(receiver) == before
            assert current.solution_for(new.stripe_id) is new

    def test_a_substitution_costs_its_own_size(self, monkeypatch):
        """Fifty substitutions into 200 stripes, reading traffic and the
        rack index after each (Algorithm 2's loop): only the two
        solutions that differ are ever asked for their traffic again."""
        asked = []
        original = PerStripeSolution.cross_rack_chunks
        monkeypatch.setattr(
            PerStripeSolution,
            "cross_rack_chunks",
            lambda self, aggregated: asked.append(self.stripe_id)
            or original(self, aggregated),
        )
        ms = MultiStripeSolution([sol(stripe=i) for i in range(200)], 4, True)
        assert ms.traffic_by_rack() == [0, 200, 200, 0]
        assert len(ms.solutions_using(1)) == 200 and len(asked) == 200
        for i in range(50):
            ms = ms.replace(sol(stripe=i, chunks_by_rack={0: (1, 2), 3: (3, 4, 5)}))
            assert ms.traffic_by_rack() == [0, 199 - i, 199 - i, i + 1]
            assert [s.stripe_id for s in ms.solutions_using(3)] == list(range(i + 1))
        assert len(asked) == 200 + 2 * 50

    def test_replace_refuses_another_failed_rack(self):
        ms = MultiStripeSolution([sol(stripe=0), sol(stripe=1)], 4, True)
        ms.traffic_by_rack()
        with pytest.raises(RecoveryError):
            ms.replace(sol(stripe=1, failed_rack=2))
        assert ms.traffic_by_rack() == [0, 2, 2, 0]
