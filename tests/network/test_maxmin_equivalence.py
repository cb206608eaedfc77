"""Property test: batched tie-freezing water-filling equals the serial one.

``maxmin_rates`` now freezes *all* links tied at the bottleneck share in
one iteration.  For a tied link, removing another tied link's frozen
flows scales its remaining capacity and its unfrozen-flow count by the
same fair share, so its own share is unchanged — the batched pass is
mathematically identical to one-at-a-time freezing.  This test pins the
implementations together within floating-point tolerance.

It also holds path classes to flows: a column of weight ``w`` stands for
``w`` flows on one path, and its rate must be exactly each of theirs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.simulator import maxmin_rates


def reference_maxmin_rates(incidence, capacities):
    """The pre-optimisation loop: freeze one bottleneck link per pass."""
    num_links, num_flows = incidence.shape
    if num_flows == 0:
        return np.zeros(0)
    rates = np.zeros(num_flows)
    unfrozen = np.ones(num_flows, dtype=bool)
    remaining = capacities.astype(np.float64).copy()
    inc = incidence.astype(np.float64)
    for _ in range(num_links + 1):
        counts = inc @ unfrozen
        contended = counts > 0
        if not contended.any():
            break
        share = np.full(num_links, np.inf)
        share[contended] = remaining[contended] / counts[contended]
        bottleneck = int(np.argmin(share))
        r = max(share[bottleneck], 0.0)
        to_freeze = incidence[bottleneck] & unfrozen
        rates[to_freeze] = r
        remaining -= r * (inc[:, to_freeze].sum(axis=1))
        np.maximum(remaining, 0.0, out=remaining)
        unfrozen &= ~to_freeze
        if not unfrozen.any():
            break
    return rates


@st.composite
def fabric_case(draw):
    num_links = draw(st.integers(1, 8))
    num_flows = draw(st.integers(0, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    incidence = rng.random((num_links, num_flows)) < draw(
        st.floats(0.2, 0.9)
    )
    # Every flow must traverse at least one link.
    for f in range(num_flows):
        if not incidence[:, f].any():
            incidence[rng.integers(0, num_links), f] = True
    if draw(st.booleans()):
        # Integer capacities (often equal) force exact share ties — the
        # case where batched freezing must coincide with serial freezing.
        capacities = rng.integers(1, 4, num_links).astype(np.float64)
    else:
        capacities = rng.uniform(0.5, 100.0, num_links)
    return incidence, capacities


class TestMaxminEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(case=fabric_case())
    def test_matches_serial_reference(self, case):
        incidence, capacities = case
        got = maxmin_rates(
            incidence, capacities, np.ones(incidence.shape[1])
        )
        want = reference_maxmin_rates(incidence, capacities)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_exact_tie_all_links_frozen_in_one_shape(self):
        """Two identical links, disjoint flows: both freeze at 0.5."""
        incidence = np.array([[True, False], [False, True]])
        capacities = np.array([0.5, 0.5])
        rates = maxmin_rates(incidence, capacities, np.ones(2))
        np.testing.assert_allclose(rates, [0.5, 0.5])


@st.composite
def weighted_case(draw):
    """Path classes with flow counts, some of them zero."""
    incidence, capacities = draw(fabric_case())
    weights = np.array(draw(st.lists(
        st.integers(0, 4),
        min_size=incidence.shape[1], max_size=incidence.shape[1],
    )), dtype=np.int64)
    return incidence, capacities, weights


class TestClassWeights:
    """A column of weight ``w`` stands for ``w`` flows on one path."""

    @settings(max_examples=200, deadline=None)
    @given(case=weighted_case())
    def test_matches_the_expanded_per_flow_call(self, case):
        incidence, capacities, weights = case
        got = maxmin_rates(incidence, capacities, weights)
        expanded = np.repeat(incidence, weights, axis=1)
        want = maxmin_rates(expanded, capacities, np.ones(expanded.shape[1]))
        assert np.array_equal(np.repeat(got, weights), want)
        assert not got[weights == 0].any()

    def test_a_weighted_bottleneck(self):
        """Three flows cross links 0 (capacity 2) and 1 (capacity 3), a
        fourth crosses link 1 alone: link 0 freezes the three at 2/3
        and the fourth takes the 1 left on link 1."""
        incidence = np.array([[True, False], [True, True]])
        capacities = np.array([2.0, 3.0])
        rates = maxmin_rates(incidence, capacities, np.array([3, 1]))
        assert np.array_equal(rates, [2.0 / 3.0, 1.0])
