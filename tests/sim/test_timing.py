"""Tests for the per-stripe serialized timing model."""

import pytest

from repro.cluster.failure import FailureInjector
from repro.cluster.placement import RandomPlacementPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import BandwidthProfile, ClusterTopology
from repro.erasure.rs import RSCode
from repro.recovery.baselines import CarStrategy, RandomRecoveryStrategy
from repro.recovery.planner import plan_recovery
from repro.sim.timing import (
    SerialRecoveryTiming,
    StripeSerialTimingModel,
    StripeTiming,
)

MB = 1 << 20


def failed_cluster(seed=0, stripes=15, k=6, m=3, uplinks=None):
    code = RSCode(k, m)
    topo = ClusterTopology.from_rack_sizes(
        [4, 3, 3, 3],
        bandwidth=BandwidthProfile(
            node_nic_gbps=1.0,
            rack_uplink_gbps=1.0,
            per_rack_uplink_gbps=uplinks,
        ),
    )
    placement = RandomPlacementPolicy(rng=seed).place(topo, stripes, k, m)
    state = ClusterState(topo, code, placement)
    event = FailureInjector(rng=seed).fail_random_node(state)
    return state, event


@pytest.fixture
def plans():
    state, event = failed_cluster(seed=1)
    car = CarStrategy().solve(state)
    rr = RandomRecoveryStrategy(rng=1).solve(state)
    return (
        state,
        plan_recovery(state, event, car),
        plan_recovery(state, event, rr),
    )


class TestSerialModel:
    def test_per_stripe_entries(self, plans):
        state, car_plan, _ = plans
        timing = StripeSerialTimingModel(state).evaluate(car_plan, 4 * MB)
        assert len(timing.stripes) == len(car_plan.stripe_plans)
        for s in timing.stripes:
            assert s.transmission > 0
            assert s.computation > 0
            assert s.total == pytest.approx(s.transmission + s.computation)

    def test_transmission_dominates(self, plans):
        """The paper's Figure 10(a) headline: transmission >> computation."""
        state, car_plan, rr_plan = plans
        model = StripeSerialTimingModel(state)
        for plan in (car_plan, rr_plan):
            timing = model.evaluate(plan, 8 * MB)
            assert timing.transmission_ratio > 0.5

    def test_car_and_rr_computation_close(self, plans):
        """Figure 10(b): CAR does not change the total decode work."""
        state, car_plan, rr_plan = plans
        model = StripeSerialTimingModel(state)
        car = model.evaluate(car_plan, 8 * MB).computation_time
        rr = model.evaluate(rr_plan, 8 * MB).computation_time
        assert 0.6 <= car / rr <= 1.4

    def test_rr_transmission_is_k_chunks_through_downlink(self):
        state, event = failed_cluster(seed=2)
        rr = RandomRecoveryStrategy(rng=2).solve(state)
        plan = plan_recovery(state, event, rr)
        timing = StripeSerialTimingModel(state).evaluate(plan, 4 * MB)
        nic = 125e6
        expected = state.code.k * 4 * MB / nic
        for s in timing.stripes:
            assert s.transmission >= expected - 1e-9

    def test_slow_racks_partial_sets_stage_c(self):
        """Each source rack's own uplink: with A3's at a tenth of the
        NIC, a stripe that ships a partial from A3 spends ten chunk
        times in stage C instead of one per partial; a stripe that does
        not touch A3 is timed as on the uniform twin."""
        slow, chunk_time = 2, 4 * MB / 125e6
        per_stripe = {}
        for label, uplinks in (("twin", None), ("mixed", (1.0, 1.0, 0.1, 1.0))):
            state, event = failed_cluster(seed=1, uplinks=uplinks)
            assert state.topology.rack_of(event.failed_node) != slow
            # Without Algorithm 2 both topologies get the same picks.
            plan = plan_recovery(
                state, event, CarStrategy(load_balance=False).solve(state)
            )
            timing = StripeSerialTimingModel(state).evaluate(plan, 4 * MB)
            per_stripe[label] = {
                sp.stripe_id: (
                    [h[0] for h in sp.window.helpers(sp.row) if h[5]],
                    st.transmission,
                )
                for sp, st in zip(plan.stripe_plans, timing.stripes)
            }
        touched = 0
        for stripe, (sources, mixed) in per_stripe["mixed"].items():
            _, twin = per_stripe["twin"][stripe]
            if slow in sources:
                touched += 1
                assert mixed - twin == pytest.approx(
                    (10 - len(sources)) * chunk_time
                )
            else:
                assert mixed == twin
        assert 0 < touched < len(per_stripe["mixed"])

    def test_car_transmission_below_rr(self, plans):
        state, car_plan, rr_plan = plans
        model = StripeSerialTimingModel(state)
        car = model.evaluate(car_plan, 8 * MB)
        rr = model.evaluate(rr_plan, 8 * MB)
        assert car.transmission_time < rr.transmission_time

    def test_linear_in_chunk_size(self, plans):
        state, car_plan, _ = plans
        model = StripeSerialTimingModel(state)
        t1 = model.evaluate(car_plan, 4 * MB).total_time
        t2 = model.evaluate(car_plan, 8 * MB).total_time
        assert t2 == pytest.approx(2 * t1, rel=1e-6)

    def test_ratios_sum_to_one(self, plans):
        state, car_plan, _ = plans
        timing = StripeSerialTimingModel(state).evaluate(car_plan, MB)
        assert timing.computation_ratio + timing.transmission_ratio == pytest.approx(1.0)


class TestZeroDurationGuards:
    """Ratio/average properties must not divide by zero on empty runs."""

    def test_serial_timing_empty_stripes(self):
        timing = SerialRecoveryTiming(stripes=())
        assert timing.time_per_chunk == 0.0
        assert timing.computation_ratio == 0.0
        assert timing.transmission_ratio == 1.0

    def test_serial_timing_zero_duration(self):
        timing = SerialRecoveryTiming(
            stripes=(StripeTiming(stripe_id=0, transmission=0.0,
                                  computation=0.0),)
        )
        assert timing.time_per_chunk == 0.0
        assert timing.computation_ratio == 0.0

    def test_recovery_timing_zero_chunks(self):
        from repro.sim.recovery_sim import RecoveryTiming

        timing = RecoveryTiming(
            total_time=0.0, computation_time=0.0, transmission_time=0.0,
            disk_time=0.0, num_chunks=0,
        )
        assert timing.time_per_chunk == 0.0
        assert timing.computation_ratio == 0.0

    def test_traffic_report_zero_stripes(self):
        from repro.recovery.metrics import TrafficReport

        report = TrafficReport(
            strategy="CAR", chunk_size_bytes=1, per_rack_chunks=(),
            failed_rack=0, lambda_rate=0.0, num_stripes=0,
        )
        assert report.per_stripe_chunks() == 0.0
