"""Microbenchmarks of the hot kernels under the recovery pipeline.

These time the building blocks the figures depend on — GF buffer
kernels, RS encode/decode/repair, Theorem 1 selection, Algorithm 2
balancing, and max-min water-filling — using pytest-benchmark's
statistical timing (multiple rounds, real measurements).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.failure import FailureInjector
from repro.erasure.rs import RSCode
from repro.experiments.configs import CFS2, build_state
from repro.gf.field import GF8
from repro.gf.vector import dot_rows, mul_scalar
from repro.network.simulator import maxmin_rates
from repro.recovery.balancer import GreedyLoadBalancer
from repro.recovery.baselines import CarStrategy
from repro.recovery.selector import CarSelector
from repro.recovery.solution import MultiStripeSolution

MB = 1 << 20


@pytest.fixture(scope="module")
def chunk_1mb():
    rng = np.random.default_rng(0)
    return rng.integers(0, 256, MB, dtype=np.uint8)


def test_gf_mul_scalar_throughput(benchmark, chunk_1mb):
    result = benchmark(mul_scalar, GF8, 0x57, chunk_1mb)
    assert result.shape == chunk_1mb.shape


@pytest.mark.parametrize(
    "size", [64 * 1024, MB, 4 * MB], ids=["64k", "1m", "4m"]
)
def test_gf_dot_rows_k6(benchmark, size):
    """The repair kernel across the chunk-size range: six *distinct*
    inputs, so the bench carries six buffers' worth of cache pressure,
    and ``input_mib_per_second`` must stay flat (or rise) from 64 KiB to
    4 MiB."""
    rng = np.random.default_rng(size)
    bufs = [rng.integers(0, 256, size, dtype=np.uint8) for _ in range(6)]
    coeffs = [3, 5, 7, 11, 13, 17]
    result = benchmark(dot_rows, GF8, coeffs, bufs)
    assert result.shape == bufs[0].shape
    if benchmark.stats is not None:  # None under --benchmark-disable
        benchmark.extra_info["input_mib_per_second"] = (
            6 * size / MB / benchmark.stats.stats.median
        )


def test_rs_encode_6_3(benchmark):
    code = RSCode(6, 3)
    rng = np.random.default_rng(1)
    data = [rng.integers(0, 256, 256 * 1024, dtype=np.uint8) for _ in range(6)]
    parity = benchmark(code.encode, data)
    assert len(parity) == 3


def test_rs_repair_vector_10_4(benchmark):
    code = RSCode(10, 4)
    helpers = list(range(1, 11))
    y = benchmark(code.repair_vector, 0, helpers)
    assert len(y) == 10


def test_rs_single_chunk_repair(benchmark):
    code = RSCode(6, 3)
    rng = np.random.default_rng(2)
    data = [rng.integers(0, 256, 256 * 1024, dtype=np.uint8) for _ in range(6)]
    stripe = code.encode_stripe(data)
    helpers = {i: stripe[i] for i in range(1, 7)}
    rebuilt = benchmark(code.reconstruct, 0, helpers)
    assert np.array_equal(rebuilt, stripe[0])


def test_theorem1_selection_100_stripes(benchmark):
    state = build_state(CFS2, seed=1)
    FailureInjector(rng=1).fail_random_node(state)
    views = state.views()
    selector = CarSelector(state.topology, state.code.k)

    def select_all():
        return [selector.initial_solution(v) for v in views]

    solutions = benchmark(select_all)
    assert len(solutions) == len(views)


def test_algorithm2_balancing_100_stripes(benchmark):
    state = build_state(CFS2, seed=2)
    FailureInjector(rng=2).fail_random_node(state)
    views = {v.stripe_id: v for v in state.views()}
    selector = CarSelector(state.topology, state.code.k)
    initial = MultiStripeSolution(
        [selector.initial_solution(v) for v in views.values()],
        num_racks=state.topology.num_racks,
        aggregated=True,
    )

    def balance():
        return GreedyLoadBalancer(iterations=50).balance(
            views, initial, selector
        )

    balanced, trace = benchmark(balance)
    assert balanced.load_balancing_rate() <= initial.load_balancing_rate() + 1e-12


def test_car_end_to_end_solve(benchmark):
    state = build_state(CFS2, seed=3)
    FailureInjector(rng=3).fail_random_node(state)
    solution = benchmark(lambda: CarStrategy().solve(state))
    assert solution.aggregated


def test_maxmin_waterfill_200_flows(benchmark):
    rng = np.random.default_rng(4)
    incidence = rng.random((50, 200)) < 0.1
    for f in range(200):
        if not incidence[:, f].any():
            incidence[rng.integers(50), f] = True
    caps = rng.uniform(10.0, 100.0, 50)
    rates = benchmark(maxmin_rates, incidence, caps)
    assert (incidence @ rates <= caps + 1e-6).all()
