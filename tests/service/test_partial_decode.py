"""``partial-decode`` at the chunkserver, and what a degraded read ships.

The daemons' arithmetic is checked against the library's own
(:func:`~repro.erasure.repair.execute_partial_decode` /
:func:`~repro.erasure.repair.combine_partials`, which the service no
longer calls) and against ground truth; the coordinator's frame-derived
traffic against the planner's figure for the same solution.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cluster.state import ClusterState, DataStore
from repro.erasure import RSCode
from repro.erasure.repair import (
    combine_partials,
    execute_partial_decode,
    split_repair_vector,
)
from repro.errors import ServiceError
from repro.experiments.configs import ALL_CFS, config_by_name
from repro.recovery.baselines import CarStrategy
from repro.recovery.metrics import traffic_report
from repro.recovery.selector import CarSelector
from repro.recovery.solution import MultiStripeSolution
from repro.service.cluster import LocalCluster
from repro.service.protocol import Connection, MsgType, read_frame, write_frame

STRIPES = 10
CHUNK = 512


def make_cluster(tmp_path, config="CFS2", *, w=None, construction="vandermonde",
                 **kwargs):
    """A cluster whose leases never expire: a failure exists only once the
    test applies it to the state, a killed node is never buried."""
    cluster = LocalCluster(
        workdir=tmp_path, config=config, num_stripes=STRIPES, chunk_size=CHUNK,
        suspect_after=1e6, dead_after=2e6, **kwargs,
    )
    if w is not None:
        cfg, old = config_by_name(config), cluster.state
        code = RSCode(cfg.k, cfg.m, w=w, construction=construction)
        cluster.state = ClusterState(
            old.topology, code, old.placement,
            DataStore(code, STRIPES, chunk_size=CHUNK, seed=cluster.seed),
        )
    return cluster


def run(cluster, drill):
    async def main():
        await cluster.start()
        try:
            return await drill()
        finally:
            await cluster.stop()

    return asyncio.run(main())


def server_of(cluster, node):
    return next(cs for cs in cluster.chunkservers if node in cs.nodes)


def planned(cluster, stripe):
    """(view, solution, plan, per-group requests) the way the coordinator
    plans a degraded read of ``stripe``; the delegate is the first helper."""
    state = cluster.state
    view = state.stripe_view(stripe)
    solution = CarSelector(state.topology, state.code.k).initial_solution(view)
    plan = split_repair_vector(
        state.code, view.lost_chunk, solution.helpers, solution.rack_map()
    )
    requests = {}
    for group in plan.groups:
        nodes = [view.surviving[c] for c in group.helper_indices]
        home = server_of(cluster, nodes[0])
        requests[group.group_key] = {
            "type": MsgType.PARTIAL_DECODE,
            "stripe": stripe,
            "w": state.code.w,
            "delegate": nodes[0],
            "helpers": [
                list(h)
                for h in zip(group.helper_indices, nodes, group.coefficients)
            ],
            "peers": {
                str(n): server_of(cluster, n).address
                for n in nodes
                if n not in home.nodes
            },
        }
    return view, solution, plan, requests


async def ask(address, *requests):
    """Send ``requests`` down one connection; return the reply frames."""
    conn = await Connection.open(address)
    try:
        replies = []
        for request in requests:
            await write_frame(conn, request)
            replies.append(await read_frame(conn))
        return replies
    finally:
        conn.close()


class TestTheOperation:
    @pytest.mark.parametrize("construction", ["vandermonde", "cauchy"])
    @pytest.mark.parametrize("w", [8, 16])
    @pytest.mark.parametrize("config", ["CFS1", "CFS2"])
    def test_partials_equal_the_library_and_xor_to_ground_truth(
        self, tmp_path, config, w, construction
    ):
        cluster = make_cluster(tmp_path, config, w=w, construction=construction)
        state = cluster.state

        async def drill():
            state.fail_node(cluster.pick_victim())
            client = await cluster.client()
            lost = list(state.affected_stripes())
            assert lost
            for stripe in lost:
                view, solution, plan, requests = planned(cluster, stripe)
                chunks = {
                    c: state.data.chunk(stripe, c) for c in solution.helpers
                }
                reference = execute_partial_decode(state.code, plan, chunks)
                partials = {}
                for key, request in requests.items():
                    home = server_of(cluster, request["delegate"])
                    ((msg, blob),) = await ask(home.address, request)
                    assert msg["type"] == MsgType.PARTIAL_DATA
                    assert msg["rack"] == key
                    assert blob == reference[key].tobytes()
                    partials[key] = np.frombuffer(blob, reference[key].dtype)
                rebuilt = combine_partials(state.code, partials)
                assert state.data.matches(stripe, view.lost_chunk, rebuilt)
                reply = await client.read(stripe)
                assert reply["ok"] and reply["degraded"]
                assert reply["chunk"] == view.lost_chunk
                assert reply["data"] == rebuilt.tobytes()
            await client.close()

        run(cluster, drill)


class TestRefusals:
    def test_each_refusal_is_an_error_frame_on_a_live_connection(self, tmp_path):
        cluster = make_cluster(tmp_path)
        state = cluster.state

        async def drill():
            state.fail_node(cluster.pick_victim())
            stripe = next(iter(state.affected_stripes()))
            view, _, _, requests = planned(cluster, stripe)
            topo = state.topology
            # A group of two or more, so its last helper can be swapped.
            good = next(r for r in requests.values() if len(r["helpers"]) > 1)
            delegate = good["delegate"]
            home = server_of(cluster, delegate)
            chunk, node, coeff = good["helpers"][-1]
            in_the_group = {h[0] for h in good["helpers"]}
            stray_chunk = next(c for c in view.surviving if c not in in_the_group)
            stray_helper = next(
                (c, n) for c, n in view.surviving.items()
                if topo.rack_of(n) != topo.rack_of(delegate)
            )
            hosted_elsewhere = next(
                n for n in range(topo.num_nodes) if n not in home.nodes
            )
            cluster.kill_node(node)

            def swapped(*last):
                return {**good, "helpers": good["helpers"][:-1] + [list(last)]}

            # (what the error says, the nodes it names, the request)
            refused = [
                ("is not served here", [hosted_elsewhere],
                 {**good, "delegate": hosted_elsewhere}),
                ("is not served here", [node], good),  # the killed helper
                ("is not on node", None, swapped(stray_chunk, delegate, coeff)),
                ("outside GF", None, swapped(chunk, node, 1 << state.code.w)),
                ("outside rack", None, swapped(*stray_helper, coeff)),
                ("malformed", None, {**good, "helpers": [[chunk, node]]}),
            ]
            probe = {
                "type": MsgType.READ_CHUNK, "stripe": stripe,
                "chunk": good["helpers"][0][0], "node": delegate,
            }
            replies = await ask(
                home.address,
                *(frame for _, _, request in refused for frame in (request, probe)),
            )
            for (says, names, _), (refusal, _), (alive, blob) in zip(
                refused, replies[0::2], replies[1::2]
            ):
                assert refusal["type"] == MsgType.ERROR, says
                assert says in refusal["error"]
                assert refusal.get("nodes") == names, says
                assert alive["type"] == MsgType.CHUNK_DATA, says
                assert blob == state.data.chunk(stripe, probe["chunk"]).tobytes()

        run(cluster, drill)


class TestPulls:
    def reads(self, tmp_path, daemons):
        cluster = make_cluster(tmp_path, chunkservers=daemons)
        state = cluster.state

        async def drill():
            state.fail_node(cluster.pick_victim())
            client = await cluster.client()
            out = []
            for stripe in state.affected_stripes():
                before = sum(cs.chunks_pulled for cs in cluster.chunkservers)
                reply = await client.read(stripe)
                assert reply["ok"] and reply["degraded"]
                pulled = sum(cs.chunks_pulled for cs in cluster.chunkservers)
                groups = len(planned(cluster, stripe)[2].groups)
                out.append((reply["data"], pulled - before, groups))
            await client.close()
            return out

        return len(cluster.chunkservers), run(cluster, drill), state.code.k

    def test_rack_daemons_pull_nothing_node_daemons_pull_k_minus_groups(
        self, tmp_path
    ):
        _, by_rack, k = self.reads(tmp_path / "racks", 3)
        _, by_node, _ = self.reads(tmp_path / "nodes", 13)
        assert [data for data, _, _ in by_rack] == [d for d, _, _ in by_node]
        assert all(pulled == 0 for _, pulled, _ in by_rack)
        assert by_node and all(
            pulled == k - groups for _, pulled, groups in by_node
        )


class TestDealing:
    @pytest.mark.parametrize("config", ALL_CFS, ids=lambda c: c.name)
    def test_no_daemon_hosts_part_of_a_rack_it_shares(self, tmp_path, config):
        cluster = LocalCluster(
            workdir=tmp_path, config=config, num_stripes=1, chunk_size=64
        )
        topo = cluster.state.topology
        racks = [set(rack.node_ids) for rack in topo.racks]
        for count in range(1, topo.num_nodes + 3):
            dealt = cluster._deal_nodes(count)
            assert sorted(n for nodes in dealt for n in nodes) == list(
                range(topo.num_nodes)
            )
            assert len(dealt) == min(count, topo.num_nodes)
            for nodes in dealt:
                touched = [rack for rack in racks if rack & set(nodes)]
                if count <= len(racks):
                    # whole racks only
                    assert set(nodes) == set().union(*touched)
                else:
                    # one rack only
                    assert len(touched) == 1
            if count >= topo.num_nodes:
                assert all(len(nodes) == 1 for nodes in dealt)


class TestAccounting:
    def test_frame_derived_cross_rack_bytes_equal_the_planners(self, tmp_path):
        cluster = make_cluster(tmp_path)
        state = cluster.state

        async def drill():
            state.fail_node(cluster.pick_victim())
            client = await cluster.client()
            total = 0
            for stripe in list(state.affected_stripes()) * 2:
                solution = planned(cluster, stripe)[1]
                report = traffic_report(
                    MultiStripeSolution(
                        [solution], state.topology.num_racks, aggregated=True
                    ),
                    CHUNK,
                )
                before = (await client.status())["wire_cross_rack_bytes"]
                reply = await client.read(stripe)
                after = (await client.status())["wire_cross_rack_bytes"]
                assert after - before == report.total_bytes
                assert report.total_bytes == reply["racks"] * CHUNK
                total += report.total_bytes
            for stripe in set(range(STRIPES)) - set(state.affected_stripes()):
                assert not (await client.read(stripe))["degraded"]
            assert (await client.status())["wire_cross_rack_bytes"] == total > 0
            await client.close()

        run(cluster, drill)

    def test_connections_are_persistent_and_not_leaked(self, tmp_path):
        cluster = make_cluster(tmp_path)
        state = cluster.state

        async def drill():
            state.fail_node(cluster.pick_victim())
            client = await cluster.client()
            lost = list(state.affected_stripes())
            most_groups = max(len(planned(cluster, s)[2].groups) for s in lost)
            for i in range(200):
                await client.read(i % STRIPES)
            pool = cluster.coordinator._pool
            held = [pool.idle(cs.address) for cs in cluster.chunkservers]
            assert all(1 <= n <= most_groups for n in held), held
            await client.close()

        run(cluster, drill)


class TestHelperLostInsideItsLease:
    def test_a_killed_helper_costs_one_replan(self, tmp_path):
        cluster = make_cluster(tmp_path)
        state = cluster.state

        async def drill():
            victim = cluster.pick_victim()
            state.fail_node(victim)
            client = await cluster.client()
            stripe = next(iter(state.affected_stripes()))
            view, solution, _, _ = planned(cluster, stripe)
            assert (await client.read(stripe))["ok"]
            topo = state.topology
            second = next(
                view.surviving[c] for c in solution.helpers
                if topo.rack_of(view.surviving[c]) != topo.rack_of(victim)
            )
            cluster.kill_node(second)
            assert second not in cluster.coordinator.detector.dead_nodes()
            reply = await client.read(stripe)
            assert reply["ok"] and reply["degraded"]
            assert reply["data"] == state.data.chunk(
                stripe, view.lost_chunk
            ).tobytes()
            replanned = CarStrategy(load_balance=False).solve_failure(
                topo, state.code.k,
                state.failure_columns(dead_nodes={second}, stripes=[stripe]),
            ).solution_for(stripe)
            assert reply["racks"] == len(replanned.intact_racks_accessed)
            replans = [
                e for e in cluster.all_events()
                if e.get("name") == "service.read.replan"
            ]
            assert [e["attrs"]["nodes"] for e in replans] == [[second]]
            await client.close()

        run(cluster, drill)

    def test_a_killed_daemon_leaves_no_pooled_connection(self, tmp_path):
        cluster = make_cluster(tmp_path)
        state = cluster.state

        async def drill():
            victim = cluster.pick_victim()
            state.fail_node(victim)
            client = await cluster.client()
            for stripe in range(STRIPES):
                await client.read(stripe)
            gone = next(cs for cs in cluster.chunkservers if victim not in cs.nodes)
            address = gone.address
            pool = cluster.coordinator._pool
            assert pool.idle(address) >= 1
            cluster.kill_chunkserver(gone.server_id)
            outcomes = set()
            for stripe in list(range(STRIPES)) * 2:
                try:
                    reply = await asyncio.wait_for(client.read(stripe), 10)
                    assert reply["ok"]
                    outcomes.add("served")
                except ServiceError:
                    outcomes.add("refused")
                assert pool.idle(address) == 0
            assert outcomes <= {"served", "refused"} and outcomes
            await client.close()

        run(cluster, drill)
