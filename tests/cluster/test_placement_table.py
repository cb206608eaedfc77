"""A placement is its node table.

:class:`Placement` answers every query from one ``(stripes, k + m)``
array.  These tests hold each query to a reference written below over a
``{(stripe, chunk): node}`` dict and the topology's :class:`Node`
records (the way the placement stored its layout before it was a
table), on random valid tables, and check that malformed tables are
refused at construction.

Select a larger example budget with ``HYPOTHESIS_PROFILE=thorough``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.placement import Placement
from repro.cluster.topology import ClusterTopology
from repro.errors import PlacementError, UnknownChunkError


@st.composite
def layouts(draw, min_stripes=0):
    """A topology, ``(k, m)`` and a valid node table for it."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    topology = ClusterTopology.from_rack_sizes(sizes)
    width = draw(st.integers(1, min(8, topology.num_nodes)))
    m = draw(st.integers(0, width - 1))
    stripes = draw(st.integers(min_stripes, 6))
    nodes = st.permutations(range(topology.num_nodes))
    rows = [draw(nodes)[:width] for _ in range(stripes)]
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    table = np.array(rows, dtype=dtype).reshape(stripes, width)
    return topology, width - m, m, table


def reference(topology, table):
    """The dict layout and a node -> rack lookup, without the table."""
    chunks = {
        (stripe, chunk): node
        for stripe, row in enumerate(table.tolist())
        for chunk, node in enumerate(row)
    }
    rack = {node.node_id: node.rack_id for node in topology.nodes}
    return chunks, rack


@settings(max_examples=60, deadline=None)
@given(layouts())
def test_queries_match_dict_reference(layout):
    topology, k, m, table = layout
    n = k + m
    placement = Placement(topology, k, m, table)
    chunks, rack = reference(topology, table)
    assert placement.num_stripes == len(table)
    assert placement.node_table().shape == (len(table), n)
    assert list(placement.iter_chunks()) == sorted(chunks.items())
    for (stripe, chunk), node in chunks.items():
        got = placement.node_of(stripe, chunk)
        assert got == node and type(got) is int
        assert placement.rack_of_chunk(stripe, chunk) == rack[node]
    for node in range(-1, topology.num_nodes + 1):
        expected = tuple(sorted(key for key, v in chunks.items() if v == node))
        assert placement.chunks_on_node(node) == expected
    per_stripe = []
    for stripe in range(len(table)):
        row = {c: chunks[(stripe, c)] for c in range(n)}
        assert placement.stripe_layout(stripe) == row
        counts = [0] * topology.num_racks
        for node in row.values():
            counts[rack[node]] += 1
        assert placement.rack_counts(stripe) == counts
        for rack_id in range(-1, topology.num_racks + 1):
            got = placement.rack_chunk_count(rack_id, stripe)
            inside = 0 <= rack_id < topology.num_racks
            assert got == (counts[rack_id] if inside else 0)
            assert type(got) is int
        per_stripe.append(max(counts))
    if per_stripe:
        assert placement.max_rack_colocation() == max(per_stripe)
        assert placement.is_rack_fault_tolerant() == (max(per_stripe) <= m)
    else:
        with pytest.raises(ValueError):
            placement.max_rack_colocation()


@settings(max_examples=30, deadline=None)
@given(layouts())
def test_unknown_chunks_raise_like_the_dict(layout):
    topology, k, m, table = layout
    placement = Placement(topology, k, m, table)
    stripes, n = len(table), k + m
    for stripe, chunk in ((-1, 0), (stripes, 0), (0, -1), (0, n)):
        with pytest.raises(PlacementError):
            placement.node_of(stripe, chunk)
    for stripe in (-1, stripes):
        with pytest.raises(UnknownChunkError):
            placement.stripe_layout(stripe)
        with pytest.raises(PlacementError):
            placement.rack_counts(stripe)
        with pytest.raises(PlacementError):
            placement.rack_chunk_count(0, stripe)


@settings(max_examples=30, deadline=None)
@given(layouts(min_stripes=1))
def test_table_is_a_read_only_copy(layout):
    topology, k, m, table = layout
    given_table = table.copy()
    placement = Placement(topology, k, m, given_table)
    given_table[:] = 0
    assert placement.node_table().tolist() == table.tolist()
    assert not placement.node_table().flags.writeable


@settings(max_examples=30, deadline=None)
@given(layouts(min_stripes=1), st.data())
def test_malformed_tables_are_refused(layout, data):
    topology, k, m, table = layout
    good = table
    stripe = data.draw(st.integers(0, len(table) - 1))
    chunk = data.draw(st.integers(0, k + m - 1))

    for width in (k + m - 1, k + m + 1):
        wrong = np.zeros((len(table), width), dtype=np.int64)
        with pytest.raises(PlacementError):
            Placement(topology, k, m, wrong)
    with pytest.raises(PlacementError):
        Placement(topology, k, m, good.ravel())

    if k + m >= 2:
        repeated = good.copy()
        other = (chunk + 1) % (k + m)
        repeated[stripe, other] = repeated[stripe, chunk]
        with pytest.raises(PlacementError):
            Placement(topology, k, m, repeated)

    for node in (-1, topology.num_nodes, topology.num_nodes + 7):
        outside = good.copy()
        outside[stripe, chunk] = node
        with pytest.raises(PlacementError):
            Placement(topology, k, m, outside)

    for dtype in (np.float64, bool):
        with pytest.raises(PlacementError):
            Placement(topology, k, m, good.astype(dtype))
