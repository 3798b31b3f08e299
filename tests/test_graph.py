"""Core graph primitives: the degree predicate, boundaries, connectivity,
and the canonical text format."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcut import (Graph, UsageError, graph_from_text, graph_to_text, hypercube,
                   is_h_edge_cut, mask_of)
from hlcut.graph import MAX_ORDER, keeps_degree

from conftest import (mutated, random_simple_graph, reference_adjacency,
                      reference_connected, reference_induced_min_degree,
                      small_graphs)


def test_degree_hypercube(q3):
    assert q3.graph.adj[0].bit_count() == 3


def test_degree_single_edge():
    k2 = hypercube(1).graph
    assert k2.adj[1].bit_count() == 1


def test_degree_fig1(fig1):
    assert fig1.graph.adj[0].bit_count() == 4
    assert all(fig1.graph.adj[v].bit_count() == 4 for v in range(16))


def test_induced_min_degree_whole_graph(q3):
    adj, full = q3.graph.adj, q3.graph.vertex_mask
    assert keeps_degree(adj, full, full, 3)
    assert not keeps_degree(adj, full, full, 4)


def test_induced_min_degree_singleton(q3):
    assert keeps_degree(q3.graph.adj, 1, 1, 0)
    assert not keeps_degree(q3.graph.adj, 1, 1, 1)


def test_induced_min_degree_three_of_cycle(q2):
    # any 3 vertices of a 4-cycle induce a path
    full = q2.graph.vertex_mask
    for v in range(4):
        m = full ^ (1 << v)
        assert keeps_degree(q2.graph.adj, m, m, 1)
        assert not keeps_degree(q2.graph.adj, m, m, 2)


@settings(max_examples=150)
@given(small_graphs(), st.data())
def test_keeps_degree_matches_plain_count(g, data):
    masks = st.just(0) | st.integers(0, g.vertex_mask)
    vertices = data.draw(masks)
    # searches also pass a complement, which is a negative int
    within = data.draw(masks | masks.map(lambda m: ~m))
    top = max(a.bit_count() for a in g.adj)
    h = data.draw(st.integers(-1, top + 1))
    adj = reference_adjacency(g.order, g.edges())
    inside = {v for v in range(g.order) if within >> v & 1}
    expected = all(len(adj[v] & inside) >= h
                   for v in range(g.order) if vertices >> v & 1)
    got = keeps_degree(g.adj, vertices, within, h)
    assert got == expected
    if h <= 0:
        assert got is True


def test_edge_boundary_singleton(q3):
    assert q3.graph.edge_boundary(1) == ((0, 1), (0, 2), (0, 4))


def test_edge_boundary_empty(q3):
    assert q3.graph.edge_boundary(0) == ()


def test_edge_boundary_block(q4):
    boundary = q4.graph.edge_boundary(mask_of([0, 1, 2, 3]))
    assert len(boundary) == 8


def test_is_connected(q3):
    assert q3.graph.is_connected()


# connectivity under edge deletion: a level-0 edge cut is exactly an edge set
# whose removal disconnects the graph

def test_single_edge_removal_disconnects_k2():
    k2 = hypercube(1).graph
    assert is_h_edge_cut(k2, [(0, 1)], 0)


def test_q3_survives_any_single_edge_removal(q3):
    for e in q3.graph.edges():
        assert not is_h_edge_cut(q3.graph, [e], 0)


def test_removing_non_edge_rejected(q3):
    with pytest.raises(UsageError):
        is_h_edge_cut(q3.graph, [(0, 3)], 0)


def test_graph_construction_rejects_loops():
    with pytest.raises(UsageError):
        Graph(2, [(0, 0)])


def test_graph_rejects_order_above_cap():
    with pytest.raises(UsageError):
        Graph(MAX_ORDER + 1, [])


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 99999999999999999999])
def test_header_order_checked_before_allocation(order):
    # the second order is too large to size a list at all
    with pytest.raises(UsageError):
        Graph(order, [])
    with pytest.raises(UsageError):
        graph_from_text(f"{order} 0\n")


@pytest.mark.parametrize("mask", [-1, 1 << 8, 0x1ff])
def test_vertex_set_outside_the_graph_is_refused(q3, mask):
    with pytest.raises(UsageError, match="outside the graph's vertex range"):
        q3.graph.check_vertex_set(mask)


def test_graph_is_immutable(q3):
    with pytest.raises(AttributeError):
        q3.graph.order = 5


@settings(max_examples=60)
@given(small_graphs())
def test_boundary_symmetric_in_complement(g):
    rng = random.Random(g.num_edges * 31 + g.order)
    x = rng.getrandbits(g.order)
    assert g.edge_boundary(x) == g.edge_boundary(g.vertex_mask ^ x)


@settings(max_examples=60)
@given(small_graphs())
def test_handshake(g):
    assert sum(a.bit_count() for a in g.adj) == 2 * g.num_edges


@settings(max_examples=60)
@given(small_graphs())
def test_min_degree_plus_max_boundary_within_max_degree(g):
    rng = random.Random(g.order * 7919 + g.num_edges)
    x = rng.getrandbits(g.order)
    if x == 0:
        x = 1
    worst_boundary = max(
        (g.adj[v] & ~x).bit_count()
        for v in range(g.order) if x >> v & 1)
    top = max(a.bit_count() for a in g.adj)
    assert reference_induced_min_degree(g.order, g.edges(), x) \
        + worst_boundary <= top


def test_connectivity_agrees_with_reference_bfs():
    rng = random.Random(20240511)
    for _ in range(100):
        order = rng.randint(1, 9)
        g = random_simple_graph(rng, order, rng.choice([0.15, 0.4, 0.7]))
        assert g.is_connected() == reference_connected(order, g.edges())


# -- text format ----------------------------------------------------------------

def test_text_round_trip(q4):
    text = graph_to_text(q4.graph)
    assert text.startswith("16 32\n")
    again = graph_from_text(text)
    assert again == q4.graph
    assert graph_to_text(again) == text


def test_text_round_trip_random_graphs():
    rng = random.Random(7)
    for _ in range(25):
        g = random_simple_graph(rng, rng.randint(1, 9))
        assert graph_from_text(graph_to_text(g)) == g


@pytest.mark.parametrize("bad", [
    "",                                # empty
    "2 1\n0 1",                        # missing final newline
    "2 0\n0 1\n",                      # edge count mismatch
    "2 1\n1 0\n",                      # not (min,max)
    "3 2\n1 2\n0 1\n",                 # out of ascending order
    "2 1\n0  1\n",                     # non-canonical spacing
    "x 1\n0 1\n",                      # bad header
    "2 1\n0 2\n",                      # endpoint out of range
    # int() takes these; only the round trip refuses them
    "2 1\n00 1\n",                     # leading zero
    "2 1\n+0 1\n",                     # plus sign
    "11 1\n0 1_0\n",                   # digit separator
    "3 2\n0 1\n0 1\n",                 # an edge listed twice
    "2 1\n0 1\n\n",                    # blank trailing line
    "2 1\r\n0 1\r\n",                  # CRLF line ends
    # a tokenizer takes these; only the round trip refuses them
    "2 1 0 1\n",                       # edge on the header line
    "2 1\n0\n1\n",                     # edge split over two lines
    "2 1\n0\t1\n",                     # tab between the endpoints
    " 2 1\n0 1\n",                     # leading space
    "\n2 1\n0 1\n",                    # blank leading line
    "2 1\n0 1 \n",                     # trailing space
])
def test_text_rejects_malformed(bad):
    with pytest.raises(UsageError):
        graph_from_text(bad)


_TEXTS = [graph_to_text(g) for g in (hypercube(2).graph, hypercube(3).graph,
                                     Graph(4, [(0, 3), (1, 3)]))]


@settings(max_examples=300, deadline=None)
@given(mutated(_TEXTS, "0123456789 \n\r+_-x"))
def test_text_reader_accepts_only_its_own_output(text):
    # the round trip is the reader's one form check: a text either fails
    # with a UsageError or is exactly what the writer gives for its graph
    try:
        g = graph_from_text(text)
    except UsageError:
        return
    assert graph_to_text(g) == text
