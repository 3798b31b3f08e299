"""Construction: the join realized from traces, canonical and random
members, embedded blocks, edge levels, and the figure fixture."""

from __future__ import annotations

import time
from collections import Counter

import pytest
from hypothesis import given, settings

from hlcut import (FIG1_EDGES, TraceError, UsageError, block_vertices,
                   fig1_graph, from_trace, hypercube, mask_of, random_hl,
                   realize, trace_from_text, trace_to_text)
from hlcut.build import (LEAF, MAX_DIMENSION, Leaf, Node, SplitMix64, fnv1a64,
                         identity_matching)

from conftest import (hl_members, left_deep_trace_text,
                      reference_induced_min_degree, right_deep_trace_text)


# -- the join, as realized from a trace node -----------------------------------

def test_oplus_two_singletons_is_an_edge():
    g = realize(Node(LEAF, LEAF, (0,)))
    assert g.order == 2 and g.edges() == [(0, 1)]


def test_oplus_identity_on_edges_is_a_square():
    k2 = hypercube(1).trace
    g = realize(Node(k2, k2, (0, 1)))
    assert g.order == 4 and g.num_edges == 4
    assert all(g.adj[v].bit_count() == 2 for v in range(4))
    assert g.is_connected()


def test_oplus_reversed_matching_on_squares():
    q2 = hypercube(2).trace
    g = realize(Node(q2, q2, (3, 2, 1, 0)))
    assert g.order == 8 and all(g.adj[v].bit_count() == 3 for v in range(8))
    assert g.is_connected()


def test_oplus_added_edges_form_perfect_matching():
    q2 = hypercube(2).trace
    for sigma in [(0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0)]:
        g = realize(Node(q2, q2, sigma))
        cross = [e for e in g.edges() if (e[0] < 4) != (e[1] < 4)]
        assert sorted(cross) == [(i, 4 + sigma[i]) for i in range(4)]


def test_oplus_rejects_order_mismatch():
    with pytest.raises(TraceError) as err:
        realize(Node(hypercube(1).trace, hypercube(2).trace, (0, 1)))
    assert "unbalanced" in str(err.value) and err.value.path == ""


def test_oplus_rejects_non_bijection():
    k2 = hypercube(1).trace
    with pytest.raises(TraceError) as err:
        realize(Node(k2, k2, (0, 0)))
    assert "bijection" in str(err.value) and err.value.path == ""


# -- hypercube -------------------------------------------------------------------

def test_hypercube_tiny():
    assert hypercube(1).graph.edges() == [(0, 1)]
    assert hypercube(0).graph.order == 1


def test_hypercube_q3_shape(q3):
    g = q3.graph
    assert g.order == 8 and g.num_edges == 12
    assert all(g.adj[v].bit_count() == 3 for v in range(8))


def test_hypercube_adjacency_is_hamming(q4):
    edges = q4.graph.edges()
    assert (0, 1) in edges
    assert (0, 3) not in edges


@pytest.mark.parametrize("n", range(0, 9))
def test_hypercube_equals_binary_code_graph(n):
    g = hypercube(n).graph
    for u in range(g.order):
        expected = mask_of(u ^ (1 << b) for b in range(n))
        assert g.adj[u] == expected


def test_hypercube_dimension_cap():
    with pytest.raises(UsageError):
        hypercube(11)


@pytest.mark.parametrize("build", [hypercube, lambda n: random_hl(n, 1)],
                         ids=["hypercube", "random"])
def test_negative_dimension_is_refused(build):
    with pytest.raises(UsageError, match="dimension -1 is negative"):
        build(-1)


# -- random members ---------------------------------------------------------------

def test_splitmix64_reference_vector():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821]
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF


def test_fnv1a64_reference_vector():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_random_hl_deterministic():
    a = random_hl(4, 7)
    b = random_hl(4, 7)
    assert a.graph == b.graph
    assert trace_to_text(a.trace) == trace_to_text(b.trace)


def test_random_hl_shape():
    for seed in (0, 1, 2**63, 12345):
        hl = random_hl(4, seed)
        g = hl.graph
        assert g.order == 16 and g.num_edges == 32
        assert all(g.adj[v].bit_count() == 4 for v in range(16))
        assert g.is_connected()


def test_random_hl_base_case():
    assert random_hl(0, 99).graph.order == 1


def test_random_hl_seeds_differ():
    assert random_hl(4, 1).graph != random_hl(4, 2).graph


# -- traces ------------------------------------------------------------------------

def test_realize_round_trips_hypercube(q3):
    assert realize(q3.trace) == q3.graph


def test_realize_rejects_non_bijection():
    bad = Node(Node(LEAF, LEAF, (0,)), Node(LEAF, LEAF, (0,)), (0, 0))
    with pytest.raises(TraceError) as err:
        realize(bad)
    assert "bijection" in str(err.value)


def test_realize_rejects_unbalanced():
    lopsided = Node(Node(LEAF, LEAF, (0,)), LEAF, (0, 1))
    with pytest.raises(TraceError):
        realize(lopsided)


def test_trace_error_names_the_path():
    bad = Node(Node(LEAF, LEAF, (0, 1)), Node(LEAF, LEAF, (0,)), (0, 1))
    with pytest.raises(TraceError) as err:
        realize(bad)
    assert err.value.path == "0"


@pytest.mark.parametrize("trace, path", [
    ("leaf", ""), (Node(LEAF, None, (0,)), "1")], ids=["root", "child"])
def test_realize_rejects_an_object_that_is_not_a_trace(trace, path):
    with pytest.raises(TraceError, match="not a trace node") as err:
        realize(trace)
    assert err.value.path == path


def _balanced_trace(depth):
    t = LEAF
    for k in range(depth):
        t = Node(t, t, identity_matching(1 << k))  # one shared subtree a level
    return t


def _right_chain(depth):
    t = LEAF
    for _ in range(depth):
        t = Node(LEAF, t, (0,))
    return t


@pytest.mark.parametrize("trace, path", [
    # the left spine is one level deep, so only the recursion sees the depth
    (Node(LEAF, _balanced_trace(17), (0,)), "1" + "0" * MAX_DIMENSION),
    (_right_chain(5000), "1" * MAX_DIMENSION + "0"),
], ids=["right-balanced-17", "right-chain-5000"])
def test_realize_caps_the_depth_on_every_path(trace, path):
    for build in (realize, lambda t: from_trace(t, "deep")):
        start = time.perf_counter()
        with pytest.raises(TraceError) as err:
            build(trace)
        assert time.perf_counter() - start < 0.1
        assert err.value.path == path
        assert "construction cap" in str(err.value)


@settings(max_examples=30)
@given(hl_members(max_n=6))
def test_realized_members_are_regular_connected(hl):
    g = hl.graph
    assert g.order == 1 << hl.n
    assert all(a.bit_count() == hl.n for a in g.adj)
    assert g.is_connected()


def test_fifty_seeded_traces_up_to_dimension_eight():
    for i in range(50):
        n = 2 + i % 7  # dimensions 2..8
        hl = random_hl(n, 1000 + i)
        assert hl.graph.order == 1 << n
        assert all(a.bit_count() == n for a in hl.graph.adj)
        assert hl.graph.is_connected()


def test_trace_text_round_trip_is_byte_exact(q4):
    for hl in (q4, random_hl(5, 3), fig1_graph()):
        text = trace_to_text(hl.trace)
        again = trace_from_text(text)
        assert trace_to_text(again) == text
        assert realize(again) == realize(hl.trace)


def test_trace_text_shape():
    assert trace_to_text(LEAF) == '{"leaf":true}\n'
    k2 = Node(LEAF, LEAF, (0,))
    assert trace_to_text(k2) == \
        '{"left":{"leaf":true},"right":{"leaf":true},"sigma":[0]}\n'


# malformed trace text -> the path of the node a TraceError names, or None
# for text that is no JSON at all
_MALFORMED = {
    "[]\n": "",
    '{"leaf":false}\n': "",
    '{"left":{"leaf":true},"sigma":[0]}\n': "",
    '{"left":{"leaf":true},"right":{"leaf":true},"sigma":[true]}\n': "",
    '{"left":{"leaf":false},"right":{"leaf":true},"sigma":[0]}\n': "0",
    "not json": None,
}


@pytest.mark.parametrize("bad", _MALFORMED)
def test_trace_text_rejects_malformed(bad):
    with pytest.raises(UsageError) as err:
        trace_from_text(bad)
    assert getattr(err.value, "path", None) == _MALFORMED[bad]


@pytest.mark.parametrize("text", [left_deep_trace_text(20_000),
                                  right_deep_trace_text(3_000),
                                  right_deep_trace_text(MAX_DIMENSION + 1)],
                         ids=["left-20000", "right-3000", "right-cap+1"])
def test_trace_text_rejects_deep_nesting(text):
    # the first two overflow the JSON parser's recursion; the third parses
    # and is stopped by the depth cap before the tree is walked further
    with pytest.raises(UsageError):
        trace_from_text(text)


def test_from_trace_entry_point_for_custom_matchings():
    # a twisted member: squares joined by a reversing matching
    pair = Node(LEAF, LEAF, (0,))
    square = Node(pair, pair, (1, 0))
    twisted = Node(square, square, (3, 2, 1, 0))
    hl = from_trace(twisted, label="twisted3")
    assert hl.n == 3 and hl.label == "twisted3"
    assert all(hl.graph.adj[v].bit_count() == 3 for v in range(8))


# -- blocks and levels ---------------------------------------------------------------

def test_block_vertices_square_block(q4):
    block = block_vertices(q4, 2)
    assert block == mask_of([0, 1, 2, 3])
    # a 4-cycle
    assert reference_induced_min_degree(16, q4.graph.edges(), block) == 2


def test_block_vertices_extremes(q4, fig1):
    for hl in (q4, fig1):
        assert block_vertices(hl, hl.n) == hl.graph.vertex_mask
        assert block_vertices(hl, 0) == 1 << hl.relabel[0]


def test_block_out_of_range(q4):
    with pytest.raises(UsageError):
        block_vertices(q4, 5)


@settings(max_examples=25)
@given(hl_members(max_n=5))
def test_block_induces_left_descendant(hl):
    for h in range(hl.n + 1):
        block = block_vertices(hl, h)
        t = hl.trace
        for _ in range(hl.n - h):  # down the left spine
            t = t.left
        sub = realize(t)
        induced = [(u, v) for u, v in hl.graph.edges()
                   if block >> u & 1 and block >> v & 1]
        assert sorted(induced) == sub.edges()


@settings(max_examples=25)
@given(hl_members(max_n=6))
def test_edge_levels_partition_into_equal_matchings(hl):
    if hl.n == 0:
        return
    # under canonical labels an edge's level is bit_length(u xor v)
    counts = Counter((u ^ v).bit_length() for u, v in hl.graph.edges())
    assert set(counts) == set(range(1, hl.n + 1))
    assert all(c == 1 << (hl.n - 1) for c in counts.values())


# -- figure fixture ---------------------------------------------------------------------

def test_fig1_shape(fig1):
    g = fig1.graph
    assert g.order == 16 and g.num_edges == 32
    assert all(g.adj[v].bit_count() == 4 for v in range(16))
    assert g.is_connected()


def test_fig1_exact_edge_set(fig1):
    assert sorted(tuple(sorted(e)) for e in FIG1_EDGES) == fig1.graph.edges()


def test_fig1_trace_realizes_the_fixture(fig1):
    canonical = realize(fig1.trace)
    perm = fig1.relabel
    renamed = {tuple(sorted((perm[u], perm[v]))) for u, v in canonical.edges()}
    assert renamed == {tuple(sorted(e)) for e in FIG1_EDGES}


def test_fig1_blocks_are_the_figure_halves(fig1):
    assert block_vertices(fig1, 3) == mask_of([0, 1, 2, 3, 8, 9, 10, 11])
    assert block_vertices(fig1, 2) == mask_of([0, 1, 2, 3])
    # each half induces a 3-regular member
    half = block_vertices(fig1, 3)
    assert reference_induced_min_degree(16, fig1.graph.edges(), half) == 3
