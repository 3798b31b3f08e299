"""Vertex-deletion variant: the predicate and the complete search over the
smallest component, against an independent oracle.

The search grows the smallest component C of G - S and takes
S(C) = V - C - hcore(G - C - N(C)); every minimum cut is S(C) for its own
smallest component, so the smallest-mask minimum is found. The oracle is the
plain size-major scan, and `subsets_checked` must equal the witness's rank
there, sum_{j<k} C(order, j) + sum_i C(v_i, i) + 1 over its vertices
v_1 < ... < v_k, or every removable set, sum_{j<=order-2} C(order, j), when
no cut exists."""

from __future__ import annotations

import itertools
import math
import random

import networkx as nx
import pytest

from hlcut import (KappaReport, UsageError, fig1_graph, hypercube,
                   is_h_vertex_cut, kappa_sh_exact, mask_of, random_hl)
from hlcut.graph import Graph

from conftest import (random_simple_graph, reference_induced_min_degree,
                      reference_kappa, to_nx)


# -- predicate -------------------------------------------------------------------

def test_opposite_pair_of_square_is_a_0_cut(q2):
    assert is_h_vertex_cut(q2.graph, mask_of([0, 3]), 0)


def test_empty_removal_is_no_cut(q3):
    assert not is_h_vertex_cut(q3.graph, 0, 0)


def test_removal_must_leave_two_vertices(q2):
    with pytest.raises(UsageError):
        is_h_vertex_cut(q2.graph, mask_of([0, 1, 2]), 0)


def test_fig1_has_a_2_preserving_vertex_cut(fig1):
    # deleting the x1/x4 corner of every square leaves two disjoint
    # 4-cycles {1,2,9,10} and {5,6,13,14}
    witness = mask_of([0, 3, 4, 7, 8, 11, 12, 15])
    assert is_h_vertex_cut(fig1.graph, witness, 2)
    rest = fig1.graph.vertex_mask ^ witness
    assert reference_induced_min_degree(16, fig1.graph.edges(), rest) == 2


# -- exact search --------------------------------------------------------------------

def test_fig1_level0(fig1):
    report = kappa_sh_exact(fig1.graph, 0)
    assert report.exists and report.value == 4
    assert report.witness == mask_of([0, 2, 5, 8])  # isolates vertex 3
    assert report.subsets_checked == 779
    assert report.value == nx.node_connectivity(to_nx(fig1.graph))


def test_fig1_level1(fig1):
    report = kappa_sh_exact(fig1.graph, 1)
    assert report.exists and report.value == 6
    assert report.witness == mask_of([0, 1, 5, 7, 8, 9])


def test_fig1_level2_exists(fig1):
    report = kappa_sh_exact(fig1.graph, 2)
    assert report.exists and report.value == 8
    assert report.witness == mask_of([1, 2, 5, 6, 9, 10, 13, 14])
    assert is_h_vertex_cut(fig1.graph, report.witness, 2)


def test_fig1_level3_nonexistent_after_complete_scan(fig1):
    report = kappa_sh_exact(fig1.graph, 3)
    assert not report.exists
    assert report.subsets_checked == 2 ** 16 - 17  # all sizes 0..14


def test_square_level1_nonexistent(q2):
    report = kappa_sh_exact(q2.graph, 1)
    assert not report.exists
    assert report.subsets_checked == 11


def test_q3_level0_matches_vertex_connectivity(q3):
    report = kappa_sh_exact(q3.graph, 0)
    assert report.exists
    assert report.value == 3 == nx.node_connectivity(to_nx(q3.graph))


def test_q4_values_match_closed_form(q4):
    # where the vertex variant exists on Q4 it matches 2^h(4-h) as well
    for h, expected in [(0, 4), (1, 6), (2, 8)]:
        report = kappa_sh_exact(q4.graph, h)
        assert report.exists and report.value == expected
    assert not kappa_sh_exact(q4.graph, 3).exists


def test_level0_matches_vertex_connectivity_on_random_members():
    for seed in (1, 2):
        hl = random_hl(4, seed)
        report = kappa_sh_exact(hl.graph, 0)
        assert report.value == nx.node_connectivity(to_nx(hl.graph))


def test_witness_minimality_by_independent_rescan(fig1):
    report = kappa_sh_exact(fig1.graph, 1)
    assert is_h_vertex_cut(fig1.graph, report.witness, 1)
    # no strictly smaller subset qualifies (combinations-order rescan)
    g = to_nx(fig1.graph)
    for size in range(report.value):
        for comb in itertools.combinations(range(16), size):
            rest = g.subgraph(set(g.nodes()) - set(comb))
            if nx.is_connected(rest):
                continue
            assert min(d for _, d in rest.degree()) < 1


def test_nonexistence_is_monotone_in_h(q2, q3, q4, fig1):
    for hl in (q2, q3, q4, fig1):
        outcomes = [kappa_sh_exact(hl.graph, h).exists for h in range(hl.n + 1)]
        # once nonexistent, nonexistent for every larger level
        assert outcomes == sorted(outcomes, reverse=True)


def assert_matches_reference(g: Graph) -> None:
    # the whole report, subsets_checked included, at every level up to one
    # past the maximum degree, where no survivor keeps its degree
    top = max((d.bit_count() for d in g.adj), default=0) + 1
    for h in range(top + 1):
        size, witness, rank = reference_kappa(g.order, g.edges(), h)
        expected = KappaReport(h, size is not None, size, witness, rank)
        assert kappa_sh_exact(g, h) == expected, h


def test_search_matches_reference_on_random_graphs():
    rng = random.Random(14)
    for i in range(300):
        order = 1 + i % 10
        assert_matches_reference(
            random_simple_graph(rng, order, rng.choice([0.2, 0.45, 0.7])))


def test_search_matches_reference_on_sparse_and_order_11_graphs():
    # sparse graphs are mostly disconnected already, which reaches the leaf
    # where C has no neighbours; order 11 reaches deeper searches
    rng = random.Random(17)
    for i in range(80):
        order = 11 if i % 4 == 0 else 1 + i % 10
        assert_matches_reference(
            random_simple_graph(rng, order, rng.choice([0.1, 0.3, 0.6])))


@pytest.mark.parametrize("order,edges", [(0, []), (1, []), (2, []),
                                         (2, [(0, 1)])])
def test_search_matches_reference_on_tiny_graphs(order, edges):
    assert_matches_reference(Graph(order, edges))


@pytest.mark.parametrize("h", [0, 1, 2])
def test_disconnected_graph_needs_no_removal(h):
    squares = Graph(8, [(0, 1), (1, 3), (3, 2), (2, 0),
                                   (4, 5), (5, 7), (7, 6), (6, 4)])
    assert kappa_sh_exact(squares, h) == KappaReport(h, True, 0, 0, 1)
    assert not kappa_sh_exact(squares, 3).exists


def member_graph(name: str) -> Graph:
    """"q<n>", "fig1" or "hl<n>-<seed>"."""
    if name == "fig1":
        return fig1_graph().graph
    if name.startswith("hl"):
        n, seed = name[2:].split("-")
        return random_hl(int(n), int(seed)).graph
    return hypercube(int(name[1:])).graph


@pytest.mark.parametrize("name", ["q2", "q3", "q4", "fig1", "hl4-1", "hl4-2",
                                  "hl4-3"])
def test_search_matches_reference_on_members(name):
    assert_matches_reference(member_graph(name))


@pytest.mark.parametrize("order", [12, 14])
@pytest.mark.parametrize("d", [3, 4])
def test_search_matches_reference_on_random_regular_graphs(d, order):
    # regular graphs have cuts at several levels with large components
    # beside them, so the counting bound prunes below every first leaf
    for seed in (1, 2, 3):
        g = nx.random_regular_graph(d, order, seed)
        assert_matches_reference(Graph(order, list(g.edges())))


@pytest.mark.parametrize("name", ["q5", "hl5-1"])
@pytest.mark.parametrize("h", [4, 5])
def test_order_32_nonexistence_is_decided(name, h):
    # every one of the 2^32 - 33 removable sets is decided; without pruning
    # that would take hours
    report = kappa_sh_exact(member_graph(name), h)
    assert not report.exists
    assert report.subsets_checked == 2 ** 32 - 33


def test_q5_level3_is_two_disjoint_subcubes():
    # removing vertices 8..23 leaves the 3-cubes on 0..7 and 24..31; the
    # witness's rank is sum_{j<16} C(32, j) + sum_i C(7 + i, i) + 1
    report = kappa_sh_exact(member_graph("q5"), 3)
    assert report == KappaReport(3, True, 16, mask_of(range(8, 24)),
                                 1_847_678_924)
    assert report.subsets_checked == (
        sum(math.comb(32, j) for j in range(16))
        + sum(math.comb(7 + i, i) for i in range(1, 17)) + 1)


def size_major_rank(order: int, witness: int) -> int:
    """sum_{j<k} C(order, j) + sum_i C(v_i, i) + 1 over the witness's
    vertices v_1 < ... < v_k."""
    vertices = [v for v in range(order) if witness >> v & 1]
    return (sum(math.comb(order, j) for j in range(len(vertices)))
            + sum(math.comb(v, i) for i, v in enumerate(vertices, 1)) + 1)


@pytest.mark.parametrize("name", ["q5", "hl5-1", "hl5-2"])
@pytest.mark.parametrize("h", [0, 1, 2])
def test_order_32_low_levels(name, h):
    g = member_graph(name)
    report = kappa_sh_exact(g, h)
    assert report.exists
    assert is_h_vertex_cut(g, report.witness, h)
    assert report.value == report.witness.bit_count()
    assert report.subsets_checked == size_major_rank(32, report.witness)
    if name == "q5":
        # kappa^h(Q_n) = 2^h (n - h) for h <= n - 2 (Latifi, Hegde and
        # Naraghi-Pour, IEEE Trans. Computers 1994)
        assert report.value == 2 ** h * (5 - h)
    if h == 0:
        assert report.value == nx.node_connectivity(to_nx(g))


def test_order_32_level3_nonexistence_is_decided():
    report = kappa_sh_exact(member_graph("hl5-1"), 3)
    assert report == KappaReport(3, False, None, None, 2 ** 32 - 33)


def test_scan_is_gated():
    ring = Graph(34, [(i, (i + 1) % 34) for i in range(34)])
    with pytest.raises(UsageError):
        kappa_sh_exact(ring, 0)


def test_negative_level_rejected(q3):
    with pytest.raises(UsageError):
        kappa_sh_exact(q3.graph, -1)


def test_vertex_cut_predicate_checks_the_degree(q3):
    # deleting the neighbours of 0 strands it: a cut at level 0, but 0 keeps
    # no neighbour, so not one at level 1
    s = mask_of((1, 2, 4))
    assert is_h_vertex_cut(q3.graph, s, 0)
    assert not is_h_vertex_cut(q3.graph, s, 1)
