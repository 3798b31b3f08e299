"""The cut predicate, canonical block cuts, and the exact minimum search."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlcut import (IncompleteSearchError, UsageError, canonical_cut,
                   check_lemma_32, hypercube, is_h_edge_cut, is_h_vertex_cut,
                   kappa_sh_exact, lambda_sh_exact, mask_of, random_hl,
                   read_graph, realize, write_graph)
from hlcut import cuts
from hlcut.build import MAX_DIMENSION
from hlcut.cli import main
from hlcut.graph import Graph

from conftest import (hl_members, random_simple_graph, reference_min_cut,
                      reference_min_cuts,
                      reference_restricted_edge_connectivity, relabelled,
                      small_graphs, to_nx)


# -- is_h_edge_cut -----------------------------------------------------------------

def test_top_matching_is_a_2_cut(q3):
    top = [e for e in q3.graph.edges() if (e[0] < 4) != (e[1] < 4)]
    assert len(top) == 4
    assert is_h_edge_cut(q3.graph, top, 2)


def test_single_edge_is_no_cut(q3):
    for h in range(4):
        assert not is_h_edge_cut(q3.graph, [(0, 1)], h)


def test_isolating_cut_fails_degree_condition(q3):
    corner = q3.graph.edge_boundary(1)
    assert is_h_edge_cut(q3.graph, corner, 0)
    assert not is_h_edge_cut(q3.graph, corner, 1)


def test_cut_predicate_rejects_non_edges(q3):
    with pytest.raises(UsageError):
        is_h_edge_cut(q3.graph, [(0, 7)], 1)


@pytest.mark.parametrize("edge", [(3, -1), (-1, 7), (0, 8), (8, 12)])
def test_cut_predicate_rejects_endpoints_outside_the_graph(q3, edge):
    # vertex -1 must not wrap to 7, whose neighbours include 3
    with pytest.raises(UsageError):
        is_h_edge_cut(q3.graph, [edge], 0)


@pytest.mark.parametrize("predicate, removed",
                         [(is_h_edge_cut, [(0, 1)]), (is_h_vertex_cut, 1)],
                         ids=["edge", "vertex"])
def test_cut_predicates_refuse_a_negative_level(q3, predicate, removed):
    with pytest.raises(UsageError, match="negative level -1"):
        predicate(q3.graph, removed, -1)


def test_cut_predicate_counts_a_repeated_edge_once(q3):
    top = [e for e in q3.graph.edges() if (e[0] < 4) != (e[1] < 4)]
    twice = top + [(v, u) for u, v in top]
    for h in range(4):
        assert is_h_edge_cut(q3.graph, twice, h) == \
            is_h_edge_cut(q3.graph, top, h)
        assert is_h_edge_cut(q3.graph, [(0, 1), (1, 0)], h) == \
            is_h_edge_cut(q3.graph, [(0, 1)], h)


# -- canonical cut -----------------------------------------------------------------

def test_canonical_cut_sizes(q4):
    assert len(canonical_cut(q4, 2)) == 8
    top = canonical_cut(q4, 3)
    assert len(top) == 8
    assert top == tuple((i, i + 8) for i in range(8))


def test_canonical_cut_level_zero(q4, fig1):
    for hl in (q4, fig1):
        cut = canonical_cut(hl, 0)
        anchor = hl.relabel[0]
        assert cut == hl.graph.edge_boundary(1 << anchor)
        assert len(cut) == hl.n


def test_canonical_cut_rejects_whole_graph_level(q4):
    for h in (4, -1):
        with pytest.raises(UsageError):
            canonical_cut(q4, h)


@pytest.mark.parametrize("n", range(2, 9))
def test_canonical_cut_valid_across_family(n):
    members = [hypercube(n)] + [random_hl(n, 100 * n + s) for s in range(10)]
    for hl in members:
        for h in range(n):
            cut = canonical_cut(hl, h)
            assert len(cut) == (1 << h) * (n - h)
            assert is_h_edge_cut(hl.graph, cut, h)


# -- exact solver ------------------------------------------------------------------

def test_small_hypercube_values(q3, q4):
    assert lambda_sh_exact(q3.graph, 1).value == 4
    assert lambda_sh_exact(q4.graph, 2).value == 8


def test_square_has_no_2_cut(q2):
    # the induction table rules every cut out without a search
    result = lambda_sh_exact(q2.graph, 2)
    assert result.value is None
    assert result.subsets_examined == 0
    # a search ends at its root: the anchor has exactly two neighbours, so
    # its forced moves pull them onto Y, and they pull vertex 3, which puts
    # every vertex on Y
    assert _plain(q2.graph, 2) == (None, None, 1)


def test_fig1_values(fig1):
    assert lambda_sh_exact(fig1.graph, 3).value == 8


# anchored minimum witnesses, brute-forced independently over every bipartition
FROZEN_WITNESSES = {
    ("Q4", 0): (4, mask_of([1])),
    ("Q4", 1): (6, mask_of([1, 3])),
    ("Q4", 2): (8, mask_of([1, 3, 5, 7])),
    ("Q4", 3): (8, mask_of([1, 3, 5, 7, 9, 11, 13, 15])),
    ("fig1", 0): (4, mask_of([1])),
    ("fig1", 1): (6, mask_of([1, 2])),
    ("fig1", 2): (8, mask_of([1, 2, 4, 7])),
    ("fig1", 3): (8, mask_of([1, 2, 4, 7, 9, 10, 12, 15])),
}


def test_frozen_minimum_witnesses(q4, fig1):
    for hl in (q4, fig1):
        for h in range(4):
            report = lambda_sh_exact(hl.graph, h)
            value, side = FROZEN_WITNESSES[(hl.label, h)]
            assert (report.value, report.witness_side) == (value, side)


def test_report_invariants(q4):
    for h in range(4):
        r = lambda_sh_exact(q4.graph, h)
        assert r.witness_cut == q4.graph.edge_boundary(r.witness_side)
        assert len(r.witness_cut) == r.value
        assert is_h_edge_cut(q4.graph, r.witness_cut, h)
        assert not r.witness_side & 1  # anchor stays on the complement side


def test_value_never_exceeds_canonical_cut():
    for seed in range(5):
        hl = random_hl(4, seed)
        for h in range(4):
            report = lambda_sh_exact(hl.graph, h)
            assert report.value <= len(canonical_cut(hl, h))


def test_monotone_in_h(fig1):
    for hl in (hypercube(3), hypercube(4), fig1, random_hl(4, 11)):
        values = [lambda_sh_exact(hl.graph, h).value for h in range(hl.n)]
        assert values == sorted(values)


def test_level_zero_matches_maxflow_edge_connectivity():
    instances = [hypercube(n) for n in (2, 3, 4)]
    instances += [random_hl(4, s) for s in (1, 2)]
    for hl in instances:
        report = lambda_sh_exact(hl.graph, 0)
        assert report.value == nx.edge_connectivity(to_nx(hl.graph))
        assert report.value == hl.n
    # past the order gate of the subset scans, against the same reference
    for hl in (hypercube(6), hypercube(7), random_hl(6, 1), random_hl(7, 1)):
        report = lambda_sh_exact(hl.graph, 0)
        assert report.value == nx.edge_connectivity(to_nx(hl.graph)) == hl.n


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_level_one_reference_matches_brute_force(g):
    value, _ = reference_min_cut(g.order, g.edges(), 1)
    assume(value is not None)
    assert reference_restricted_edge_connectivity(g.edges()) == value


def test_level_one_matches_restricted_edge_connectivity():
    # each dimension-6 reference takes well under a second; dimension 7
    # takes several
    for hl in (hypercube(6), random_hl(6, 1), random_hl(6, 2)):
        report = lambda_sh_exact(hl.graph, 1)
        assert report.value == \
            reference_restricted_edge_connectivity(hl.graph.edges()) == 10


def _irregular_connected(g: Graph) -> bool:
    return g.is_connected() and len({a.bit_count() for a in g.adj}) > 1


@settings(max_examples=60, deadline=None)
@given(small_graphs().filter(_irregular_connected))
def test_branch_and_bound_matches_exhaustive_on_irregular_graphs(g):
    # degrees differ here, which the regular family never exercises; the
    # oracle is the exhaustive loop over every bipartition
    for h in range(min(a.bit_count() for a in g.adj) + 2):
        report = lambda_sh_exact(g, h)
        assert (report.value, report.witness_side) == \
            reference_min_cut(g.order, g.edges(), h)


@settings(max_examples=60, deadline=None)
@given(small_graphs().filter(Graph.is_connected))
def test_branch_and_bound_matches_reference_min_cut(g):
    # forced moves may drop only completions that leave some vertex below
    # degree h, so value and lexmin side match the plain loop
    for h in range(min(a.bit_count() for a in g.adj) + 2):
        report = lambda_sh_exact(g, h)
        found = (report.value, report.witness_side)
        assert found == reference_min_cut(g.order, g.edges(), h)


def test_branch_and_bound_node_count_on_q5():
    # degree propagation keeps every level of Q5 small: 1 688 nodes in all
    # with forced moves
    q5 = hypercube(5)
    total = sum(_plain(q5.graph, h)[2] for h in range(5))
    assert total < 3_000


def test_branch_and_bound_dimension_six_mid_level():
    # the induction table proves the level-3 optimum, so the search stops
    # at its first leaf, after 74 nodes; from floor 1 and no seeded block
    # it needs 8 034 with the flow bound and forced moves
    q6 = lambda_sh_exact(hypercube(6).graph, 3)
    assert (q6.value, q6.witness_side) == (24, 0xAAAA)
    assert q6.subsets_examined < 4_000
    hl6 = lambda_sh_exact(random_hl(6, 1).graph, 3)
    assert (hl6.value, hl6.witness_side) == (24, 0xFF00)


def test_branch_and_bound_dimension_seven_mid_level():
    # 153 nodes once the induction table proves the value; from floor 1
    # and no seeded block the search takes 170 212 nodes and about 5 s with
    # forced moves and residual masks
    g = hypercube(7).graph
    report = lambda_sh_exact(g, 4)
    assert report.value == 48 == (1 << 4) * (7 - 4)
    assert is_h_edge_cut(g, report.witness_cut, 4)
    assert report.subsets_examined < 13_000


def _plain(g: Graph, h: int):
    """(value, witness side, nodes) of the branch-and-bound search on the
    whole graph, with no induction table and no seeded block: below every
    edge + 1, from floor 1; for graphs whose every vertex has degree at
    least h."""
    return cuts._branch_and_bound(g.adj, h, g.num_edges + 1, 1, None, None)


# (value, witness side, nodes) at every level: the search's decisions, which
# a cheaper node must leave alone; 34 210 nodes over the four members
_DECISIONS = {
    "Q5": (lambda: hypercube(5), [
        (5, 0x2, 63), (8, 0xA, 337), (12, 0xAA, 945), (16, 0xAAAA, 295),
        (16, 0xAAAAAAAA, 48)]),
    "HL5": (lambda: random_hl(5, 1), [
        (5, 0x2, 63), (8, 0xA, 323), (12, 0x6A, 1008), (16, 0xFF00, 263),
        (16, 0xFFFF0000, 33)]),
    "Q6": (lambda: hypercube(6), [
        (6, 0x2, 127), (10, 0xA, 1146), (16, 0xAA, 6072),
        (24, 0xAAAA, 8034), (32, 0xAAAAAAAA, 991),
        (32, 0xAAAAAAAAAAAAAAAA, 96)]),
    "HL6": (lambda: random_hl(6, 1), [
        (6, 0x2, 127), (10, 0xA, 1135), (16, 0xCC, 6326),
        (24, 0xFF00, 5984), (32, 0xFFFF0000, 717),
        (32, 0xFFFFFFFF00000000, 77)]),
}


@pytest.mark.parametrize("member", _DECISIONS)
def test_branch_and_bound_decisions_are_pinned(member):
    build, expected = _DECISIONS[member]
    g = build().graph
    assert [_plain(g, h) for h in range(len(expected))] == expected


# the same of `lambda_sh_exact`, whose induction table proves every value,
# so that the search stops at its first leaf (1 249 nodes over the four)
_TABLE_DECISIONS = {
    "Q5": [(5, 0x2, 33), (8, 0xA, 34), (12, 0xAA, 36), (16, 0xAAAA, 41),
           (16, 0xAAAAAAAA, 34)],
    "HL5": [(5, 0x2, 33), (8, 0xA, 34), (12, 0x6A, 35), (16, 0xFF00, 48),
            (16, 0xFFFF0000, 33)],
    "Q6": [(6, 0x2, 65), (10, 0xA, 66), (16, 0xAA, 68), (24, 0xAAAA, 74),
           (32, 0xAAAAAAAA, 85), (32, 0xAAAAAAAAAAAAAAAA, 66)],
    "HL6": [(6, 0x2, 65), (10, 0xA, 66), (16, 0xCC, 69), (24, 0xFF00, 86),
            (32, 0xFFFF0000, 101), (32, 0xFFFFFFFF00000000, 77)],
}


@pytest.mark.parametrize("member", _DECISIONS)
def test_lambda_decisions_are_pinned(member):
    expected = _TABLE_DECISIONS[member]
    g = _DECISIONS[member][0]().graph
    found = []
    for h in range(len(expected)):
        report = lambda_sh_exact(g, h)
        found.append((report.value, report.witness_side,
                       report.subsets_examined))
    assert found == expected


# -- the induction table ---------------------------------------------------------

@pytest.mark.parametrize("n", [6, 7])
def test_member_files_split(tmp_path, n):
    # `realize` labels every member so that each aligned block is the join
    # of its halves, so a graph read back from disk has the induction table
    # without its trace
    for hl in (hypercube(n), random_hl(n, 1), random_hl(n, n)):
        path = tmp_path / f"{hl.label}.graph"
        write_graph(path, hl.graph)
        adj = read_graph(path).adj
        assert [cuts._bound(adj, h) for h in range(n + 1)] == \
            [(1 << h) * (n - h) for h in range(n)] + [cuts._INF]


def test_public_labels_of_fig1_do_not_split(q4, fig1):
    # every order has a table once its blocks split, down to single
    # vertices: Q4 and the canonical labels of fig1's trace do, and fig1's
    # public numbering does not
    assert cuts._bound(q4.graph.adj, 2) == 8
    assert cuts._bound(realize(fig1.trace).adj, 2) == 8
    assert cuts._bound(fig1.graph.adj, 2) is None


def _unsplit_joins() -> list[Graph]:
    """Two connected graphs of order 64 whose aligned halves are no join:
    Q6 with one more edge across, so vertex 0 has two neighbours in the
    other half; and Q5 matched to two disjoint 4-cubes, whose halves have
    no neighbour in each other."""
    extra = Graph(64, hypercube(6).graph.edges() + [(0, 33)])
    q4 = hypercube(4).graph.edges()
    disjoint = Graph(64, hypercube(5).graph.edges()
                     + [(u + base, v + base) for base in (32, 48)
                        for u, v in q4]
                     + [(i, i + 32) for i in range(32)])
    return [extra, disjoint]


def test_graphs_that_do_not_split_keep_the_whole_search():
    for g in _unsplit_joins():
        assert g.is_connected()
        for h in range(3):
            assert cuts._bound(g.adj, h) is None
            report = lambda_sh_exact(g, h)
            assert (report.value, report.witness_side) == _plain(g, h)[:2]
            assert report.subsets_examined > 0


def _connected(rng: random.Random, order: int) -> Graph:
    while True:
        g = random_simple_graph(rng, order, rng.choice([0.3, 0.5, 0.8]))
        if g.is_connected():
            return g


@st.composite
def _joins(draw) -> Graph:
    """Two random connected graphs of equal order, joined by a random
    perfect matching in the aligned labels that `realize` gives a member.
    The order of each is a power of two, so the join has the induction
    table exactly when both are members in such labels, as every join of
    order 4 is."""
    k = draw(st.sampled_from([2, 4, 8]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    left, right = _connected(rng, k), _connected(rng, k)
    sigma = draw(st.permutations(range(k)))
    return Graph(2 * k, left.edges()
                 + [(u + k, v + k) for u, v in right.edges()]
                 + [(i, k + sigma[i]) for i in range(k)])


@settings(max_examples=30, deadline=None)
@given(_joins())
def test_split_matches_reference_min_cut(g):
    # most halves of order 4 and 8 are no members, so those joins are
    # searched whole from floor 1, below the seeded block where there is one
    expected = reference_min_cuts(g.order, g.edges())
    for h in range(min(a.bit_count() for a in g.adj) + 2):
        report = lambda_sh_exact(g, h)
        assert (report.value, report.witness_side) == \
            expected.get(h, (None, None))


@settings(max_examples=20, deadline=None)
@given(hl_members(max_n=4).filter(lambda hl: hl.n >= 1))
def test_table_is_a_lower_bound(hl):
    # on random traces of depth 1-4, against the plain loop at every level:
    # never above the value, and infinite only where no cut exists
    g = hl.graph
    expected = reference_min_cuts(g.order, g.edges())
    for h in range(hl.n + 1):
        bound = cuts._bound(g.adj, h)
        value = expected[h][0]
        if bound == cuts._INF:
            assert value is None
        else:
            assert value is not None and bound <= value


@pytest.mark.parametrize("n", range(MAX_DIMENSION + 1))
def test_table_is_tight_on_members(n):
    # the bound meets the seeded block at every level, so the search of a
    # member stops at its first leaf; once the aligned pass succeeds the
    # table depends on n and h alone, so Q_n stands for every member in
    # these labels up to the construction cap
    seeds = (1, 2, 3) if n <= 8 else ()
    for hl in [hypercube(n)] + [random_hl(n, s) for s in seeds]:
        assert [cuts._bound(hl.graph.adj, h) for h in range(n + 1)] == \
            [(1 << h) * (n - h) for h in range(n)] + [cuts._INF]


@pytest.mark.parametrize("patch", ["one lower", "no table"])
@pytest.mark.parametrize("build", [lambda: hypercube(6),
                                   lambda: random_hl(6, 1)],
                         ids=["Q6", "HL6"])
def test_fallback_search_runs_where_the_table_falls_short(monkeypatch, build,
                                                          patch):
    # with the bound below the seeded block, or no bound, the search runs
    # past its first leaf below the block's cut + 1 and finds the same
    # value and witness side
    g = build().graph
    expected = [lambda_sh_exact(g, h) for h in range(7)]
    bound = cuts._bound
    monkeypatch.setattr(cuts, "_bound", lambda adj, h: bound(adj, h) - 1
                        if patch == "one lower" else None)
    for h, before in enumerate(expected):
        report = lambda_sh_exact(g, h)
        assert report.subsets_examined > 0
        assert report.subsets_examined >= before.subsets_examined
        assert (report.value, report.witness_side) == \
            (before.value, before.witness_side)


@pytest.mark.parametrize("build", [lambda: hypercube(7),
                                   lambda: random_hl(7, 1)],
                         ids=["Q7", "HL7"])
def test_split_solves_every_level_of_dimension_seven(build):
    # about 0.02 s per member; the search from floor 1 with no seeded block
    # takes about 12.6 s over every level of Q7
    g = build().graph
    for h in range(7):
        report = lambda_sh_exact(g, h)
        assert report.value == (1 << h) * (7 - h)
        assert is_h_edge_cut(g, report.witness_cut, h)
    assert lambda_sh_exact(g, 7).value is None


@pytest.mark.parametrize("build", [hypercube, lambda n: random_hl(n, 1)],
                         ids=["Q10", "HL10"])
def test_every_level_at_the_construction_cap(build):
    # about 0.6-0.9 s per member, at most 1 601 nodes per level: each search
    # ends before its first deadline check, which is why `verify` takes no
    # budget
    n = MAX_DIMENSION
    g = build(n).graph
    for h in range(n):
        report = lambda_sh_exact(g, h)
        assert report.value == (1 << h) * (n - h)
        assert report.subsets_examined < cuts._TIME_CHECK_INTERVAL
        assert is_h_edge_cut(g, report.witness_cut, h)
    assert lambda_sh_exact(g, n).value is None


# (value, witness side, nodes) at every level of Q5 and random_hl(5, seed),
# both relabelled by the seed: the search without a table, from floor 1,
# which stops at no first leaf
_RELABELLED_DECISIONS = {
    1: [[(5, 0x2, 63), (8, 0xC, 492), (12, 0x28C, 1782), (16, 0xDC70, 660),
         (16, 0x34B2DC72, 52), (None, None, 1)],
        [(5, 0x2, 63), (8, 0x22, 523), (12, 0xC30, 2056),
         (16, 0x14020C32, 1137), (16, 0xABB4D14C, 52), (None, None, 1)]],
    2: [[(5, 0x2, 63), (8, 0xC, 486), (12, 0x126, 1632), (16, 0x202966, 701),
         (16, 0x4DA82B6E, 77), (None, None, 1)],
        [(5, 0x2, 63), (8, 0xA, 524), (12, 0x48A0, 1972),
         (16, 0x9082342, 888), (16, 0x4DA82B6E, 61), (None, None, 1)]],
    3: [[(5, 0x2, 63), (8, 0xA, 493), (12, 0x1448, 1855), (16, 0x586380, 653),
         (16, 0x19E1766A, 54), (None, None, 1)],
        [(5, 0x2, 63), (8, 0xA, 532), (12, 0x10068, 2347),
         (16, 0x8E13040, 1210), (16, 0x19E1766A, 88), (None, None, 1)]],
}


@pytest.mark.parametrize("seed", _RELABELLED_DECISIONS)
def test_members_in_other_labels_meet_the_closed_form(seed):
    # shuffled labels leave a member without the induction table, so the
    # search runs from floor 1; it still finds 2^h(n-h) at every level, and
    # its decisions and node counts are pinned
    for hl, expected in zip((hypercube(5), random_hl(5, seed)),
                            _RELABELLED_DECISIONS[seed]):
        g = relabelled(hl.graph, seed)
        found = []
        for h in range(6):
            assert cuts._bound(g.adj, h) is None
            report = lambda_sh_exact(g, h)
            found.append((report.value, report.witness_side,
                          report.subsets_examined))
            if h < 5:
                assert report.value == (1 << h) * (5 - h)
                assert is_h_edge_cut(g, report.witness_cut, h)
                assert len(g.edge_boundary(report.witness_side)) == \
                    report.value
        assert found == expected


@pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
def test_split_matches_the_whole_search_on_dimension_six(seed):
    g = (hypercube(6) if seed is None else random_hl(6, seed)).graph
    for h in range(7):
        report = lambda_sh_exact(g, h)
        assert (report.value, report.witness_side) == _plain(g, h)[:2]


# -- forced moves ----------------------------------------------------------------

def _cycle(order: int) -> Graph:
    return Graph(order, [(v, (v + 1) % order) for v in range(order)])


def _seed(adj, v: int, other: int) -> int:
    """The vertices a branch on v checks first: v and its neighbours on the
    other side."""
    return 1 << v | adj[v] & other


def test_force_runs_a_chain_to_its_fixpoint():
    # h=1 on the 6-cycle with 1 in X and 0, 3 in Y: 1 pulls 2 into X, which
    # leaves 3 with only 4 outside X, so 3 pulls 4 into Y, and 0 pulls 5
    adj = _cycle(6).adj
    x, y = 1 << 1, 1 << 0 | 1 << 3
    assert cuts._force(adj, x, y, 1, 10, 1, _seed(adj, 1, y)) == \
        (0b000110, 0b111001, 2)
    # at h=0 nothing is forced
    assert cuts._force(adj, x, y, 1, 10, 0, _seed(adj, 1, y)) == (x, y, 1)


def test_force_fails_when_a_vertex_falls_below_h():
    # a star around the anchor: a leaf in X keeps no neighbour off Y
    star = Graph(4, [(0, 1), (0, 2), (0, 3)]).adj
    assert cuts._force(star, 1 << 1, 1, 1, 10, 1, _seed(star, 1, 1)) is None
    assert cuts._force(star, 1 << 1, 1, 1, 10, 0, _seed(star, 1, 1)) == \
        (1 << 1, 1, 1)


def test_force_fails_when_forced_edges_reach_the_limit():
    # the chain above cuts 2 edges: pulling 2 into X cuts edge 2-3
    adj = _cycle(6).adj
    x, y = 1 << 1, 1 << 0 | 1 << 3
    assert cuts._force(adj, x, y, 1, 2, 1, _seed(adj, 1, y)) is None
    assert cuts._force(adj, x, y, 1, 3, 1, _seed(adj, 1, y)) is not None


# -- the flow bound ------------------------------------------------------------------

def _keeps_room(adj, x: int, y: int, h: int) -> bool:
    """Every assigned vertex has at least h neighbours off the other side."""
    return all((adj[u] & ~(y if x >> u & 1 else x)).bit_count() >= h
               for u in range(len(adj)) if (x | y) >> u & 1)


@pytest.mark.parametrize("h", range(4))
def test_force_keeps_every_assigned_vertex_at_degree_h(q4, fig1, h):
    # the leaf of `_branch_and_bound` tests only that X is nonempty; along
    # seeded branch chains, every successful `_force` leaves each assigned
    # vertex h neighbours off the other side, which at a leaf is minimum
    # degree h on both sides
    rng = random.Random(h)
    graphs = [q4.graph, fig1.graph]
    while len(graphs) < 12:
        g = random_simple_graph(rng, rng.randint(5, 12), 0.55)
        if _irregular_connected(g) \
                and min(a.bit_count() for a in g.adj) >= h:
            graphs.append(g)
    for g in graphs:
        adj, unreachable = g.adj, g.num_edges + 1
        for _ in range(20):
            x, y, cut = 0, 1, 0
            while ~(x | y) & g.vertex_mask:
                v = rng.choice([v for v in range(g.order)
                                if not (x | y) >> v & 1])
                bit = 1 << v
                sides = [(x | bit, y, adj[v] & y), (x, y | bit, adj[v] & x)]
                rng.shuffle(sides)
                children = [cuts._force(adj, cx, cy, cut + across.bit_count(),
                                        unreachable, h, bit | across)
                            for cx, cy, across in sides]
                children = [c for c in children if c is not None]
                if not children:
                    break
                x, y, cut = children[0]
                assert _keeps_room(adj, x, y, h)


def _min_separating_cut(g: Graph, x: int, y: int) -> int:
    """Smallest |boundary(S)| over every S with X <= S <= V - Y, by brute
    force over the free vertices."""
    free = [v for v in range(g.order) if not (x | y) >> v & 1]
    edges = list(g.edges())
    best = None
    for pick in range(1 << len(free)):
        s = x
        for k, v in enumerate(free):
            if pick >> k & 1:
                s |= 1 << v
        size = sum((s >> u & 1) != (s >> v & 1) for u, v in edges)
        best = size if best is None else min(best, size)
    return best


def _assert_unit_flow(g: Graph, out, x: int, y: int, value: int) -> None:
    inflow = [0] * g.order
    for u in range(g.order):
        assert out[u] & ~g.adj[u] == 0  # only graph edges carry flow
        for w in range(g.order):
            if out[u] >> w & 1:
                assert not out[w] >> u & 1  # never both directions
                inflow[w] += 1
    for u in range(g.order):
        if not (x | y) >> u & 1:
            assert out[u].bit_count() == inflow[u]
    assert sum(out[u].bit_count() - inflow[u]
               for u in range(g.order) if x >> u & 1) == value


def _residual_reach(g: Graph, out, x: int) -> int:
    """Vertices reachable from X over edges u-w that carry no unit u->w."""
    reach = {v for v in range(g.order) if x >> v & 1}
    queue = list(reach)
    while queue:
        u = queue.pop()
        for v in range(g.order):
            if v not in reach and g.adj[u] >> v & 1 and not out[u] >> v & 1:
                reach.add(v)
                queue.append(v)
    return sum(1 << v for v in reach)


@st.composite
def _terminals(draw):
    """A graph and disjoint nonempty X and Y; the other vertices are free."""
    g = draw(small_graphs().filter(lambda g: g.order >= 2))
    roles = draw(st.lists(st.sampled_from("XYF"), min_size=g.order,
                          max_size=g.order))
    x = sum(1 << v for v, r in enumerate(roles) if r == "X")
    y = sum(1 << v for v, r in enumerate(roles) if r == "Y")
    assume(x and y)
    return g, x, y


def _flow(g: Graph, res) -> list[int]:
    """The unit flow behind residual masks: bit w of the result's entry u
    is one unit on u->w."""
    return [a & ~r for a, r in zip(g.adj, res)]


@settings(max_examples=150, deadline=None)
@given(_terminals(), st.data())
def test_flow_bound_equals_the_minimum_separating_cut(case, data):
    g, x, y = case
    unreachable = g.num_edges + 1
    res = list(g.adj)
    value, reach = cuts._augment(g.adj, res, y, 0, unreachable, x, x)
    assert value == _min_separating_cut(g, x, y)
    out = _flow(g, res)
    _assert_unit_flow(g, out, x, y, value)
    assert reach == _residual_reach(g, out, x)
    assert not reach & y
    # the augmentation stops at the limit
    limit = data.draw(st.integers(0, value))
    assert cuts._augment(g.adj, list(g.adj), y, 0, limit, x, x)[0] == limit
    # warm start as the search does it after a branch and its forced
    # moves: the flow stays feasible when free vertices join either side,
    # and the reach says where a new path can start
    roles = data.draw(st.lists(st.sampled_from("XYF"), min_size=g.order,
                               max_size=g.order))
    free = ~(x | y)
    new_x = free & sum(1 << v for v, r in enumerate(roles) if r == "X")
    new_y = free & sum(1 << v for v, r in enumerate(roles) if r == "Y")
    x, y = x | new_x, y | new_y
    if y & reach:
        start = seen = x
    else:
        start, seen = x & ~reach, reach | x
    _assert_unit_flow(g, _flow(g, res), x, y, value)
    warm = value
    if start:
        warm, seen = cuts._augment(g.adj, res, y, value, unreachable, start,
                                   seen)
    assert warm == _min_separating_cut(g, x, y)
    out = _flow(g, res)
    _assert_unit_flow(g, out, x, y, warm)
    assert seen == _residual_reach(g, out, x)


def test_flow_bound_cancels_reverse_flow():
    # the only shortest path 0-1-2-3 blocks the second path, which must run
    # 2->1 against the first unit: 0-4-5-2-1-6-7-3
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (2, 5),
                             (1, 6), (6, 7), (3, 7)])
    res = list(g.adj)
    value, reach = cuts._augment(g.adj, res, 1 << 3, 0, 10, 1, 1)
    assert (value, reach) == (2, 1)
    out = _flow(g, res)
    _assert_unit_flow(g, out, 1, 1 << 3, value)
    assert not out[1] >> 2 & 1 and not out[2] >> 1 & 1


@pytest.mark.parametrize("seed", range(3))
def test_flow_bound_stays_maximum_along_a_chain_of_branches(q4, fig1, seed):
    # a seeded root-to-leaf path of the search: each step assigns a free
    # vertex, closes the child under forced moves, and carries the masks,
    # value and warm start into the next as `_branch_and_bound` does, so
    # later generations restart from a warm frontier after their pushes
    rng = random.Random(seed)
    warm_pushes = 0
    for hl in (q4, fig1):
        g, adj = hl.graph, hl.graph.adj
        unreachable = g.num_edges + 1
        h = 1 + seed % 2
        x, y, cut = 0, 1, 0
        res, value, seen = list(adj), 0, 0
        while ~(x | y) & g.vertex_mask:
            v = rng.choice([v for v in range(g.order)
                            if not (x | y) >> v & 1])
            bit = 1 << v
            sides = [(x | bit, y, adj[v] & y), (x, y | bit, adj[v] & x)]
            rng.shuffle(sides)
            children = [cuts._force(adj, cx, cy, cut + across.bit_count(),
                                    unreachable, h, bit | across)
                        for cx, cy, across in sides]
            children = [c for c in children if c is not None]
            if not children:
                break
            x, y, cut = children[0]
            if y & seen:
                start = seen = x
            else:
                start = x & ~seen
                seen |= x
            if start:
                before = value
                value, seen = cuts._augment(adj, res, y, value, unreachable,
                                            start, seen)
                warm_pushes += start != x and value > before + 1
            out = _flow(g, res)
            _assert_unit_flow(g, out, x, y, value)
            assert value == _min_separating_cut(g, x, y)
            assert seen == _residual_reach(g, out, x)
    # some call pushes more than one path from a warm frontier
    assert warm_pushes


@settings(max_examples=15, deadline=None)
@given(hl_members(max_n=4))
def test_solver_witness_is_always_a_valid_cut(hl):
    if hl.n < 1:
        return
    for h in range(hl.n):
        report = lambda_sh_exact(hl.graph, h)
        assert report.value is not None
        assert is_h_edge_cut(hl.graph, report.witness_cut, h)
        assert report.value == (1 << h) * (hl.n - h)


# -- guards and budgets ---------------------------------------------------------------

def test_disconnected_input_rejected():
    g = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(UsageError):
        lambda_sh_exact(g, 0)


def test_gate_caps_the_subset_scans_at_32_vertices():
    # only kappa's subset scan is gated; the cut search takes any order,
    # and the lemma checks read the induction table
    ring = Graph(40, [(i, (i + 1) % 40) for i in range(40)])
    assert lambda_sh_exact(ring, 0).value == 2
    assert check_lemma_32(hypercube(6), 0).holds
    with pytest.raises(UsageError, match="order 64 exceeds the subset-scan "
                                         "cap of 32 vertices") as err:
        kappa_sh_exact(hypercube(6).graph, 0)
    assert "override" not in str(err.value)


def test_gate_does_not_apply_to_branch_and_bound():
    q6 = hypercube(6)
    report = lambda_sh_exact(q6.graph, 5)
    assert report.value == 32


@pytest.mark.parametrize("method", ["exhaustive", "branch-and-bound"])
@pytest.mark.parametrize("budget", [float("nan"), -5.0, -1e-9])
def test_budget_must_be_a_nonnegative_number(method, budget, tmp_path,
                                            monkeypatch):
    # checked before any search: a NaN deadline never expires, and a
    # negative one expires at the first deadline check
    with pytest.raises(UsageError, match="budget"):
        lambda_sh_exact(hypercube(6).graph, 3, budget=budget)

    # solve exits 2 before any search, whichever method name a script
    # gives: the bad budget, or the retired exhaustive scan, is refused
    def no_search(*args):
        raise AssertionError("a cut search started")

    monkeypatch.setattr(cuts, "_branch_and_bound", no_search)
    path = tmp_path / "q6.graph"
    write_graph(path, hypercube(6).graph)
    argv = ["solve", "--graph", str(path), "--h", "3", "--method", method,
            f"--budget={budget}"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an unknown --method
        code = exc.code
    assert code == 2


def test_zero_and_infinite_budgets_accepted(q3):
    # Q3 takes fewer nodes than the first deadline check
    for budget in (0.0, float("inf")):
        assert lambda_sh_exact(q3.graph, 1, budget=budget).value == 4


def _hl7() -> Graph:
    """random_hl(7, 1) with its labels shuffled: it has no induction table,
    so its search runs from floor 1, for 8 653 nodes and about 0.11 s at
    h=1 and 465 974 nodes and about 3 s at h=2."""
    return relabelled(random_hl(7, 1).graph, 8)


def test_budget_exhaustion_raises_incomplete():
    # h=3 runs far past the 0.02 s budget, which expires at the first
    # deadline check at node 4096 or at a later one
    g = _hl7()
    assert cuts._bound(g.adj, 3) is None
    with pytest.raises(IncompleteSearchError) as err:
        lambda_sh_exact(g, 3, budget=0.02)
    assert err.value.budget == 0.02
    assert err.value.subsets_examined > 0


def test_budget_exhaustion_branch_and_bound_carries_witness():
    g = _hl7()
    with pytest.raises(IncompleteSearchError) as err:
        lambda_sh_exact(g, 3, budget=0.05)
    # the search's first leaf, at node 2 695, comes before the first
    # deadline check
    best_value, best_side = err.value.best_value, err.value.best_side
    assert best_value is not None
    assert len(g.edge_boundary(best_side)) == best_value
    assert is_h_edge_cut(g, g.edge_boundary(best_side), 3)


def test_interrupt_hands_back_the_incumbent(monkeypatch):
    # Ctrl-C in the middle of the search, after its first leaf, on Q5
    # without its table
    augment = cuts._augment
    calls = []

    def interrupted_after_five(*args):
        calls.append(None)
        if len(calls) > 5:
            raise KeyboardInterrupt
        return augment(*args)

    monkeypatch.setattr(cuts, "_augment", interrupted_after_five)
    g = relabelled(hypercube(5).graph, 8)
    with pytest.raises(IncompleteSearchError, match="interrupted") as err:
        lambda_sh_exact(g, 2)
    side = err.value.best_side
    assert err.value.budget is None
    assert err.value.best_value == len(g.edge_boundary(side)) == 12
    assert is_h_edge_cut(g, g.edge_boundary(side), 2)


def test_deadline_counts_the_nodes_of_the_whole_call():
    # with budget 0 the search expires at its node 4096 and hands back its
    # incumbent: at h=6 it needs 5 412 nodes, and its first leaf, at node
    # 3 228, is already the minimum
    g = _hl7()
    complete = lambda_sh_exact(g, 6)
    assert complete.subsets_examined > cuts._TIME_CHECK_INTERVAL
    with pytest.raises(IncompleteSearchError) as err:
        lambda_sh_exact(g, 6, budget=0)
    assert err.value.subsets_examined == cuts._TIME_CHECK_INTERVAL
    value, side = err.value.best_value, err.value.best_side
    assert (value, side) == (complete.value, complete.witness_side)
    assert value == 64
    assert is_h_edge_cut(g, g.edge_boundary(side), 6)


def test_interrupt_in_the_fallback_hands_back_the_seeded_block(monkeypatch):
    # Ctrl-C at the first forced-move closure of the search, with the
    # table's bound one short of the seeded block: the search has no leaf
    # yet, so the seeded block's complement comes back
    bound = cuts._bound
    monkeypatch.setattr(cuts, "_bound", lambda adj, h: bound(adj, h) - 1)

    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cuts, "_force", interrupted)
    g = hypercube(7).graph
    with pytest.raises(IncompleteSearchError, match="interrupted") as err:
        lambda_sh_exact(g, 3)
    assert err.value.budget is None
    assert (err.value.best_value, err.value.best_side) == \
        (32, g.vertex_mask ^ 0xFF)
    assert is_h_edge_cut(g, g.edge_boundary(err.value.best_side), 3)


def test_a_proven_value_hands_back_the_seeded_block(monkeypatch):
    # the table proves Q7's level-3 value, so the one search runs below the
    # seeded block's cut + 1, from that block as its incumbent, and stops at
    # that cut; when it expires at its first node, before its first leaf,
    # the seeded block's complement, without vertex 0, comes back with the
    # search's one node and the budget
    search = cuts._branch_and_bound
    calls = []

    def recorded(adj, h, limit, floor, budget, best_side):
        calls.append((limit, floor, best_side))
        return search(adj, h, limit, floor, budget, best_side)

    monkeypatch.setattr(cuts, "_branch_and_bound", recorded)
    monkeypatch.setattr(cuts, "_TIME_CHECK_INTERVAL", 1)
    g = hypercube(7).graph
    with pytest.raises(IncompleteSearchError) as err:
        lambda_sh_exact(g, 3, budget=0)
    assert calls == [(33, 32, g.vertex_mask ^ 0xFF)]
    assert (err.value.best_value, err.value.best_side) == \
        (32, g.vertex_mask ^ 0xFF)
    assert err.value.subsets_examined == 1
    assert err.value.budget == 0
