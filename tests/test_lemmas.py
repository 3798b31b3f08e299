"""Exhaustive verification of the subset bounds and the equality check."""

from __future__ import annotations

import random
from math import comb

import pytest
from hypothesis import given, settings

from hlcut import (FIG1_TRACE, LEMMA_32, LEMMA_35, LEMMA_37, THEOREM,
                   UsageError, block_vertices, check_lemma_32, check_lemma_35,
                   check_lemma_37, check_theorem, cli, fig1_graph, from_trace,
                   hypercube, lambda_sh_exact, mask_of, random_hl, realize,
                   write_trace)
from hlcut import cuts, lemmas
from hlcut.build import MAX_DIMENSION
from hlcut.graph import Graph

from conftest import (hl_traces, reference_adjacency, reference_boundary_size,
                      reference_induced_min_degree,
                      reference_min_degree_subsets)


CHECKS = {LEMMA_32: check_lemma_32, LEMMA_35: check_lemma_35,
          LEMMA_37: check_lemma_37}


def _qualifying(g: Graph, h: int) -> list[int]:
    return reference_min_degree_subsets(g.order, g.edges(), h)


def _bounds(n: int, h: int) -> dict[str, int]:
    return {LEMMA_32: 1 << h, LEMMA_35: (1 << h) * (n + 1 - h),
            LEMMA_37: (1 << h) * (n - h)}


def _quantity(lemma: str, size: int, boundary: int) -> int:
    return {LEMMA_32: size, LEMMA_35: size + boundary,
            LEMMA_37: boundary}[lemma]


# each check admits the levels 0..n - slack on a dimension-n member
SLACK = {LEMMA_32: 0, LEMMA_35: 1, LEMMA_37: 1}


# -- the reference subset enumeration ------------------------------------------

def test_square_has_one_2_regular_subset(q2):
    assert _qualifying(q2.graph, 2) == [0b1111]


def test_zero_level_enumerates_everything(q3):
    assert len(_qualifying(q3.graph, 0)) == 2 ** 8 - 1


def test_cube_has_one_3_regular_subset(q3):
    assert _qualifying(q3.graph, 3) == [0b11111111]


# -- size bound (L3.2) ----------------------------------------------------------

# tight-subset counts brute-forced independently over all 2^16 subsets
TIGHT = {
    ("Q4", 0): (16, 16, 32),
    ("Q4", 1): (32, 32, 64),
    ("Q4", 2): (24, 24, 56),
    ("Q4", 3): (8, 9, 8),
    ("fig1", 0): (16, 16, 32),
    ("fig1", 1): (32, 32, 64),
    ("fig1", 2): (20, 20, 44),
    ("fig1", 3): (4, 5, 4),
}


def test_size_bound_q4_tight_includes_square_blocks(q4):
    verdict = check_lemma_32(q4, 2)
    assert verdict.holds and verdict.counterexample is None
    assert verdict.subsets_checked == 2 ** 16 - 1
    assert verdict.tight_witnesses == TIGHT[("Q4", 2)][0]
    block = block_vertices(q4, 2)
    assert block.bit_count() == 4
    assert reference_induced_min_degree(16, q4.graph.edges(), block) >= 2


def test_size_bound_trivial_at_level_zero(q4):
    assert check_lemma_32(q4, 0).holds


def test_size_bound_fig1_halves_are_tight(fig1):
    verdict = check_lemma_32(fig1, 3)
    assert verdict.holds
    assert verdict.tight_witnesses == TIGHT[("fig1", 3)][0]
    for half in (mask_of([0, 1, 2, 3, 8, 9, 10, 11]),
                 mask_of([4, 5, 6, 7, 12, 13, 14, 15])):
        assert half.bit_count() == 8  # == 2^3, i.e. tight
        assert reference_induced_min_degree(16, fig1.graph.edges(), half) >= 3


def test_size_bound_whole_graph_at_top_level(q4, fig1):
    for hl in (q4, fig1):
        verdict = check_lemma_32(hl, 4)
        assert verdict.holds and verdict.tight_witnesses == 1


# -- size-plus-boundary bound (L3.5) ---------------------------------------------

def test_size_plus_boundary_singletons_tight(q4):
    verdict = check_lemma_35(q4, 0)
    assert verdict.holds
    assert verdict.tight_witnesses == TIGHT[("Q4", 0)][1]  # the 16 singletons


def test_size_plus_boundary_q4(q4):
    verdict = check_lemma_35(q4, 2)
    assert verdict.holds and verdict.tight_witnesses == TIGHT[("Q4", 2)][1]


def test_size_plus_boundary_block_is_tight(q3):
    block = block_vertices(q3, 2)
    total = block.bit_count() + len(q3.graph.edge_boundary(block))
    assert total == 8 == (1 << 2) * (3 + 1 - 2)


# -- boundary bound (L3.7) --------------------------------------------------------

def test_boundary_bound_q4_block_tight(q4):
    verdict = check_lemma_37(q4, 2)
    assert verdict.holds and verdict.tight_witnesses == TIGHT[("Q4", 2)][2]
    assert len(q4.graph.edge_boundary(block_vertices(q4, 2))) == 8


def test_boundary_bound_edge_pair_tight(q2):
    boundary = q2.graph.edge_boundary(mask_of([0, 1]))
    assert len(boundary) == 2 == (1 << 1) * (2 - 1)


def test_boundary_bound_fig1_level_zero(fig1):
    verdict = check_lemma_37(fig1, 0)
    assert verdict.holds
    # every proper subset therefore has boundary >= 4, matching the solver
    assert lambda_sh_exact(fig1.graph, 0).value == 4


def test_all_bounds_on_random_members():
    for seed in (3, 4):
        hl = random_hl(4, seed)
        for check in CHECKS.values():
            verdicts = [check(hl, h) for h in range(4)]
            assert [v.h for v in verdicts] == [0, 1, 2, 3]
            assert all(v.holds for v in verdicts)


def test_fig1_level_two_tight_counts(fig1):
    counts = tuple(check(fig1, 2).tight_witnesses
                   for check in CHECKS.values())
    assert counts == TIGHT[("fig1", 2)]


def test_dimension_five_tight_counts_are_the_subcubes():
    # out of reach of a plain 2^32-step walk; Q5's tight subsets are its
    # subcubes of dimension h: for L3.5 at h = 4 also V itself, and for L3.7
    # each with its complement, which at h = 3 = n - 2 adds the ten Q4
    # halves and at h = 4 is a Q4 half again
    subcubes = [comb(5, h) << (5 - h) for h in range(6)]
    assert subcubes == [32, 80, 80, 40, 10, 1]
    expected = {LEMMA_32: subcubes,
                LEMMA_35: subcubes[:4] + [subcubes[4] + 1],
                LEMMA_37: [2 * c for c in subcubes[:3]]
                + [2 * subcubes[3] + subcubes[4], subcubes[4]]}
    for hl in (hypercube(5), random_hl(5, 1)):
        for k, check in CHECKS.items():
            verdicts = [check(hl, h) for h in range(5 + 1 - SLACK[k])]
            assert all(v.subsets_checked == 2 ** 32 - 1 for v in verdicts)
            assert all(v.holds for v in verdicts)
            if hl.label == "Q5":
                assert [v.tight_witnesses for v in verdicts] == expected[k]


def test_level_out_of_range_rejected(q4, monkeypatch):
    # the level is validated before the table is read
    monkeypatch.setattr(lemmas, "_verdict", None)
    with pytest.raises(UsageError):
        check_lemma_37(q4, 4)
    with pytest.raises(UsageError):
        check_lemma_32(q4, 5)
    with pytest.raises(UsageError):
        check_lemma_35(q4, -1)


# -- the census against the brute force -----------------------------------------

def _brute_force_bounds(g: Graph, n: int) -> dict:
    """{h: {lemma: (holds, counterexample, tight_witnesses)}} for every
    level 0..n, straight from the definitions: one pass over every nonempty
    subset X on adjacency sets. X counts at every level up to its minimum
    degree, and for L3.7 only while a nonempty complement keeps it too."""
    edges = g.edges()
    masks = [sum(1 << w for w in nbrs)
             for _, nbrs in sorted(reference_adjacency(g.order, edges).items())]
    full = (1 << g.order) - 1
    least = [-1] * (full + 1)  # the empty set qualifies at no level
    for x in range(1, full + 1):
        least[x] = min((masks[v] & x).bit_count()
                       for v in range(g.order) if x >> v & 1)
    found = {h: {k: [True, None, 0] for k in _bounds(n, h)}
             for h in range(n + 1)}
    for x in range(1, full + 1):
        boundary = reference_boundary_size(edges, x)
        for h in range(min(least[x], n) + 1):
            bounds = _bounds(n, h)
            applicable = [LEMMA_32, LEMMA_35]
            if least[full ^ x] >= h:
                applicable.append(LEMMA_37)
            for k in applicable:
                q = _quantity(k, x.bit_count(), boundary)
                if q < bounds[k]:
                    found[h][k][0] = False
                    if found[h][k][1] is None:
                        found[h][k][1] = x
                elif q == bounds[k]:
                    found[h][k][2] += 1
    return {h: {k: tuple(v) for k, v in row.items()}
            for h, row in found.items()}


def _assert_census_matches_brute_force(hl):
    expected = _brute_force_bounds(hl.graph, hl.n)
    for k, check in CHECKS.items():
        for h in range(hl.n + 1 - SLACK[k]):
            v = check(hl, h)
            assert (v.h, v.holds, v.counterexample, v.tight_witnesses) == \
                (h, *expected[h][k])
            assert v.subsets_checked == hl.graph.vertex_mask


@settings(max_examples=12, deadline=None)
@given(hl_traces(max_n=4))
def test_census_matches_brute_force(hl):
    # random traces of depth 0-4, every matching a random bijection
    _assert_census_matches_brute_force(hl)


@pytest.mark.parametrize("build", [
    lambda: hypercube(4), lambda: random_hl(4, 1), lambda: random_hl(4, 2),
    lambda: random_hl(4, 3), lambda: from_trace(FIG1_TRACE, "fig1-trace"),
    fig1_graph], ids=["Q4", "HL4-1", "HL4-2", "HL4-3", "fig1-trace", "fig1"])
def test_census_matches_brute_force_on_the_order_16_members(build):
    # fig1_graph() keeps its public numbering, which the census maps back
    # to the trace's labels
    _assert_census_matches_brute_force(build())


@pytest.mark.parametrize("n", range(MAX_DIMENSION + 1))
def test_table_meets_every_bound(n):
    # a verdict reads only the table's top entries, which depend on n
    # alone: they equal each bound at every level up to the construction
    # cap, so no member meets the AssertionError and every level has tight
    # sets
    top = cuts._table(n)[n]
    for h in range(n + 1):
        bounds = _bounds(n, h)
        assert top[-1][h] == bounds[LEMMA_32]
        if h < n:
            assert top[1][h] == bounds[LEMMA_35]
            assert top[0][h] == bounds[LEMMA_37]


def test_table_below_the_bound_is_an_internal_error(q4, tmp_path, capsys,
                                                     monkeypatch):
    # an entry below the bound proves nothing, so it is a bug (exit 4),
    # never a FAILS verdict (exit 1)
    def lowered(n):
        tables = [[list(row) for row in rows] for rows in cuts._table(n)]
        tables[n][0][2] -= 1
        return tables

    monkeypatch.setattr(lemmas, "_table", lowered)
    with pytest.raises(AssertionError, match="L3.7 at h=2"):
        check_lemma_37(q4, 2)
    assert check_lemma_37(q4, 1).holds
    trace = tmp_path / "q4.trace"
    write_trace(trace, q4.trace)
    assert cli.main(["verify", "--lemma", "3.7", "--trace", str(trace),
                     "--h", "2"]) == 4
    assert "internal error: AssertionError" in capsys.readouterr().err


def _handed_out(monkeypatch) -> dict:
    """(depth, row, level) -> every census list `_tight` hands out for it,
    its recursive calls included, from now on."""
    handed = {}
    real = lemmas._tight

    def recording(adj, table, memo, d, r, h):
        out = real(adj, table, memo, d, r, h)
        handed.setdefault((d, r, h), []).append(out)
        return out

    monkeypatch.setattr(lemmas, "_tight", recording)
    return handed


def test_the_levels_of_one_member_share_its_lists(monkeypatch):
    # every level of every lemma on one member object reads one list per
    # depth, row and level, built the first time it is asked
    handed = _handed_out(monkeypatch)
    hl = hypercube(4)
    for k, check in CHECKS.items():
        for h in range(hl.n + 1 - SLACK[k]):
            check(hl, h)
    assert max(map(len, handed.values())) > 1
    assert all(out is outs[0] for outs in handed.values() for out in outs)


def test_an_equal_member_builds_its_own_lists(monkeypatch):
    # a member is held by identity: an equal but distinct one starts afresh
    handed = _handed_out(monkeypatch)
    a, b = hypercube(4), hypercube(4)
    assert a == b and a is not b
    for hl in (a, b):
        for h in range(hl.n):
            check_lemma_37(hl, h)
    assert all(len({id(out) for out in outs}) == 2
               for outs in handed.values())


# tight counts of the census past the brute force's reach
CENSUS = {
    ("Q6", LEMMA_32): [64, 192, 240, 160, 60, 12, 1],
    ("Q6", LEMMA_37): [128, 384, 480, 320, 132, 12],
    ("Q7", LEMMA_37): [256, 896, 1344, 1120, 560, 182, 14],
    ("Q8", LEMMA_32): [256, 1024, 1792, 1792, 1120, 448, 112, 16, 1],
    ("Q8", LEMMA_37): [512, 2048, 3584, 3584, 2240, 896, 240, 16],
    ("HL6[seed=1]", LEMMA_37): [128, 384, 178, 20, 10, 2],
}


@pytest.mark.parametrize("graph,lemma", sorted(CENSUS))
def test_census_counts_are_pinned(graph, lemma):
    hl = {"Q6": hypercube(6), "Q7": hypercube(7), "Q8": hypercube(8),
          "HL6[seed=1]": random_hl(6, 1)}[graph]
    verdicts = [CHECKS[lemma](hl, h) for h in range(hl.n + 1 - SLACK[lemma])]
    assert all(v.holds and v.subsets_checked == 2 ** (1 << hl.n) - 1
               for v in verdicts)
    assert [v.tight_witnesses for v in verdicts] == CENSUS[graph, lemma]


@pytest.mark.parametrize("n", range(5, 9))
def test_cube_minimum_cuts_are_the_subcubes(n):
    # each minimum cut of Q_n at level h <= n - 2 splits off a subcube of
    # dimension h, C(n, h) 2^(n-h) of them, plus at h = n - 2 the n splits
    # into two halves; at h = n - 1 only those n are left. L3.7 counts both
    # sides of every cut
    q = hypercube(n)
    cuts_found = [check_lemma_37(q, h).tight_witnesses // 2 for h in range(n)]
    expected = [comb(n, h) << (n - h) for h in range(n - 1)] + [n]
    expected[n - 2] += n
    assert cuts_found == expected


# -- equality check (T3.8) ----------------------------------------------------------

def test_equality_q4_all_levels(q4):
    values = []
    for h in range(4):
        verdict = check_theorem(q4, h)
        assert verdict.lemma_id == THEOREM and verdict.holds
        values.append((1 << h) * (4 - h))
    assert values == [4, 6, 8, 8]


def test_equality_fig1_all_levels(fig1):
    assert all(check_theorem(fig1, h).holds for h in range(4))


def test_equality_random_members():
    for seed in (6, 7, 8):
        hl = random_hl(4, seed)
        assert all(check_theorem(hl, h).holds for h in range(4))


def test_equality_level_out_of_range(q4):
    with pytest.raises(UsageError):
        check_theorem(q4, 4)


# -- cross-consistency ----------------------------------------------------------------

def test_min_qualifying_boundary_equals_solver_value(q3, fig1):
    for hl in (q3, fig1):
        g = hl.graph
        edges = g.edges()
        for h in range(hl.n):
            qualifying = _qualifying(g, h)
            keeps = set(qualifying)
            best = min(reference_boundary_size(edges, x)
                       for x in qualifying if g.vertex_mask ^ x in keeps)
            report = lambda_sh_exact(g, h)
            assert best == report.value


def test_boundary_splits_for_confined_subsets():
    # for X inside the left half, the full boundary is the boundary within
    # the half plus one matching edge per vertex of X
    for hl in (hypercube(4), random_hl(4, 21), random_hl(5, 22)):
        half_graph = realize(hl.trace.left)
        half_mask = block_vertices(hl, hl.n - 1)
        rng = random.Random(hl.n * 1000 + 7)
        for _ in range(40):
            x = rng.getrandbits(half_graph.order)
            if x == 0 or x & ~half_mask:
                continue
            assert reference_boundary_size(hl.graph.edges(), x) == \
                reference_boundary_size(half_graph.edges(), x) + x.bit_count()
