"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them).

Criterion 5 checks that a complete scan decides the vertex variant on the
bundled figure fixture, both ways. The fixture has cuts at levels 0, 1 and 2
with values 4, 6, 8 = 2^h (4 - h); the level-2 witness is re-checked by an
induced-subgraph BFS outside the package, because deleting
{0,3,4,7,8,11,12,15} (or the scan's lexicographically first choice, the
complementary corners {1,2,5,6,9,10,13,14}) leaves two disjoint 4-cycles.
Nonexistence is checked where it holds: the fixture at level 3, and the
seeded member random_hl(4, 0) at level 2, each after all 65519 subsets of
sizes 0..14. An independent networkx scan over all subsets agrees with
every one of these outcomes.
"""

from __future__ import annotations

import time

import pytest

from conftest import reference_min_cuts, reference_vertex_cut
from hlcut import (FIG1_EDGES, IncompleteSearchError, canonical_cut,
                   check_lemma_32, check_lemma_35, check_lemma_37,
                   dumps_report, hypercube, is_h_edge_cut, is_h_vertex_cut,
                   kappa_sh_exact, lambda_sh_exact, random_hl)


def announce(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE C{num}: {'PASS' if ok else 'FAIL'} - {detail}")


def formula(n: int, h: int) -> int:
    return (1 << h) * (n - h)


@pytest.fixture(scope="module")
def cube_runs():
    graphs = {n: hypercube(n) for n in (2, 3, 4)}
    t0 = time.perf_counter()
    reports = {(n, h): lambda_sh_exact(graphs[n].graph, h)
               for n in (2, 3, 4) for h in range(n)}
    return graphs, reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def random_runs():
    graphs = {seed: random_hl(4, seed) for seed in range(1, 21)}
    t0 = time.perf_counter()
    reports = {(seed, h): lambda_sh_exact(graphs[seed].graph, h)
               for seed in range(1, 21) for h in range(4)}
    return graphs, reports, time.perf_counter() - t0


def test_criterion_1_hypercube_values_match_closed_form(cube_runs):
    _, reports, elapsed = cube_runs
    mismatches = [(n, h, r.value) for (n, h), r in reports.items()
                  if r.value != formula(n, h)]
    ok = not mismatches and elapsed < 5.0
    announce(1, ok, f"9 exact values on 3 cubes in {elapsed:.2f}s "
                    f"(budget 5s), mismatches={mismatches}")
    assert not mismatches
    assert elapsed < 5.0


def test_criterion_2_twenty_random_members(random_runs):
    _, reports, elapsed = random_runs
    mismatches = [(seed, h, r.value) for (seed, h), r in reports.items()
                  if r.value != formula(4, h)]
    ok = not mismatches and elapsed < 60.0
    announce(2, ok, f"80 exact values on 20 seeded members in {elapsed:.2f}s "
                    f"(budget 60s), mismatches={mismatches}")
    assert not mismatches
    assert elapsed < 60.0


def test_criterion_3_canonical_cuts_to_dimension_eight():
    t0 = time.perf_counter()
    bad = []
    for n in range(2, 9):
        members = [hypercube(n)] + [random_hl(n, 10 * n + s) for s in range(10)]
        for hl in members:
            for h in range(n):
                cut = canonical_cut(hl, h)
                if len(cut) != formula(n, h) or not is_h_edge_cut(hl.graph, cut, h):
                    bad.append((hl.label, h))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 5.0
    announce(3, ok, f"canonical cuts valid on 77 members (n=2..8) in "
                    f"{elapsed:.2f}s (budget 5s), failures={bad}")
    assert not bad
    assert elapsed < 5.0


def test_criterion_4_bound_lemmas_full_scan(fig1):
    t0 = time.perf_counter()
    members = [hypercube(4), fig1] + [random_hl(4, s) for s in range(1, 6)]
    failures = []
    scans = 0
    # the size bound admits h = n, the other two stop at n - 1; one check
    # decides one level of one bound
    checks = ((check_lemma_32, 4), (check_lemma_35, 3), (check_lemma_37, 3))
    for hl in members:
        for check, top in checks:
            for h in range(top + 1):
                v = check(hl, h)
                scans += 1
                if not v.holds or v.subsets_checked != 2 ** 16 - 1:
                    failures.append((hl.label, v.lemma_id, v.h))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    announce(4, ok, f"{scans} checks covering all 2^16 - 1 subsets over 7 "
                    f"members in {elapsed:.2f}s "
                    f"(budget 120s), failures={failures}")
    assert not failures
    assert elapsed < 120.0


def test_criterion_5_figure_fixture_vertex_variant(fig1):
    t0 = time.perf_counter()
    existing = {h: kappa_sh_exact(fig1.graph, h) for h in (0, 1, 2)}
    values = [existing[h].value for h in (0, 1, 2)]
    revalidated = all(
        r.exists and is_h_vertex_cut(fig1.graph, r.witness, h)
        for h, r in existing.items())
    witness = [v for v in range(16) if (existing[2].witness or 0) >> v & 1]
    referenced = reference_vertex_cut(16, FIG1_EDGES, witness, 2)
    fig1_level3 = kappa_sh_exact(fig1.graph, 3)
    member = random_hl(4, 0)
    member_level2 = kappa_sh_exact(member.graph, 2)
    elapsed = time.perf_counter() - t0
    full_scan = 2 ** 16 - 17  # every size 0..14
    nonexistent = {
        "fig1 h=3": (fig1_level3.exists, fig1_level3.subsets_checked),
        f"{member.label} h=2": (member_level2.exists,
                                member_level2.subsets_checked),
    }
    ok = (values == [formula(4, h) for h in (0, 1, 2)] and revalidated
          and referenced
          and all(not found and checked == full_scan
                  for found, checked in nonexistent.values())
          and elapsed < 30.0)
    announce(5, ok,
             f"fig1 levels 0,1,2 exist with values {values} (re-validated: "
             f"{revalidated}; level-2 witness {witness} confirmed by the "
             f"reference BFS: {referenced}); (exists, subsets) for the "
             f"complete scans {nonexistent}, expected (False, {full_scan}); "
             f"{elapsed:.2f}s (budget 30s)")
    assert values == [4, 6, 8] == [formula(4, h) for h in (0, 1, 2)]
    assert revalidated
    assert referenced
    assert not fig1_level3.exists
    assert fig1_level3.subsets_checked == full_scan
    assert not member_level2.exists
    assert member_level2.subsets_checked == full_scan
    assert elapsed < 30.0


def test_criterion_6_monotone_values(cube_runs, random_runs):
    _, cubes, _ = cube_runs
    _, randoms, _ = random_runs
    violations = []
    for n in (2, 3, 4):
        vals = [cubes[(n, h)].value for h in range(n)]
        if vals != sorted(vals):
            violations.append(("Q", n, vals))
    for seed in range(1, 21):
        vals = [randoms[(seed, h)].value for h in range(4)]
        if vals != sorted(vals):
            violations.append(("seed", seed, vals))
    announce(6, not violations, f"values nondecreasing in h on 23 instances, "
                                f"violations={violations}")
    assert not violations


def test_criterion_7_method_and_thread_determinism(cube_runs, random_runs):
    cube_graphs, cube_reports, _ = cube_runs
    random_graphs, random_reports, _ = random_runs
    t0 = time.perf_counter()
    runs = [(hl, cube_reports[(n, h)], h)
            for n, hl in cube_graphs.items() for h in range(n)]
    runs += [(hl, random_reports[(seed, h)], h)
             for seed, hl in random_graphs.items() for h in range(4)]
    oracles = {}
    wrong, diffs = [], []
    for hl, report, h in runs:
        if hl.label not in oracles:
            oracles[hl.label] = reference_min_cuts(hl.graph.order,
                                                   hl.graph.edges())
        if (report.value, report.witness_side) != oracles[hl.label][h]:
            wrong.append((hl.label, h))
        if dumps_report(lambda_sh_exact(hl.graph, h)) != dumps_report(report):
            diffs.append((hl.label, h))
    elapsed = time.perf_counter() - t0
    ok = not wrong and not diffs
    announce(7, ok, f"branch-and-bound (value, witness side) against the "
                    f"brute-force oracle and byte-identical reports from a "
                    f"repeated run on {len(oracles)} instances in "
                    f"{elapsed:.2f}s, wrong={wrong}, diffs={diffs}")
    assert not wrong
    assert not diffs


def test_criterion_8_dimension_five_stretch():
    q5 = hypercube(5)
    total_budget = 600.0
    deadline = time.monotonic() + total_budget
    outcomes = {}
    t0 = time.perf_counter()
    for h in range(5):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            outcomes[h] = "incomplete (budget exhausted)"
            continue
        try:
            report = lambda_sh_exact(q5.graph, h, budget=remaining)
            outcomes[h] = report.value
        except IncompleteSearchError as exc:
            outcomes[h] = f"incomplete (best incumbent {exc.best_value})"
    elapsed = time.perf_counter() - t0
    completed = {h: v for h, v in outcomes.items() if isinstance(v, int)}
    mismatches = {h: v for h, v in completed.items() if v != formula(5, h)}
    announce(8, not mismatches,
             f"outcomes={outcomes} in {elapsed:.1f}s (budget 600s); "
             f"incomplete levels reported as such, never asserted")
    assert not mismatches
