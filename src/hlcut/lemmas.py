"""Machine-checking the bound chain behind the main equality by exhaustive
enumeration of qualifying vertex subsets, plus the end-to-end equality check.

The three subset bounds, for a dimension-n member and a subset X with
minimum induced degree >= h:

  L3.2   |X| >= 2^h                          (h in 0..n)
  L3.5   |X| + |boundary(X)| >= 2^h(n+1-h)   (h in 0..n-1)
  L3.7   |boundary(X)| >= 2^h(n-h)           (h in 0..n-1, both sides >= h)

and T3.8 is the solver-vs-formula equality check. One Gray-code walk over all
nonempty subsets decides every requested level of one bound. The walk
updates |X| and |boundary(X)| in O(1) per subset. A subset is tested for
minimum degree only at the levels whose bound its quantity meets, in
ascending order, and only up to the first level it fails: min degree >= h'
implies min degree >= h for every h < h'.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .build import HlGraph
from .cuts import lambda_sh_exact
from .errors import UsageError
from .graph import Graph, boundary_walk, check_gate, keeps_degree

LEMMA_32 = "L3.2"
LEMMA_35 = "L3.5"
LEMMA_37 = "L3.7"
THEOREM = "T3.8"


@dataclass(frozen=True)
class LemmaVerdict:
    lemma_id: str
    graph_id: str
    h: int
    holds: bool
    counterexample: int | None  # smallest mask of a violating subset
    subsets_checked: int
    tight_witnesses: int  # subsets meeting the bound with equality


class LemmaScan(NamedTuple):  # cheaper to define at import than a dataclass
    verdicts: tuple[LemmaVerdict, ...]  # one per requested level
    subsets_checked: int  # subsets walked once, shared by every level


# lemma -> (weight of |X|, weight of |boundary(X)|, whether the nonempty
# complement must keep min degree >= h too)
_FORMS = {LEMMA_32: (1, 0, False), LEMMA_35: (1, 1, False),
          LEMMA_37: (0, 1, True)}


def _scan(g: Graph, lemma: str, bounds: dict[int, int],
          graph_id: str) -> LemmaScan:
    """The verdicts on `lemma` at the levels of `bounds` ({h: bound}), in
    that order, from one walk over all nonempty subsets. A subset is tested
    for min degree >= h (and, for L3.7, for a nonempty complement that keeps
    it too) at the levels whose bound it meets, until the first it fails."""
    check_gate(g.order)
    a, b, both_sides = _FORMS[lemma]
    adj = g.adj
    full = g.vertex_mask
    top = max(bounds.values())
    # quantity -> the (level, bound) pairs whose bound it meets, ascending
    meets = [tuple((h, bounds[h]) for h in sorted(bounds) if bounds[h] >= q)
             for q in range(top + 1)]
    counterexample = dict.fromkeys(bounds)
    tight = dict.fromkeys(bounds, 0)
    for x, size, cut in boundary_walk(adj):
        quantity = a * size + b * cut
        if quantity > top:
            continue
        for h, bound in meets[quantity]:
            if not keeps_degree(adj, x, x, h):
                break
            if both_sides:
                y = full ^ x
                if not y or not keeps_degree(adj, y, y, h):
                    break
            if quantity == bound:
                tight[h] += 1
            elif counterexample[h] is None or x < counterexample[h]:
                counterexample[h] = x
    return LemmaScan(tuple(
        LemmaVerdict(lemma, graph_id, h, counterexample[h] is None,
                     counterexample[h], full, tight[h]) for h in bounds), full)


def _require_levels(levels: Sequence[int], top: int, what: str) -> None:
    if not levels:
        raise UsageError(f"no {what} level to check")
    for h in levels:
        if not 0 <= h <= top:
            raise UsageError(f"{what} level {h} outside 0..{top}")


def check_lemma_32(hl: HlGraph, levels: Sequence[int]) -> LemmaScan:
    """Every subset with min induced degree >= h has at least 2^h vertices."""
    _require_levels(levels, hl.n, "size bound")
    return _scan(hl.graph, LEMMA_32, {h: 1 << h for h in levels}, hl.label)


def check_lemma_35(hl: HlGraph, levels: Sequence[int]) -> LemmaScan:
    """|X| + |boundary(X)| >= 2^h(n+1-h) for subsets with min degree >= h."""
    _require_levels(levels, hl.n - 1, "size-plus-boundary bound")
    return _scan(hl.graph, LEMMA_35,
                 {h: (1 << h) * (hl.n + 1 - h) for h in levels}, hl.label)


def check_lemma_37(hl: HlGraph, levels: Sequence[int]) -> LemmaScan:
    """|boundary(X)| >= 2^h(n-h) when both X and its complement keep min
    degree >= h."""
    _require_levels(levels, hl.n - 1, "boundary bound")
    return _scan(hl.graph, LEMMA_37, {h: (1 << h) * (hl.n - h) for h in levels},
                 hl.label)


def check_theorem(hl: HlGraph, h: int,
                  budget: float | None = None) -> LemmaVerdict:
    """Exact solver value versus the closed form 2^h(n-h). subsets_checked
    is 2^(order-1) - 1, the anchored bipartitions that the complete search
    decides, not the nodes it visits, so the verdict does not depend on how
    the search prunes. tight_witnesses is not meaningful here (the solver
    reports one witness) and is fixed at 0."""
    _require_levels([h], hl.n - 1, "equality check")
    report = lambda_sh_exact(hl.graph, h, budget=budget)
    holds = report.value == (1 << h) * (hl.n - h)
    counterexample = None if holds else report.witness_side
    return LemmaVerdict(THEOREM, hl.label, h, holds, counterexample,
                        (1 << (hl.graph.order - 1)) - 1, 0)
