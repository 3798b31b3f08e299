"""Machine-checking the bound chain behind the main equality by exhaustive
enumeration of qualifying vertex subsets, plus the end-to-end equality check.

The three subset bounds, for a dimension-n member and a subset X with
minimum induced degree >= h:

  L3.2   |X| >= 2^h                          (h in 0..n)
  L3.5   |X| + |boundary(X)| >= 2^h(n+1-h)   (h in 0..n-1)
  L3.7   |boundary(X)| >= 2^h(n-h)           (h in 0..n-1, both sides >= h)

and T3.8 is the solver-vs-formula equality check. Each bound is checked by
its own Gray-code walk over all nonempty subsets. The walk updates |X| and
|boundary(X)| in O(1) per subset, and only the subsets at or below the bound
being checked are tested for minimum degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import HlGraph
from .cuts import EXHAUSTIVE, lambda_sh_exact
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


# lemma -> (weight of |X|, weight of |boundary(X)|, whether the nonempty
# complement must keep min degree >= h too)
_FORMS = {LEMMA_32: (1, 0, False), LEMMA_35: (1, 1, False),
          LEMMA_37: (0, 1, True)}


def _scan(g: Graph, lemma: str, bound: int, h: int, graph_id: str,
          override_gate: bool = False) -> LemmaVerdict:
    """The verdict on `lemma` from one walk over all nonempty subsets. Only
    a subset whose quantity is at or below `bound` can change the verdict,
    so only those are tested for min degree >= h (and, for L3.7, for a
    nonempty complement that keeps it too)."""
    check_gate(g.order, override_gate)
    a, b, both_sides = _FORMS[lemma]
    adj = g.adj
    full = g.vertex_mask
    holds, counterexample, tight = True, None, 0
    for x, size, cut in boundary_walk(adj):
        quantity = a * size + b * cut
        if quantity > bound or not keeps_degree(adj, x, x, h):
            continue
        if both_sides:
            y = full ^ x
            if not y or not keeps_degree(adj, y, y, h):
                continue
        if quantity == bound:
            tight += 1
        elif counterexample is None or x < counterexample:
            holds, counterexample = False, x
    return LemmaVerdict(lemma, graph_id, h, holds, counterexample, full, tight)


def _require_level(h: int, top: int, what: str) -> None:
    if not 0 <= h <= top:
        raise UsageError(f"{what} level {h} outside 0..{top}")


def check_lemma_32(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """Every subset with min induced degree >= h has at least 2^h vertices."""
    _require_level(h, hl.n, "size bound")
    return _scan(hl.graph, LEMMA_32, 1 << h, h, hl.label, override_gate)


def check_lemma_35(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """|X| + |boundary(X)| >= 2^h(n+1-h) for subsets with min degree >= h."""
    _require_level(h, hl.n - 1, "size-plus-boundary bound")
    return _scan(hl.graph, LEMMA_35, (1 << h) * (hl.n + 1 - h), h, hl.label,
                 override_gate)


def check_lemma_37(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """|boundary(X)| >= 2^h(n-h) when both X and its complement keep min
    degree >= h."""
    _require_level(h, hl.n - 1, "boundary bound")
    return _scan(hl.graph, LEMMA_37, (1 << h) * (hl.n - h), h, hl.label,
                 override_gate)


def check_theorem(hl: HlGraph, h: int, method: str = EXHAUSTIVE,
                  budget: float | None = None,
                  override_gate: bool = False) -> LemmaVerdict:
    """Exact solver value versus the closed form 2^h(n-h). subsets_checked
    is 2^(order-1) - 1, the anchored bipartitions that a complete search
    decides whatever its method, so the verdict is the same for every
    method. tight_witnesses is not meaningful here (the solver reports one
    witness) and is fixed at 0."""
    _require_level(h, hl.n - 1, "equality check")
    report = lambda_sh_exact(hl.graph, h, method=method, budget=budget,
                             override_gate=override_gate)
    holds = report.value == (1 << h) * (hl.n - h)
    counterexample = None if holds else report.witness_side
    return LemmaVerdict(THEOREM, hl.label, h, holds, counterexample,
                        (1 << (hl.graph.order - 1)) - 1, 0)
