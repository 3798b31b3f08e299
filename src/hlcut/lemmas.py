"""Machine-checking the bound chain behind the main equality by a complete,
pruned search over vertex subsets, plus the end-to-end equality check.

The three subset bounds, for a dimension-n member and a subset X with
minimum induced degree >= h:

  L3.2   |X| >= 2^h                          (h in 0..n)
  L3.5   |X| + |boundary(X)| >= 2^h(n+1-h)   (h in 0..n-1)
  L3.7   |boundary(X)| >= 2^h(n-h)           (h in 0..n-1, both sides >= h)

and T3.8 is the solver-vs-formula equality check. Every check answers one
level h, like the solvers. A bound's level is decided by a depth-first
search that puts the vertices, in ascending order, into X or into its
complement Y. A partial assignment is dropped once its quantity, which only
grows, exceeds the level's bound, or once a vertex of X (for L3.7 also of
Y) has fewer than h neighbours left on its own side or free. Every nonempty
subset is thus decided, most of them by pruning, and only those at or below
the bound are reached as leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import HlGraph
from .cuts import lambda_sh_exact
from .errors import UsageError
from .graph import Graph, check_gate, keeps_degree

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


def _scan(g: Graph, lemma: str, h: int, bound: int,
          graph_id: str) -> LemmaVerdict:
    """The verdict on `lemma` at level h with the given bound. The search
    reaches as leaves exactly the subsets X with min degree >= h (and, for
    L3.7, a nonempty complement that keeps it too) whose quantity meets the
    bound; it counts the tight ones and keeps the smallest violating mask.
    L3.7 is symmetric in X and its complement, so there vertex 0 is pinned
    to Y: each bipartition is reached once, counts twice, and offers the
    smaller of its two sides as a counterexample. Recursion depth is
    order <= SOLVER_GATE."""
    check_gate(g.order)
    a, b, both_sides = _FORMS[lemma]
    adj = g.adj
    full = g.vertex_mask
    order = g.order
    counterexample, tight = None, 0

    def decide(v: int, x: int, y: int, size: int, cut: int) -> None:
        """Every completion of X = x, Y = y over the vertices v.. whose
        quantity a*size + b*cut, already at or below the bound, stays there.
        Every vertex of x keeps h neighbours outside y, and under L3.7 every
        vertex of y keeps h outside x; a new vertex can only break that for
        itself and its neighbours on the other side."""
        nonlocal counterexample, tight
        if v == order:
            if x and (y or not both_sides):
                if a * size + b * cut == bound:
                    tight += 1
                else:
                    if both_sides:
                        x = min(x, full ^ x)
                    if counterexample is None or x < counterexample:
                        counterexample = x
            return
        bit = 1 << v
        nbrs = adj[v]
        across = nbrs & y
        into_x = cut + across.bit_count()
        if (v or not both_sides) and a * (size + 1) + b * into_x <= bound \
                and keeps_degree(adj, bit, full ^ y, h) \
                and (not both_sides
                     or keeps_degree(adj, across, full ^ x ^ bit, h)):
            decide(v + 1, x | bit, y, size + 1, into_x)
        across = nbrs & x
        into_y = cut + across.bit_count()
        if a * size + b * into_y <= bound \
                and keeps_degree(adj, across, full ^ y ^ bit, h) \
                and (not both_sides or keeps_degree(adj, bit, full ^ x, h)):
            decide(v + 1, x, y | bit, size, into_y)

    decide(0, 0, 0, 0, 0)
    return LemmaVerdict(lemma, graph_id, h, counterexample is None,
                        counterexample, full,
                        tight * 2 if both_sides else tight)


def _require_level(h: int, top: int, what: str) -> None:
    if not 0 <= h <= top:
        raise UsageError(f"{what} level {h} outside 0..{top}")


def check_lemma_32(hl: HlGraph, h: int) -> LemmaVerdict:
    """Every subset with min induced degree >= h has at least 2^h vertices."""
    _require_level(h, hl.n, "size bound")
    return _scan(hl.graph, LEMMA_32, h, 1 << h, hl.label)


def check_lemma_35(hl: HlGraph, h: int) -> LemmaVerdict:
    """|X| + |boundary(X)| >= 2^h(n+1-h) for subsets with min degree >= h."""
    _require_level(h, hl.n - 1, "size-plus-boundary bound")
    return _scan(hl.graph, LEMMA_35, h, (1 << h) * (hl.n + 1 - h), hl.label)


def check_lemma_37(hl: HlGraph, h: int) -> LemmaVerdict:
    """|boundary(X)| >= 2^h(n-h) when both X and its complement keep min
    degree >= h."""
    _require_level(h, hl.n - 1, "boundary bound")
    return _scan(hl.graph, LEMMA_37, h, (1 << h) * (hl.n - h), hl.label)


def check_theorem(hl: HlGraph, h: int) -> LemmaVerdict:
    """Exact solver value versus the closed form 2^h(n-h). subsets_checked
    is 2^(order-1) - 1, the anchored bipartitions that the complete search
    decides, not the nodes it visits, so the verdict does not depend on how
    the search prunes. tight_witnesses is not meaningful here (the solver
    reports one witness) and is fixed at 0."""
    _require_level(h, hl.n - 1, "equality check")
    report = lambda_sh_exact(hl.graph, h)
    holds = report.value == (1 << h) * (hl.n - h)
    counterexample = None if holds else report.witness_side
    return LemmaVerdict(THEOREM, hl.label, h, holds, counterexample,
                        (1 << (hl.graph.order - 1)) - 1, 0)
