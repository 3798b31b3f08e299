"""Machine-checking the bound chain behind the main equality by exhaustive
enumeration of qualifying vertex subsets, plus the end-to-end equality check.

The three subset bounds, for a dimension-n member and a subset X with
minimum induced degree >= h:

  L3.2   |X| >= 2^h                          (h in 0..n)
  L3.5   |X| + |boundary(X)| >= 2^h(n+1-h)   (h in 0..n-1)
  L3.7   |boundary(X)| >= 2^h(n-h)           (h in 0..n-1, both sides >= h)

and T3.8 is the solver-vs-formula equality check. One Gray-code walk over
all nonempty subsets serves every bound at a given (graph, h). It updates
|X| and |boundary(X)| in O(1) per subset, and only the subsets at or below
a bound are tested for minimum degree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .build import HlGraph
from .cuts import EXHAUSTIVE, CutReport, lambda_sh_exact
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


class _Tally:
    __slots__ = ("bound", "holds", "counterexample", "tight")

    def __init__(self, bound: int):
        self.bound = bound
        self.holds = True
        self.counterexample = None
        self.tight = 0

    def feed(self, quantity: int, mask: int) -> None:
        if quantity < self.bound:
            self.holds = False
            if self.counterexample is None or mask < self.counterexample:
                self.counterexample = mask
        elif quantity == self.bound:
            self.tight += 1


def _scan_bounds(g: Graph, n: int, h: int, graph_id: str,
                 override_gate: bool = False) -> dict[str, LemmaVerdict]:
    """Verdicts for L3.2, L3.5 and L3.7 from one walk over all nonempty
    subsets. Only a subset at or below some bound can change a verdict, so
    only those are tested for min degree >= h (and, for L3.7, for a
    nonempty complement that keeps it too)."""
    check_gate(g.order, override_gate)
    adj = g.adj
    full = g.vertex_mask
    b32, b35, b37 = 1 << h, (1 << h) * (n + 1 - h), (1 << h) * (n - h)
    t32, t35, t37 = _Tally(b32), _Tally(b35), _Tally(b37)
    for x, size, cut in boundary_walk(adj):
        if (size <= b32 or size + cut <= b35 or cut <= b37) \
                and keeps_degree(adj, x, x, h):
            t32.feed(size, x)
            t35.feed(size + cut, x)
            y = full ^ x
            if y and keeps_degree(adj, y, y, h):
                t37.feed(cut, x)
    return {lemma: LemmaVerdict(lemma, graph_id, h, t.holds, t.counterexample,
                                full, t.tight)
            for lemma, t in ((LEMMA_32, t32), (LEMMA_35, t35), (LEMMA_37, t37))}


def _require_level(h: int, top: int, what: str) -> None:
    if not 0 <= h <= top:
        raise UsageError(f"{what} level {h} outside 0..{top}")


def check_lemma_32(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """Every subset with min induced degree >= h has at least 2^h vertices."""
    _require_level(h, hl.n, "size bound")
    return _scan_bounds(hl.graph, hl.n, h, hl.label, override_gate)[LEMMA_32]


def check_lemma_35(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """|X| + |boundary(X)| >= 2^h(n+1-h) for subsets with min degree >= h."""
    _require_level(h, hl.n - 1, "size-plus-boundary bound")
    return _scan_bounds(hl.graph, hl.n, h, hl.label, override_gate)[LEMMA_35]


def check_lemma_37(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """|boundary(X)| >= 2^h(n-h) when both X and its complement keep min
    degree >= h."""
    _require_level(h, hl.n - 1, "boundary bound")
    return _scan_bounds(hl.graph, hl.n, h, hl.label, override_gate)[LEMMA_37]


def check_bound_lemmas(hl: HlGraph, h: int,
                       override_gate: bool = False) -> dict[str, LemmaVerdict]:
    """All applicable subset bounds at (graph, h) in a single shared scan:
    L3.2 for h <= n, plus L3.5 and L3.7 for h <= n-1."""
    _require_level(h, hl.n, "bound")
    verdicts = _scan_bounds(hl.graph, hl.n, h, hl.label, override_gate)
    if h == hl.n:
        return {LEMMA_32: verdicts[LEMMA_32]}
    return verdicts


def check_theorem(hl: HlGraph, h: int, method: str = EXHAUSTIVE,
                  budget: float | None = None,
                  override_gate: bool = False) -> LemmaVerdict:
    """Exact solver value versus the closed form 2^h(n-h). tight_witnesses is
    not meaningful here (the solver reports one witness) and is fixed at 0."""
    _require_level(h, hl.n - 1, "equality check")
    report = lambda_sh_exact(hl.graph, h, method=method, budget=budget,
                             override_gate=override_gate)
    formula = (1 << h) * (hl.n - h)
    if isinstance(report, CutReport):
        holds = report.value == formula
        counterexample = None if holds else report.witness_side
        examined = report.subsets_examined
    else:
        holds = False
        counterexample = None
        examined = report.subsets_examined
    return LemmaVerdict(THEOREM, hl.label, h, holds, counterexample,
                        examined, 0)
