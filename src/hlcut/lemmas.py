"""Machine-checking the bound chain behind the main equality by exhaustive
enumeration of qualifying vertex subsets, plus the end-to-end equality check.

The three subset bounds, for a dimension-n member and a subset X with
minimum induced degree >= h:

  L3.2   |X| >= 2^h                          (h in 0..n)
  L3.5   |X| + |boundary(X)| >= 2^h(n+1-h)   (h in 0..n-1)
  L3.7   |boundary(X)| >= 2^h(n-h)           (h in 0..n-1, both sides >= h)

and T3.8 is the solver-vs-formula equality check. One scan of all nonempty
subsets serves every bound at a given (graph, h); the dominant cost is the
2^order enumeration, not the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .build import HlGraph
from .cuts import EXHAUSTIVE, CutReport, lambda_sh_exact
from .errors import UsageError
from .graph import Graph, check_gate, keeps_degree, min_degree_at_least

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
    counterexample: int | None  # vertex mask of the first violating subset
    subsets_checked: int
    tight_witnesses: int  # subsets meeting the bound with equality


def enumerate_min_degree_subsets(g: Graph, h: int,
                                 override_gate: bool = False) -> Iterator[int]:
    """All nonempty vertex masks X with min degree >= h inside X, ascending."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    check_gate(g.order, override_gate)
    adj = g.adj
    for x in range(1, 1 << g.order):
        if min_degree_at_least(adj, x, h):
            yield x


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
            if self.counterexample is None:
                self.counterexample = mask
        elif quantity == self.bound:
            self.tight += 1


def _scan_bounds(g: Graph, n: int, h: int, graph_id: str,
                 want35: bool, want37: bool,
                 override_gate: bool = False) -> dict[str, LemmaVerdict]:
    """One pass over all nonempty subsets; returns verdicts for L3.2 and
    (when requested) L3.5 / L3.7."""
    check_gate(g.order, override_gate)
    adj = g.adj
    order = g.order
    deg = tuple(a.bit_count() for a in adj)
    full = (1 << order) - 1
    all_deg_ok = order > 0 and min(deg) >= h

    t32 = _Tally(1 << h)
    t35 = _Tally((1 << h) * (n + 1 - h)) if want35 else None
    t37 = _Tally((1 << h) * (n - h)) if want37 else None
    subsets = (1 << order) - 1

    for x in range(1, 1 << order):
        # min degree inside X, with boundary size and neighborhood on the side
        cut = 0
        nbhd = 0
        ok = True
        size = 0
        t = x
        while t:
            b = t & -t
            v = b.bit_length() - 1
            dx = (adj[v] & x).bit_count()
            if dx < h:
                ok = False
                break
            size += 1
            cut += deg[v] - dx
            nbhd |= adj[v]
            t ^= b
        if not ok:
            continue
        t32.feed(size, x)
        if t35 is not None:
            t35.feed(size + cut, x)
        if t37 is not None:
            y = full ^ x
            # a vertex of degree < h fits on neither side; otherwise only the
            # complement vertices adjacent to X can have dropped below h
            if y and all_deg_ok and keeps_degree(adj, nbhd & y, y, h):
                t37.feed(cut, x)

    out = {LEMMA_32: LemmaVerdict(LEMMA_32, graph_id, h, t32.holds,
                                  t32.counterexample, subsets, t32.tight)}
    if t35 is not None:
        out[LEMMA_35] = LemmaVerdict(LEMMA_35, graph_id, h, t35.holds,
                                     t35.counterexample, subsets, t35.tight)
    if t37 is not None:
        out[LEMMA_37] = LemmaVerdict(LEMMA_37, graph_id, h, t37.holds,
                                     t37.counterexample, subsets, t37.tight)
    return out


def _require_level(h: int, top: int, what: str) -> None:
    if not 0 <= h <= top:
        raise UsageError(f"{what} level {h} outside 0..{top}")


def check_lemma_32(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """Every subset with min induced degree >= h has at least 2^h vertices."""
    _require_level(h, hl.n, "size bound")
    return _scan_bounds(hl.graph, hl.n, h, hl.label, False, False,
                        override_gate)[LEMMA_32]


def check_lemma_35(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """|X| + |boundary(X)| >= 2^h(n+1-h) for subsets with min degree >= h."""
    _require_level(h, hl.n - 1, "size-plus-boundary bound")
    return _scan_bounds(hl.graph, hl.n, h, hl.label, True, False,
                        override_gate)[LEMMA_35]


def check_lemma_37(hl: HlGraph, h: int, override_gate: bool = False) -> LemmaVerdict:
    """|boundary(X)| >= 2^h(n-h) when both X and its complement keep min
    degree >= h."""
    _require_level(h, hl.n - 1, "boundary bound")
    return _scan_bounds(hl.graph, hl.n, h, hl.label, False, True,
                        override_gate)[LEMMA_37]


def check_bound_lemmas(hl: HlGraph, h: int,
                       override_gate: bool = False) -> dict[str, LemmaVerdict]:
    """All applicable subset bounds at (graph, h) in a single shared scan:
    L3.2 for h <= n, plus L3.5 and L3.7 for h <= n-1."""
    _require_level(h, hl.n, "bound")
    within = h <= hl.n - 1
    return _scan_bounds(hl.graph, hl.n, h, hl.label, within, within,
                        override_gate)


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
