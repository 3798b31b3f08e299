"""Machine-checking the bound chain behind the main equality from the
paper's induction on n, plus the end-to-end equality check.

The three subset bounds, for a dimension-n member and a subset X with
minimum induced degree >= h:

  L3.2   |X| >= 2^h                          (h in 0..n)
  L3.5   |X| + |boundary(X)| >= 2^h(n+1-h)   (h in 0..n-1)
  L3.7   |boundary(X)| >= 2^h(n-h)           (h in 0..n-1, both sides >= h)

and T3.8 is the solver-vs-formula equality check. Every check answers one
level h, like the solvers. A lemma holds for every member of dimension n
once the top entry of the induction table (`induction.table`) reaches its
bound: s for L3.2, lam (row 0) for L3.7 and g_1 (row 1) for L3.5. Where the
entry equals the bound, its tight sets are listed by a `Census` of the
member, which one job shares across its levels (see `induction`).
"""

from __future__ import annotations

from typing import NamedTuple

from .build import HlGraph, realize
from .cuts import lambda_sh_exact
from .errors import UsageError
from .induction import Census, table

LEMMA_32 = "L3.2"
LEMMA_35 = "L3.5"
LEMMA_37 = "L3.7"
THEOREM = "T3.8"


class LemmaVerdict(NamedTuple):
    lemma_id: str
    graph_id: str
    h: int
    holds: bool
    counterexample: int | None  # smallest mask of a violating subset
    subsets_checked: int
    tight_witnesses: int  # subsets meeting the bound with equality


def _verdict(hl: HlGraph, lemma: str, row: int, h: int, bound: int,
             census: Census | None) -> LemmaVerdict:
    """The level-h verdict on `lemma` from the table's `row` entry for the
    whole member: it holds once the entry reaches the bound, and its tight
    sets are counted by `census`, or by a census of its trace's labels
    built for this call when it is None, where the entry meets it. An entry
    below the bound proves nothing either way, and no member up to the
    construction cap has one, so it is an internal error, never a verdict."""
    entry = table(hl.n)[hl.n][row][h]
    if entry < bound:
        raise AssertionError(f"{lemma} at h={h}: the induction table gives "
                             f"{entry}, below the bound {bound}")
    tight = 0
    if entry == bound:
        tight = (census or Census(realize(hl.trace).adj)).count(row, h)
    return LemmaVerdict(lemma, hl.label, h, True, None,
                        hl.graph.vertex_mask, tight)


def _require_level(h: int, top: int, what: str) -> None:
    if not 0 <= h <= top:
        raise UsageError(f"{what} level {h} outside 0..{top}")


def check_lemma_32(hl: HlGraph, h: int,
                   census: Census | None = None) -> LemmaVerdict:
    """Every subset with min induced degree >= h has at least 2^h vertices."""
    _require_level(h, hl.n, "size bound")
    return _verdict(hl, LEMMA_32, -1, h, 1 << h, census)


def check_lemma_35(hl: HlGraph, h: int,
                   census: Census | None = None) -> LemmaVerdict:
    """|X| + |boundary(X)| >= 2^h(n+1-h) for subsets with min degree >= h."""
    _require_level(h, hl.n - 1, "size-plus-boundary bound")
    return _verdict(hl, LEMMA_35, 1, h, (1 << h) * (hl.n + 1 - h), census)


def check_lemma_37(hl: HlGraph, h: int,
                   census: Census | None = None) -> LemmaVerdict:
    """|boundary(X)| >= 2^h(n-h) when both X and its complement keep min
    degree >= h."""
    _require_level(h, hl.n - 1, "boundary bound")
    return _verdict(hl, LEMMA_37, 0, h, (1 << h) * (hl.n - h), census)


def check_theorem(hl: HlGraph, h: int,
                  census: Census | None = None) -> LemmaVerdict:
    """Exact solver value versus the closed form 2^h(n-h). subsets_checked
    is 2^(order-1) - 1, the anchored bipartitions that the complete search
    decides, not the nodes it visits, so the verdict does not depend on how
    the search prunes. tight_witnesses is not meaningful here (the solver
    reports one witness) and is fixed at 0. `census` is not read: it lets
    `verify` call every check alike."""
    _require_level(h, hl.n - 1, "equality check")
    report = lambda_sh_exact(hl.graph, h)
    holds = report.value == (1 << h) * (hl.n - h)
    counterexample = None if holds else report.witness_side
    return LemmaVerdict(THEOREM, hl.label, h, holds, counterexample,
                        (1 << (hl.graph.order - 1)) - 1, 0)
