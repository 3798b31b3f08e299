"""Machine-checking the bound chain behind the main equality from the
paper's induction on n, plus the end-to-end equality check.

The three subset bounds, for a dimension-n member and a subset X with
minimum induced degree >= h:

  L3.2   |X| >= 2^h                          (h in 0..n)
  L3.5   |X| + |boundary(X)| >= 2^h(n+1-h)   (h in 0..n-1)
  L3.7   |boundary(X)| >= 2^h(n-h)           (h in 0..n-1, both sides >= h)

and T3.8 is the solver-vs-formula equality check. Every check answers one
level h, like the solvers, and reads the induction table of `cuts._table`
in the labels of the member's trace, where every block T is the join of
its aligned halves L and R by a perfect matching M. The table is a chain
of lower bounds, one merge per depth, from single vertices up: the size
row s for L3.2, lam (row 0) for L3.7 and g_1 for L3.5, each reading g_k
one row further down. Its top entry at or above the bound proves the
level for every member of dimension n. Where the entry equals the bound,
every set meeting the bound meets each step of the chain with equality,
so the tight sets are built block by block, with no search. Let E_k(T, h)
be the nonempty X in T with minimum degree h attaining t_k(T, h) =
min k|X| + |boundary of X in T| (for k = 0 also with a nonempty
complement that keeps degree h; E_0 holds both sides of each cut), and
h' = max(h-1, 0).

- Case A, where 2 t_k(., h') is the entry: X meets both halves, and each
  half keeps degree h' in X, since a vertex loses only its partner. So X
  attains the entry only if X cap L is in E_k(L, h'), X cap R in
  E_k(R, h') and no matching edge leaves X: X = X_L + M(X_L), where the
  partner keeps every vertex at degree h.
- Case B, where t_{k+1}(., h) is the entry: X lies in one half and each of
  its vertices also loses its matching edge, so X is in E_{k+1}(L, h) or
  E_{k+1}(R, h). For k = 0 that is one side of the cut; the other side
  must keep degree h too, and both are listed.
- L3.2's size row s counts no edges. Its case B, where s(., h) is the
  entry, takes S(L, h) and S(R, h); its case A, where 2 s(., h-1) is,
  takes unions of X_L in S(L, h-1) and X_R in S(R, h-1) that keep degree
  h. Every set in S(T, h) is h-regular, by induction on the depth: so is
  a set of case B, whose vertices have their partners outside it, and in
  case A each vertex of X_L, (h-1)-regular, needs its partner in X_R to
  reach degree h. X_L and X_R have the same size, so again
  X = X_L + M(X_L), with M(X_L) in S(R, h-1).

At a single vertex v, E_k(v, 0) and S(v, 0) are {{v}} for k >= 1; every
other entry is infinite and its list empty. A set from either case attains
the entry, so an entry that is not attained gives an empty list, never a
wrong one.

The lists are built per depth, one loop over every block of that depth,
and the levels asked of one member object share them. In case A of E_0,
which holds both sides of each cut, only the X_L without the block's
lowest vertex are matched: M(L - X_L) = R - M(X_L), so each gives both
sides of its cut.
"""

from __future__ import annotations

from typing import NamedTuple

from .build import HlGraph
from .cuts import _INF, _table, lambda_sh_exact
from .errors import UsageError
from .graph import keeps_degree

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


def _reach(adj, x: int, within: int) -> int:
    """The neighbours in `within` of the vertices of x. Into the other half
    of a block those are their partners, so this is M(x) there."""
    out, t = 0, x
    while t:
        b = t & -t
        out |= adj[b.bit_length() - 1] & within
        t ^= b
    return out


# The member last asked, its adjacency in trace labels, and the census
# lists built for it so far, per (depth, row, level). The levels of one
# member share the lists below them; a member is held by identity, never
# by equality, and only the last one, so another member starts afresh.
_held: list = [None, None, {}]


def _census(adj, n: int, row: int, h: int) -> set[int]:
    """The sets of the whole dimension-n member `adj`, in its trace's
    labels, that attain the table's `row` entry at level h: E_row for
    row >= 0, S for row -1, the size row (see the module docstring). It
    reads and adds to the held lists when `adj` is the held adjacency."""
    memo = _held[2] if _held[1] is adj else {}
    return _tight(adj, _table(n), memo, n, row, h)[0]


def _tight(adj, table, memo, d: int, r: int, h: int) -> list[set[int]]:
    """The list of every depth-d block for row r at level h, block i
    holding the vertices from i 2^d, built from the lists of blocks 2i and
    2i + 1 one depth down and memoised in `memo` per depth, row and level.
    """
    key = d, r, h
    if key in memo:
        return memo[key]
    blocks = len(adj) >> d
    entry = table[d][r][h]
    if entry == _INF:
        out = memo[key] = [set() for _ in range(blocks)]
        return out
    if not d:
        out = memo[key] = [{1 << v} for v in range(blocks)]
        return out
    half = 1 << (d - 1)
    side = (1 << half) - 1
    lower = max(h - 1, 0)
    up = r + 1 if r >= 0 else r  # the size row merges with itself
    pairs = _tight(adj, table, memo, d - 1, r, lower) \
        if 2 * table[d - 1][r][lower] == entry else None  # case A
    parts = _tight(adj, table, memo, d - 1, up, h) \
        if table[d - 1][up][h] == entry else None  # case B
    out = memo[key] = []
    for i in range(blocks):
        sets = set()
        low = i << d
        left = side << low
        right = left << half
        if pairs is not None:
            xs, ys = pairs[2 * i], pairs[2 * i + 1]
            if r:
                for x in xs:
                    y = _reach(adj, x, right)
                    if y in ys:
                        sets.add(x | y)
            else:
                # each cut once, from its side without the lowest vertex
                for x in xs:
                    if not x >> low & 1:
                        y = _reach(adj, x, right)
                        if y in ys:
                            sets.add(x | y)
                            sets.add((left ^ x) | (right ^ y))
        if parts is not None:
            if r:
                sets.update(parts[2 * i], parts[2 * i + 1])
            else:
                block = left | right
                for x in (*parts[2 * i], *parts[2 * i + 1]):
                    # each vertex has d > h neighbours in the block, so
                    # only the neighbours of X can leave the rest below h
                    rest = block ^ x
                    if keeps_degree(adj, _reach(adj, x, rest), rest, h):
                        sets.update((x, rest))
        out.append(sets)
    return out


def _canonical_adj(hl: HlGraph) -> tuple[int, ...]:
    """hl's adjacency in the labels of its trace, where `relabel` maps
    each one to the graph's own: the graph's own adjacency where those
    labels are the trace's, as for every member built from a trace."""
    if hl.relabel == tuple(range(len(hl.relabel))):
        return hl.graph.adj
    back = [0] * len(hl.relabel)
    for c, p in enumerate(hl.relabel):
        back[p] = c
    out = []
    for p in hl.relabel:
        mask, t = 0, hl.graph.adj[p]
        while t:
            b = t & -t
            mask |= 1 << back[b.bit_length() - 1]
            t ^= b
        out.append(mask)
    return tuple(out)


def _verdict(hl: HlGraph, lemma: str, row: int, h: int,
             bound: int) -> LemmaVerdict:
    """The level-h verdict on `lemma` from the table's `row` entry for the
    whole member: it holds once the entry reaches the bound, and its tight
    sets are the census where the entry meets it. An entry below the bound
    proves nothing either way, and no member up to the construction cap
    has one, so it is an internal error, never a verdict."""
    entry = _table(hl.n)[hl.n][row][h]
    if entry < bound:
        raise AssertionError(f"{lemma} at h={h}: the induction table gives "
                             f"{entry}, below the bound {bound}")
    tight = 0
    if entry == bound:
        if _held[0] is not hl:
            _held[:] = hl, _canonical_adj(hl), {}
        tight = len(_census(_held[1], hl.n, row, h))
    return LemmaVerdict(lemma, hl.label, h, True, None,
                        hl.graph.vertex_mask, tight)


def _require_level(h: int, top: int, what: str) -> None:
    if not 0 <= h <= top:
        raise UsageError(f"{what} level {h} outside 0..{top}")


def check_lemma_32(hl: HlGraph, h: int) -> LemmaVerdict:
    """Every subset with min induced degree >= h has at least 2^h vertices."""
    _require_level(h, hl.n, "size bound")
    return _verdict(hl, LEMMA_32, -1, h, 1 << h)


def check_lemma_35(hl: HlGraph, h: int) -> LemmaVerdict:
    """|X| + |boundary(X)| >= 2^h(n+1-h) for subsets with min degree >= h."""
    _require_level(h, hl.n - 1, "size-plus-boundary bound")
    return _verdict(hl, LEMMA_35, 1, h, (1 << h) * (hl.n + 1 - h))


def check_lemma_37(hl: HlGraph, h: int) -> LemmaVerdict:
    """|boundary(X)| >= 2^h(n-h) when both X and its complement keep min
    degree >= h."""
    _require_level(h, hl.n - 1, "boundary bound")
    return _verdict(hl, LEMMA_37, 0, h, (1 << h) * (hl.n - h))


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
