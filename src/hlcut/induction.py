"""The paper's induction on n: the alignment test, the table of lower bounds
it gives, and the census of the sets that meet them.

In the labels of its trace, a member is the join of its aligned label
halves L and R by a perfect matching M (Vaidya, Rao & Shankar, IPPS 1993),
and so is every aligned block below it, down to single vertices, so a
depth-d block is d-regular (`dimension` tests this). Over these blocks a
table bounds from below, from the member's own subgraphs alone and never
from the paper's lemmas, which would make the check of its theorem
circular: lam(T, h), the minimum cut of block T at level h; g_k(T, h),
the minimum of k|X| + |boundary of X in T| over nonempty X in T with
minimum degree h; and s(T, h), the fewest vertices of minimum degree h.
Let h' = max(h-1, 0). A cut whose sides both meet both halves cuts L and R
into sides that keep minimum degree h', since each vertex loses only its
partner. Any other cut has a side X inside one half, and each vertex of X
also loses its matching edge, which g_1 of that half counts. So

    lam(T, h) >= min(lam(L, h') + lam(R, h'), g_1(L, h), g_1(R, h)),
    g_k(T, h) >= min(g_k(L, h') + g_k(R, h'), g_{k+1}(L, h), g_{k+1}(R, h)),

and s(T, h) >= min(2 s(., h'), s(., h)), with lam infinite, g_k(v, 0) = k,
s(v, 0) = 1 and every other entry infinite at a single vertex v. The
recurrence reads no matching and every vertex starts from the same rows, so
all blocks of one depth share one table, which depends on n alone
(`table`). Its top entries bound every member of dimension n: lam (row 0)
its cut, g_1 (row 1) the L3.5 sum and s (the size row) L3.2's size.

Where a top entry equals its bound, every set meeting the bound meets each
step of the chain with equality, so the tight sets are built block by
block, with no search (`Census`). Let t_k be the table's row k, lam for
k = 0 and g_k above, and E_k(T, h) the nonempty X in T with minimum degree
h attaining t_k(T, h) (for k = 0 also with a nonempty complement that
keeps degree h; E_0 holds both sides of each cut).

- Case A, where 2 t_k(., h') is the entry: X meets both halves, and each
  half keeps degree h' in X. So X attains the entry only if X cap L is in
  E_k(L, h'), X cap R in E_k(R, h') and no matching edge leaves X:
  X = X_L + M(X_L), where the partner keeps every vertex at degree h. For
  E_0, M(L - X_L) = R - M(X_L), so each cut is listed from its side
  without the block's lowest vertex, and mirrored.
- Case B, where t_{k+1}(., h) is the entry: X lies in one half and each of
  its vertices also loses its matching edge, so X is in E_{k+1}(L, h) or
  E_{k+1}(R, h). For k = 0 that is one side of the cut, and both it and
  T - X are listed: T - X keeps degree h by the lemma below, untested.
- The size row s counts no edges. Its case B, where s(., h) is the entry,
  takes S(L, h) and S(R, h); its case A, where 2 s(., h-1) is, takes
  unions of X_L in S(L, h-1) and X_R in S(R, h-1) that keep degree h.
  Every set in S(T, h) is h-regular, by induction on the depth: so is a
  set of case B, whose vertices have their partners outside it, and in
  case A each vertex of X_L, (h-1)-regular, needs its partner in X_R to
  reach degree h. X_L and X_R have the same size, so again
  X = X_L + M(X_L), with M(X_L) in S(R, h-1).

At a single vertex v, E_k(v, 0) and S(v, 0) are {{v}} for k >= 1; every
other entry is infinite and its list empty. A set from either case attains
the entry, so an entry that is not attained gives an empty list, never a
wrong one.

Lemma: for k >= 1, no vertex of T outside a listed X in E_k(T, h) has two
neighbours in X. By induction on the depth: a single vertex has no outside
vertex. In case B, X lies in one half; an outside vertex of that half has
at most one neighbour in X, and one of the other half has only its
partner across. In case A, a vertex v of L - X_L has at most one
neighbour in X_L, and its one neighbour in R, M(v), is not in M(X_L) as v
is not in X_L; R likewise. So where row 0's case B lists X from E_1 of a
half of a depth-d block, every vertex of T - X keeps at least d - 1 of
its d neighbours in T, and h <= d - 1 since X has minimum degree h in its
(d-1)-regular half.
"""

from __future__ import annotations

import functools

INF = 1 << 62  # above every table entry up to order graph.MAX_ORDER


@functools.cache
def table(n: int) -> list[list[list[int]]]:
    """The induction table of dimension n, per depth d = 0..n: rows
    k = 0..n+1-d of lam (k = 0) and g_k over levels 0..n, then the size
    row s."""
    rows = [[k or INF] + [INF] * n for k in range(n + 2)] + [[1] + [INF] * n]
    tables = [rows]
    for _ in range(n):
        rows = [[min(2 * p, u, INF) for p, u in zip(row[:1] + row[:-1], up)]
                for row, up in zip(rows[:-2] + rows[-1:], rows[1:])]
        tables.append(rows)
    return tables


def dimension(adj) -> int | None:
    """n when the graph has order 2^n and every vertex has exactly one
    neighbour in the other half of each aligned block, so that the table
    of dimension n bounds it; None otherwise. Every member is so in the
    labels of its trace, so its graph file needs no trace."""
    order = len(adj)
    if not order or order & (order - 1):
        return None
    half = 1
    while half < order:
        lo = (1 << half) - 1
        if any((a >> ((v ^ half) & -half) & lo).bit_count() != 1
               for v, a in enumerate(adj)):
            return None
        half <<= 1
    return order.bit_length() - 1


class Census:
    """The tight sets of one member, given its adjacency in aligned labels,
    such as those of its trace; n is read from the order. Its lists, per
    (depth, row, level), are built as levels ask for them and live as long
    as the census, which the job asking the levels owns."""

    def __init__(self, adj):
        self.adj = adj
        self.n = len(adj).bit_length() - 1
        self.lists: dict[tuple[int, int, int], list[set[int]]] = {}

    def count(self, row: int, h: int) -> int:
        """The number of sets of the whole member that attain the table's
        `row` entry at level h: E_row for row >= 0, S for row -1, the size
        row. A list (d, r, k) is read only at levels k and k + 1 of depth
        d + 1, so no higher level reads one with k <= h - (n - d): those go,
        the top lists with them, and a level asked again is rebuilt."""
        tight = len(self._tight(self.n, row, h)[0])
        for d, r, k in list(self.lists):
            if k <= h - (self.n - d):
                del self.lists[d, r, k]
        return tight

    def _reach(self, x: int, within: int) -> int:
        """The neighbours in `within` of the vertices of x. Into the other
        half of a block those are their partners, so this is M(x) there."""
        adj, out = self.adj, 0
        while x:
            b = x & -x
            out |= adj[b.bit_length() - 1] & within
            x ^= b
        return out

    def _tight(self, d: int, r: int, h: int) -> list[set[int]]:
        """The list of every depth-d block for row r at level h, block i
        holding the vertices from i 2^d, built from the lists of blocks 2i
        and 2i + 1 one depth down."""
        key = d, r, h
        if key in self.lists:
            return self.lists[key]
        blocks = len(self.adj) >> d
        rows = table(self.n)
        entry = rows[d][r][h]
        if entry == INF:
            out = self.lists[key] = [set() for _ in range(blocks)]
            return out
        if not d:
            out = self.lists[key] = [{1 << v} for v in range(blocks)]
            return out
        half = 1 << (d - 1)
        side = (1 << half) - 1
        lower = max(h - 1, 0)
        up = r + 1 if r >= 0 else r  # the size row merges with itself
        pairs = self._tight(d - 1, r, lower) \
            if 2 * rows[d - 1][r][lower] == entry else None  # case A
        parts = self._tight(d - 1, up, h) \
            if rows[d - 1][up][h] == entry else None  # case B
        out = []  # stored once whole, so an interrupt leaves no part of it
        for i in range(blocks):
            sets = set()
            low = i << d
            left = side << low
            right = left << half
            if pairs is not None:
                ys = pairs[2 * i + 1]
                for x in pairs[2 * i]:
                    if r or not x >> low & 1:  # row 0: each cut once
                        y = self._reach(x, right)
                        if y in ys:
                            sets.add(x | y)
                            if not r:
                                sets.add((left ^ x) | (right ^ y))
            if parts is not None:
                xs = parts[2 * i] | parts[2 * i + 1]
                sets |= xs
                if not r:  # the rest keeps degree h: both sides of each cut
                    sets.update((left | right) ^ x for x in xs)
            out.append(sets)
        self.lists[key] = out
        return out
