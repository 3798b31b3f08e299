"""Vertex analogue of the cut metric: does removing some vertex set
disconnect the graph while every survivor keeps degree >= h, and if so, how
few vertices suffice?

Existence is genuinely open in general, so the search is complete, pruned
and size-major: subsets are decided by ascending size, ascending bitmask
within a size (so the first hit is automatically a minimum-size,
lexicographically smallest witness), and nonexistence is reported only after
every size class up to order-2 has been exhausted. A subtree is skipped only
when every subset in it fails the degree test, so it is counted, not tried,
and `subsets_checked` stays the rank of the first hit in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import UsageError
from .graph import Graph, check_gate, connected_within, keeps_degree


@dataclass(frozen=True)
class KappaReport:
    h: int
    exists: bool
    value: int | None       # witness size when exists
    witness: int | None     # vertex mask when exists
    subsets_checked: int


def is_h_vertex_cut(g: Graph, s: int, h: int) -> bool:
    """True iff deleting the vertex set s disconnects g and every remaining
    vertex keeps degree >= h. Requires at least two survivors."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    if s < 0 or s & ~g.vertex_mask:
        raise UsageError("vertex set outside the graph's vertex range")
    rest = g.vertex_mask ^ s
    if rest.bit_count() < 2:
        raise UsageError("removal must leave at least two vertices")
    adj = g.adj
    if not keeps_degree(adj, rest, rest, h):
        return False
    return not connected_within(adj, rest)


def kappa_sh_exact(g: Graph, h: int) -> KappaReport:
    """Complete size-major search for the smallest disconnecting vertex set
    that leaves min degree >= h; existence is decided, never guessed."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    check_gate(g.order)
    adj = g.adj
    full = g.vertex_mask
    checked = 0

    def first_cut(s: int, top: int, r: int) -> int | None:
        """The first cut, in ascending mask order, among s plus r vertices
        below top (s's lowest vertex, or the order when s is empty). Picking
        the highest vertex t first settles every survivor at or above t: a
        survivor's count only drops as the set grows, so a settled one below
        h fails the whole subtree. Recursion depth is r < SOLVER_GATE."""
        nonlocal checked
        low = (1 << top) - 1
        for t in range(r - 1, top):
            x = s | 1 << t
            rest = full ^ x
            # survivors to test: those in (t, top), settled by t; every one
            # below top at a leaf; t's neighbours at or above top, which t
            # cost a neighbour
            settled = rest & (low if r == 1 else low & -(2 << t))
            if not keeps_degree(adj, settled | adj[t] & rest & ~low, rest, h):
                checked += comb(t, r - 1)
            elif r > 1:
                hit = first_cut(x, t, r - 1)
                if hit is not None:
                    return hit
            else:
                checked += 1
                if not connected_within(adj, rest):
                    return x
        return None

    if g.order >= 2:
        checked = 1
        if keeps_degree(adj, full, full, h) and not connected_within(adj, full):
            return KappaReport(h, True, 0, 0, checked)
    for size in range(1, g.order - 1):
        hit = first_cut(0, g.order, size)
        if hit is not None:
            return KappaReport(h, True, size, hit, checked)
    return KappaReport(h, False, None, None, checked)
