"""Vertex analogue of the cut metric: does removing some vertex set
disconnect the graph while every survivor keeps degree >= h, and if so, how
few vertices suffice?

Existence is genuinely open in general, so the search is complete. It runs
over the smallest component C of G - S rather than over S. Take a valid cut
S and its smallest component C: N(C) lies in S, |C| <= (order - |S|)/2, and
the other survivors lie in the h-core of G - C - N(C). So
S(C) = V - C - hcore(G - C - N(C)) is a valid cut inside S, and a minimum S
equals S(C) for its own smallest component. The search grows every
connected C that keeps degree h and that these bounds allow, each from its
lowest vertex, and keeps the smallest S(C), ties broken by the smaller mask.
That is the first hit of the plain size-major scan (ascending size,
ascending mask within a size), and `subsets_checked` is its rank there:
sum_{j<k} C(order, j) + sum_i C(v_i, i) + 1 over the witness's vertices
v_1 < ... < v_k, or sum_{j<=order-2} C(order, j), every removable set, when
no cut exists.

Once a cut is known, a branch is dropped when every cut below it is worse,
by a counting bound. Let A be the part of C grown so far and m = |N[A]|,
A with its neighbours. Each vertex of N[A] ends in C or in N(C), so
|C| + |N(C)| >= m, and C is admissible only if 2|C| + |N(C)| <= order.
Together |N(C)| >= 2m - order, and N(C) lies in the cut.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import UsageError
from .graph import Graph, connected_within, keeps_degree

# The search decides all 2^order - order - 1 removable sets, and its pruning
# makes order 32 quick, not order 64.
SOLVER_GATE = 32


class KappaReport(NamedTuple):
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
    g.check_vertex_set(s)
    rest = g.vertex_mask ^ s
    if rest.bit_count() < 2:
        raise UsageError("removal must leave at least two vertices")
    adj = g.adj
    if not keeps_degree(adj, rest, rest, h):
        return False
    return not connected_within(adj, rest)


def _core(adj: tuple[int, ...] | list[int], mask: int, h: int) -> int:
    """The h-core of the subgraph induced by mask: what is left once every
    vertex with fewer than h neighbours left is peeled, repeatedly."""
    while True:
        drop = 0
        t = mask
        while t:
            b = t & -t
            if (adj[b.bit_length() - 1] & mask).bit_count() < h:
                drop |= b
            t ^= b
        if not drop:
            return mask
        mask ^= drop


def _rank(order: int, witness: int) -> int:
    """1-based position of witness in the size-major, ascending-mask order
    of all vertex sets."""
    k = witness.bit_count()
    before = sum(comb(order, j) for j in range(k))
    i = 0
    while witness:
        b = witness & -witness
        i += 1
        before += comb(b.bit_length() - 1, i)
        witness ^= b
    return before + 1


def kappa_sh_exact(g: Graph, h: int) -> KappaReport:
    """Complete search for the smallest disconnecting vertex set that leaves
    min degree >= h; existence is decided, never guessed."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    order = g.order
    if order > SOLVER_GATE:
        raise UsageError(f"order {order} exceeds kappa's cap of {SOLVER_GATE} "
                         "vertices: a search past it can run for minutes")
    adj = g.adj
    full = g.vertex_mask
    best, best_size = None, order

    def grow(a: int, out: int, reach: int, check: int) -> None:
        """Every connected C that contains a and avoids out, which holds the
        vertices below a's lowest and those decided to be on the boundary;
        reach is a's neighbourhood. First a and reach are closed under forced
        moves, starting from the vertices of check: a vertex of a with fewer
        than h neighbours outside out fails the branch, and one with exactly
        h pulls the undecided ones into a. The branch also stops once
        2|a| > order - |boundary|, and, with a best cut known, once every
        cut below is worse: each contains boundary and has at least
        max(|boundary|, 2|a | reach| - order) vertices, since reach lies in
        C | N(C) and 2|C| + |N(C)| <= order. Then the search branches on the
        lowest undecided neighbour of a, boundary first, so recursion depth
        is at most the order."""
        nonlocal best, best_size
        free = full & ~(a | out)
        while check:
            b = check & -check
            check ^= b
            nbrs = adj[b.bit_length() - 1]
            left = (nbrs & (a | free)).bit_count()
            if left < h:
                return
            if left == h:
                pull = nbrs & free
                while pull:
                    p = pull & -pull
                    pull ^= p
                    a |= p
                    free ^= p
                    reach |= adj[p.bit_length() - 1]
                    check |= p
        boundary = reach & out
        cut_so_far = boundary.bit_count()
        if 2 * a.bit_count() > order - cut_so_far:
            return
        if best is not None:
            # every cut below contains boundary and has at least low
            # vertices; at the best size its mask is at least boundary's
            low = max(cut_so_far, 2 * (a | reach).bit_count() - order)
            if low > best_size or low == best_size and boundary >= best:
                return
        frontier = reach & free
        if not frontier:
            core = _core(adj, full & ~(a | reach), h)
            cut = full ^ a ^ core
            size = cut.bit_count()
            if core and (size < best_size or size == best_size and cut < best):
                best, best_size = cut, size
            return
        v = frontier & -frontier
        u = v.bit_length() - 1
        # v on the boundary: its neighbours in a lose one neighbour
        grow(a, out | v, reach, adj[u] & a)
        grow(a | v, out, reach | adj[u], v)

    for r in range(order):
        bit = 1 << r
        grow(bit, bit - 1, adj[r], bit)
    if best is None:
        # every removable set: all but the order + 1 that leave < 2 vertices
        return KappaReport(h, False, None, None, (1 << order) - order - 1)
    return KappaReport(h, True, best_size, best, _rank(order, best))
