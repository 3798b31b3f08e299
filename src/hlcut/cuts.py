"""Edge-fault tolerance proper: the degree-preserving cut predicate, the
canonical block cut, and exact minimum-cut search.

A minimum cut with both sides keeping minimum degree >= h is always the edge
boundary of a single side X (dropping any further edges from a cut leaves a
smaller cut with the same component), so the search space is bipartitions:
nonempty X not containing the anchor vertex 0, with min degree >= h inside X
and inside its complement. Tie-break among minimum cuts: the lexicographically
smallest witness-side bitmask.

The search is branch-and-bound, bounded by a budget rather than by an
order gate. It assigns vertices to X or to the anchor's side Y and prunes a
partial assignment by two lower bounds on every completion's cut: the edges
already cut, and the value of an X->Y max-flow (any completion's cut
separates the assigned X from the assigned Y, so it is at least that value).
The flow is kept incrementally, as one residual mask per vertex: a node
starts from its parent's flow, which stays feasible with the same value
because every newly assigned vertex was free, with inflow equal to outflow.
A child searches for augmenting paths again from X when a new Y vertex lies
in the parent's residual reach, from the new X vertices outside that reach
when there are some, and not at all otherwise; after a push the next search
starts where the child's first one did.

Degree propagation forces moves: an assigned vertex with exactly h
neighbours that are free or on its own side pulls its free neighbours to its
side, to a fixpoint, and a vertex left with fewer than h fails the branch. A
forced move drops only completions in which some vertex ends below degree
h, so the search still meets the feasible cuts in the same order, and the
result and its witness are exact. The same checks settle the degree
condition: a vertex is checked when assigned and again whenever a neighbour
joins the other side, so a leaf needs only a nonempty X.

The value phase follows the paper's induction on n wherever the graph is
the join of its two aligned label halves L and R by a perfect matching, as
every family member above order 32 is in the labels `realize` gives it. A
cut whose sides both meet both halves (case A) cuts L and R into sides that
keep minimum degree h-1 (0 at h=0), since each vertex loses only its
matching partner; so it is at least the sum of the two halves' values at
that level, computed the same way. Every other cut keeps a whole half on
one side (case B), and two searches, each with one half pinned to Y, find
case B's minimum below that bound. Where case B has a cut within the bound,
its minimum is the value; where it has none, the whole graph is searched
below case B's best, or below every edge when case B found nothing, since
a case-B search capped at the bound says nothing about cuts above it. The
witness phase always searches the whole graph, so the witness side is the
same lexicographically smallest one either way.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .build import HlGraph, block_vertices
from .errors import IncompleteSearchError, UsageError
from .graph import (Edge, Graph, canonical_edge, connected_within,
                    keeps_degree)

_TIME_CHECK_INTERVAL = 4096
# Graphs up to this order are searched whole; larger joins are split (see
# `_value`)
_BASE_ORDER = 32


@dataclass(frozen=True)
class CutReport:
    """A minimum cut and its witness; value, witness_cut and witness_side
    are None when a complete search proves that no qualifying cut exists."""
    h: int
    value: int | None
    witness_cut: tuple[Edge, ...] | None
    witness_side: int | None
    subsets_examined: int


def is_h_edge_cut(g: Graph, f, h: int) -> bool:
    """True iff removing the edge set f disconnects g while every vertex
    keeps degree >= h. Every pair in f must be an edge of g, in either
    orientation, or a UsageError is raised; an edge listed twice is
    removed once."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    adj = list(g.adj)
    for u, v in f:
        u, v = canonical_edge(u, v)
        # membership is read from g.adj, not the copy, so a repeat still
        # counts; u < 0 is tested first, since adj[-1] would wrap
        if u < 0 or v >= g.order or not g.adj[u] >> v & 1:
            raise UsageError(f"({u},{v}) is not an edge of the graph")
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
    full = g.vertex_mask
    return keeps_degree(adj, full, full, h) \
        and not connected_within(adj, full)


def canonical_cut(hl: HlGraph, h: int) -> tuple[Edge, ...]:
    """The edge boundary of the embedded dimension-h block: 2^h * (n - h)
    edges, and a valid h-cut for every member of the family."""
    if not 0 <= h <= hl.n - 1:
        raise UsageError(f"canonical cut level {h} outside 0..{hl.n - 1}")
    return hl.graph.edge_boundary(block_vertices(hl, h))


# -- branch and bound ---------------------------------------------------------

def _augment(adj, res, y, value, limit, frontier, seen):
    """Raise the unit flow behind the residual masks `res` towards Y until
    its value reaches `limit` or no augmenting path is left. Returns the new
    value and, when it is below `limit`, the vertices the residual graph
    reaches from X. Each search starts from `frontier` with `seen` already
    visited: both X for a search from scratch, or the vertices new to X
    outside the reach R of the rest of X under a maximum flow, and R plus
    every new X vertex; `seen` holds X either way. No residual arc leaves R,
    and a pushed path never enters R, so every search of the call starts
    from that same entry.

    Bit w of res[u] is the residual arc u->w: w is adjacent to u and u
    sends no unit to w. No edge carries flow both ways, so a flow with
    res = adj carries nothing. Each search is a layered BFS that stops at
    the first layer meeting Y. It then pushes one unit along one shortest
    path, walking back from the highest sink one layer at a time over
    residual arcs: a push on u->w cancels w's unit to u where there is one
    and else clears bit w of res[u]. Every BFS vertex is reached from the
    layer before it, so the walk never dead-ends. The callers read only the
    value and the reach, which are the same for every maximum flow (Ford &
    Fulkerson 1962), so the choice of path changes no answer."""
    entry = frontier, seen
    while value < limit:
        layers = []
        while not frontier & y:
            if not frontier:
                return value, seen
            layers.append(frontier)
            step = 0
            while frontier:
                u = frontier.bit_length() - 1
                frontier ^= 1 << u
                step |= res[u]
            frontier = step & ~seen
            seen |= frontier
        w = (frontier & y).bit_length() - 1
        for layer in reversed(layers):
            t = layer & adj[w]
            u = t.bit_length() - 1
            while not res[u] >> w & 1:
                t ^= 1 << u
                u = t.bit_length() - 1
            if res[w] >> u & 1:
                res[u] ^= 1 << w
            else:
                res[w] |= 1 << u
            w = u
        value += 1
        frontier, seen = entry
    return value, None


def _force(adj, x, y, cut, limit, h, check):
    """Close the partial assignment (x, y) under forced moves. Every
    assigned vertex must keep at least h neighbours that are free or on its
    own side; one with exactly h pulls its free neighbours to its side, and
    each pulled vertex adds its edges to the other side to `cut`. `check`
    holds the vertices whose count may have changed: the ones newly
    assigned and their neighbours on the other side. Returns the closed
    (x, y, cut), or None when a vertex falls below h or the cut reaches
    `limit`."""
    if cut >= limit:
        return None
    while check:
        u = check.bit_length() - 1
        check ^= 1 << u
        in_x = x >> u & 1
        own, other = (x, y) if in_x else (y, x)
        room = adj[u] & ~other
        k = room.bit_count()
        if k < h:
            return None
        if k == h:
            pull = room & ~own
            own |= pull
            check |= pull
            while pull:
                c = pull.bit_length() - 1
                pull ^= 1 << c
                across = adj[c] & other
                cut += across.bit_count()
                check |= across
            if cut >= limit:
                return None
            x, y = (own, other) if in_x else (other, own)
    return x, y, cut


def _branch_and_bound(adj, vorder, h, limit, floor, deadline, root, done):
    """Cheapest side X with cut < `limit`, deciding the vertices of `vorder`
    in that order; the vertices of `root` (the anchor 0 alone, except in
    case B) are pre-assigned to the complement Y. Returns (best_value,
    best_side, examined), (None, None, examined) when no such side exists.

    Each vertex tries Y first, so among cuts of equal value the first found
    leaves the earlier vertices of `vorder` out of X. Bounds, against the
    incumbent: the edges already cut by the partial assignment, and the
    value of an X->Y flow. Every completion cuts an edge set separating the
    assigned X from the assigned Y, so by max-flow/min-cut it cuts at least
    as many edges as any X->Y flow carries; a node whose flow reaches
    `limit` has no completion below it.

    Each child is closed under `_force`, seeded with the branched vertex and
    its neighbours on the other side, and vertices of `vorder` already
    assigned are skipped. A forced move drops only completions in which some
    vertex ends below degree h, and skipping a vertex only fixes its side,
    so the search meets the feasible leaves in the same order as without
    forcing: the value and the witness side are exact. A leaf needs only a
    nonempty X: the caller has checked the degree of every vertex of
    `root`, `_force` checks every other vertex as it is assigned, and
    re-checks each one that loses a neighbour to the other side, so every
    side keeps degree h at a leaf.

    Each node carries a unit flow as residual masks (see `_augment`) and
    its value, and augments only up to `limit`. Every newly assigned vertex
    was free, with inflow equal to outflow, so the parent's flow stays
    feasible with the same value: the Y child (explored first) reuses the
    parent's list and the X child a copy. A maximum flow also leaves the
    set R its residual graph reaches from X, which holds no Y vertex and
    has no residual arc leaving it; every maximum flow has the same value
    and the same R, so no decision depends on which paths `_augment`
    pushes. A child's search starts again from X if a new Y vertex lies in
    R; else from the new X vertices outside R, with R and the new X
    visited, if there are any; else the flow is still maximum and R stays.

    The search stops once an incumbent reaches `floor`, a value known to be
    minimal. `done` nodes of the same call came before this search: the
    deadline is read whenever the call's count reaches a multiple of
    _TIME_CHECK_INTERVAL, however many searches the call makes. A budget
    expiry or a KeyboardInterrupt raises IncompleteSearchError with the
    incumbent, its side and this search's nodes; an interrupt carries
    budget None."""
    depth = len(vorder)
    best = None
    best_side = None
    examined = done
    monotonic = time.monotonic
    # stack entries: (i, x, y, cut, residual masks, flow value, start,
    # seen); the root's masks are adj, no flow; a nonzero start is where
    # the search for augmenting paths begins, with seen visited, and a zero
    # start marks a maximum flow whose residual graph reaches exactly seen
    # from X; Y is explored first
    stack = [(0, 0, root, 0, list(adj), 0, 0, 0)]
    try:
        while stack:
            i, x, y, cut, res, value, start, seen = stack.pop()
            examined += 1
            if deadline is not None \
                    and not examined & (_TIME_CHECK_INTERVAL - 1) \
                    and monotonic() > deadline:
                raise IncompleteSearchError(h, best, best_side,
                                            examined - done, 0.0)
            if cut >= limit:
                continue
            while i < depth and (x | y) >> vorder[i] & 1:
                i += 1
            if i == depth:
                if x:
                    best = limit = cut
                    best_side = x
                    if cut <= floor:
                        break
                continue
            if start:
                value, seen = _augment(adj, res, y, value, limit, start, seen)
            if value >= limit:
                continue
            v = vorder[i]
            bit = 1 << v
            a = adj[v]
            # the X child is pushed first and explored second
            for cx, cy, across in ((x | bit, y, a & y), (x, y | bit, a & x)):
                child = _force(adj, cx, cy, cut + across.bit_count(), limit,
                               h, bit | across)
                if child is None:
                    continue
                cx, cy, child_cut = child
                new_x = cx & ~x
                if cy & ~y & seen:
                    warm = (cx, cx)
                elif new_x & ~seen:
                    warm = (new_x & ~seen, seen | new_x)
                else:
                    warm = (0, seen)
                stack.append((i + 1, cx, cy, child_cut,
                              res[:] if cx & bit else res, value, *warm))
    except KeyboardInterrupt:
        raise IncompleteSearchError(h, best, best_side, examined - done,
                                    None) from None
    return best, best_side, examined - done


def _split(adj) -> int:
    """Half the order when the graph is the join of its aligned halves
    L = 0..m-1 and R = m..2m-1, else 0. It is a join when the order is a
    power of two above _BASE_ORDER, every vertex has exactly one neighbour
    in the other half, and both halves are connected. `realize` labels
    every member this way, so a member's graph file splits without its
    trace; smaller graphs and other labellings are searched whole."""
    order = len(adj)
    if order <= _BASE_ORDER or order & (order - 1):
        return 0
    m = order >> 1
    lo = (1 << m) - 1
    hi = lo << m
    for v, a in enumerate(adj):
        if (a & (hi if v < m else lo)).bit_count() != 1:
            return 0
    if connected_within(adj, lo) and connected_within(adj, hi):
        return m
    return 0


def _value(adj, h, deadline, done):
    """(value, side, examined): the minimum cut of the connected graph
    `adj` at level h and a side attaining it, which may hold vertex 0;
    (None, None, examined) when no cut exists. `done` nodes of the same
    call came before it (see `_branch_and_bound`).

    A graph that does not `_split` is searched whole, with vertex 0 in Y.
    One that does is solved by the induction of the module docstring: this
    function on both halves at level max(h-1, 0) bounds case A, two
    searches with one half pinned to Y cover case B, and the whole graph
    is searched when case B has no cut within the bound. The aligned block
    {0..2^h-1}, where both it and the rest keep degree h, seeds the
    incumbent and case B's first limit. An expiry or an interrupt in a
    half hands back this graph's incumbent, never the half's."""
    order = len(adj)
    full = (1 << order) - 1
    # a vertex of degree < h can never keep degree h on either side
    if order < 2 or not keeps_degree(adj, full, full, h):
        return None, None, 0
    edges = sum(a.bit_count() for a in adj) // 2
    m = _split(adj)
    if not m:
        # vertex 0 stays in Y; a connected graph has no cut below 1
        return _branch_and_bound(adj, range(1, order), h, edges + 1, 1,
                                 deadline, 1, done)
    lo = (1 << m) - 1
    best = side = None
    k = 1 << h
    if k < order:
        block = (1 << k) - 1
        if keeps_degree(adj, block, block, h) \
                and keeps_degree(adj, full ^ block, full ^ block, h):
            best, side = sum((a >> k).bit_count() for a in adj[:k]), \
                full ^ block
    examined = 0
    try:
        bound = 0
        for half in [a & lo for a in adj[:m]], [a >> m for a in adj[m:]]:
            value, _, nodes = _value(half, max(h - 1, 0), deadline,
                                     done + examined)
            examined += nodes
            if value is None:
                bound = None
                break
            bound += value
    except IncompleteSearchError as exc:
        raise IncompleteSearchError(h, best, side,
                                    examined + exc.subsets_examined,
                                    exc.budget) from None
    limit = edges + 1 if bound is None else bound + 1
    if best is not None:
        limit = min(limit, best)
    try:
        # case B: R pinned to Y deciding L, then L pinned deciding R
        for vorder, root in (range(m), full ^ lo), (range(m, order), lo):
            found, x, nodes = _branch_and_bound(adj, vorder, h, limit, 1,
                                                deadline, root,
                                                done + examined)
            examined += nodes
            if found is not None:
                best = limit = found
                side = x
        if bound is not None and (best is None or best > bound):
            best, side, nodes = _branch_and_bound(
                adj, range(1, order), h,
                edges + 1 if best is None else best + 1, 1, deadline, 1,
                done + examined)
            examined += nodes
    except IncompleteSearchError as exc:
        if exc.best_value is not None:  # below every incumbent so far
            best, side = exc.best_value, exc.best_side
        raise IncompleteSearchError(h, best, side,
                                    examined + exc.subsets_examined,
                                    exc.budget) from None
    return best, side, examined


def lambda_sh_exact(g: Graph, h: int,
                    budget: float | None = None) -> CutReport:
    """Exact minimum size of an edge cut leaving both sides at minimum degree
    >= h, with a witness side; value None after a complete search finds no
    such cut.

    The value phase (`_value`) computes the exact value first, and a
    branch-and-bound witness phase then reconstructs the lexicographically
    smallest witness. A budget (seconds) turns an overlong search into
    IncompleteSearchError carrying the best incumbent."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    if budget is not None and not budget >= 0:  # also rejects NaN
        raise UsageError(f"budget must be a nonnegative number of seconds, "
                         f"got {budget}")
    if not g.is_connected():
        raise UsageError("minimum-cut search requires a connected graph")
    deadline = time.monotonic() + budget if budget is not None else None
    best = best_mask = None
    examined = 0
    try:
        best, best_mask, examined = _value(g.adj, h, deadline, 0)
        if best is not None:
            # witness phase: deciding the most significant vertex first, the
            # first side found at the minimum is the smallest mask
            _, best_mask, extra = _branch_and_bound(
                g.adj, range(g.order - 1, 0, -1), h, best + 1, best,
                deadline, 1, examined)
            examined += extra
            if best_mask is None:
                raise AssertionError("no witness at the proven minimum value")
    except IncompleteSearchError as exc:
        if best is None:  # otherwise the value phase's side attains `best`
            best, best_mask = exc.best_value, exc.best_side
        if best_mask is not None and best_mask & 1:  # a case-B side
            best_mask ^= g.vertex_mask
        # an interrupt (budget None) stays one; an expiry names the budget
        raise IncompleteSearchError(
            h, best, best_mask, examined + exc.subsets_examined,
            None if exc.budget is None else budget) from None
    if best is None:
        return CutReport(h, None, None, None, examined)
    witness_cut = g.edge_boundary(best_mask)
    if len(witness_cut) != best:
        raise AssertionError("witness boundary does not match the found value")
    return CutReport(h, best, witness_cut, best_mask, examined)
