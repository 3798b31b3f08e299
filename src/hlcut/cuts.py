"""Edge-fault tolerance proper: the degree-preserving cut predicate and
exact minimum-cut search.

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
The flow is kept incrementally, as one residual mask per vertex, warm
started from the parent's flow and copied on write (see
`_branch_and_bound`), so a node that never searches never copies.

Degree propagation forces moves: an assigned vertex with exactly h
neighbours that are free or on its own side pulls its free neighbours to its
side, to a fixpoint, and a vertex left with fewer than h fails the branch. A
forced move drops only completions in which some vertex ends below degree
h, so the result and its witness are exact (see `_branch_and_bound`).

The search's lower bound is the paper's induction on n (see `induction`):
where `dimension` finds the aligned blocks split, the table's top lam entry
bounds the value from below, and the aligned block {0..2^h-1} from above.
Where the table is infinite, there is no cut. Otherwise one search of the
whole graph runs below the block's cut + 1, or below every edge + 1 without
a block, and stops at the table's bound, or at 1 on a graph whose blocks do
not split. It decides the highest vertex first, so the first side it finds
at the minimum is the lexicographically smallest; where the two bounds
meet, as on every member in the labels `realize` gives, that first side
ends the search.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .errors import IncompleteSearchError, UsageError
from .graph import (Edge, Graph, canonical_edge, connected_within,
                    keeps_degree)
from .induction import INF, dimension, table

_TIME_CHECK_INTERVAL = 4096


class CutReport(NamedTuple):
    """A minimum cut and its witness; value, witness_cut and witness_side
    are None when no qualifying cut exists. subsets_examined counts the
    nodes of the one branch-and-bound search."""
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


def _branch_and_bound(adj, h, limit, floor, budget, best_side):
    """Cheapest side X with cut < `limit`, deciding the highest free vertex
    first; the anchor 0 is pre-assigned to the complement Y. `best_side`,
    when given, is the caller's incumbent, a side with cut `limit` - 1.
    Returns (best_value, best_side, examined), (None, None, examined) when
    there is no incumbent and no side below `limit`.

    Each vertex tries Y first, so the search meets the leaves in ascending
    order of X's mask, and among cuts of equal value the first found is the
    smallest mask. Bounds, against the incumbent: the edges already cut by
    the partial assignment, and the value of an X->Y flow. Every completion
    cuts an edge set separating the assigned X from the assigned Y, so by
    max-flow/min-cut it cuts at least as many edges as any X->Y flow
    carries; a node whose flow reaches `limit` has no completion below it.

    A child is pushed with its branched vertex on its side, its parent's
    cut, flow and reach, and the limit in force then; the root is the
    anchor's Y child of the empty assignment. A popped child is closed
    under `_force` at that limit, seeded with the branched vertex and its
    neighbours on the other side, and a vertex it assigns is not branched
    on. A forced move drops only completions in which some vertex ends
    below degree h, and the vertices above the branched one are all
    assigned, so the highest free vertex is the next in the order and the
    search meets the feasible leaves in the same order as without forcing:
    the value and the witness side are exact. A leaf needs only a nonempty
    X: `_force` checks every vertex, the anchor included, as it is
    assigned, and re-checks each one that loses a neighbour to the other
    side, so every side keeps degree h at a leaf.

    Each node carries a unit flow as residual masks (see `_augment`) and its
    value, and augments only up to `limit`. Every newly assigned vertex was
    free, with inflow equal to outflow, so the parent's flow stays feasible
    with the same value, and both children start from the parent's list. The
    Y child (explored first) shares it with its pending X sibling, so it
    copies the list just before its first `_augment`; the X child, popped
    after the Y child's whole subtree, is the list's last reader and may
    write into it wherever the parent could. The root's list is `adj`
    itself. A maximum flow also leaves the set R its residual graph reaches
    from X, which holds X and no Y vertex and has no residual arc leaving
    it; every maximum flow has the same value and the same R, so no
    decision depends on which paths `_augment` pushes. A child's search
    starts again from X if a Y vertex lies in R, which only a new one can;
    else from its X vertices outside R, with R and X visited, so where
    there are none the flow is still maximum and R stays.

    The search stops once an incumbent reaches `floor`, a value known to be
    minimal. The `budget` (seconds, or None for none) starts here, at the
    root, and the clock is read whenever the node count reaches a multiple
    of _TIME_CHECK_INTERVAL. A budget expiry or a KeyboardInterrupt raises
    IncompleteSearchError with the incumbent, its side, the nodes and the
    budget; an interrupt carries budget None."""
    full = (1 << len(adj)) - 1
    best = None if best_side is None else limit - 1
    examined = 0
    monotonic = time.monotonic
    deadline = None if budget is None else monotonic() + budget
    # stack entries: (x, y, cut, residual masks, flow value, seen, owned,
    # bit, pushed limit), a child not yet closed: its branched bit is in x
    # or y, and the cut, flow and residual reach `seen` are its parent's;
    # owned says that no other entry reads the masks, so they may be
    # written in place. The root's masks are the graph's own adj tuple, no
    # flow, so a missed copy fails as a write into a tuple
    stack = [(0, 1, 0, adj, 0, 0, False, 1, limit)]
    try:
        while stack:
            x, y, cut, res, value, seen, owned, bit, lim = stack.pop()
            across = adj[bit.bit_length() - 1] & (y if x & bit else x)
            node = _force(adj, x, y, cut + across.bit_count(), lim, h,
                          bit | across)
            if node is None:
                continue
            x, y, cut = node
            if y & seen:
                start = seen = x
            else:
                start = x & ~seen
                seen |= x
            examined += 1
            if deadline is not None \
                    and not examined & (_TIME_CHECK_INTERVAL - 1) \
                    and monotonic() > deadline:
                raise IncompleteSearchError(h, best, best_side, examined,
                                            budget)
            if cut >= limit:
                continue
            free = full & ~(x | y)
            if not free:
                if x:
                    best = limit = cut
                    best_side = x
                    if cut <= floor:
                        break
                continue
            if start:
                if not owned:
                    res = list(res)
                    owned = True
                value, seen = _augment(adj, res, y, value, limit, start, seen)
            if value >= limit:
                continue
            bit = 1 << (free.bit_length() - 1)
            stack.append((x | bit, y, cut, res, value, seen, owned, bit,
                          limit))
            stack.append((x, y | bit, cut, res, value, seen, False, bit,
                          limit))
    except KeyboardInterrupt:
        raise IncompleteSearchError(h, best, best_side, examined,
                                    None) from None
    return best, best_side, examined


def lambda_sh_exact(g: Graph, h: int,
                    budget: float | None = None) -> CutReport:
    """Exact minimum size of an edge cut leaving both sides at minimum degree
    >= h, with a witness side; value None when there is no such cut.

    The induction table (`induction.table`) bounds the value from below and
    the aligned block {0..2^h-1}, where both it and the rest keep degree h,
    from above; one branch-and-bound search between the two finds the value
    and the lexicographically smallest witness side (see the module
    docstring). A budget (seconds), counted from the search's root, turns
    an overlong search into IncompleteSearchError carrying the best
    incumbent, which is the block's complement until the search's first
    leaf."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    if budget is not None and not budget >= 0:  # also rejects NaN
        raise UsageError(f"budget must be a nonnegative number of seconds, "
                         f"got {budget}")
    adj, order, full = g.adj, g.order, g.vertex_mask
    # a table implies a connected, n-regular graph, where h > n leaves the
    # table infinite
    n = dimension(adj)
    if n is not None:
        floor = table(n)[n][0][h] if h <= n else INF
    elif not g.is_connected():
        raise UsageError("minimum-cut search requires a connected graph")
    else:
        # a vertex of degree < h can never keep degree h on either side,
        # and a connected graph has no cut below 1
        floor = 1 if order > 1 and keeps_degree(adj, full, full, h) else INF
    if floor == INF:
        return CutReport(h, None, None, None, 0)
    value = side = None
    k = 1 << h
    if k < order:
        block = (1 << k) - 1
        if keeps_degree(adj, block, block, h) \
                and keeps_degree(adj, full ^ block, full ^ block, h):
            value = sum((a >> k).bit_count() for a in adj[:k])
            side = full ^ block
    limit = g.num_edges if value is None else value
    value, side, examined = _branch_and_bound(adj, h, limit + 1, floor,
                                              budget, side)
    if value is None:
        return CutReport(h, None, None, None, examined)
    witness_cut = g.edge_boundary(side)
    if len(witness_cut) != value:
        raise AssertionError("witness boundary does not match the found value")
    return CutReport(h, value, witness_cut, side, examined)
