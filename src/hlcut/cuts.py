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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .build import HlGraph, block_vertices
from .errors import IncompleteSearchError, UsageError
from .graph import (Edge, Graph, canonical_edge, connected_within,
                    keeps_degree)

_TIME_CHECK_INTERVAL = 4096


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


def _branch_and_bound(adj, vorder, h, limit, floor, deadline):
    """Cheapest side X with cut < `limit`, deciding the vertices of `vorder`
    in that order; the anchor 0 is pre-assigned to the complement Y.
    Returns (best_value, best_side, examined), (None, None, examined) when
    no such side exists.

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
    nonempty X: the caller has checked the anchor's degree, `_force` checks
    every other vertex as it is assigned, and re-checks each one that loses
    a neighbour to the other side, so every side keeps degree h at a leaf.

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
    minimal. A budget expiry or a KeyboardInterrupt raises
    IncompleteSearchError with the incumbent and its side; an interrupt
    carries budget None."""
    depth = len(vorder)
    best = None
    best_side = None
    examined = 0
    monotonic = time.monotonic
    # stack entries: (i, x, y, cut, residual masks, flow value, start,
    # seen); the root's masks are adj, no flow; a nonzero start is where
    # the search for augmenting paths begins, with seen visited, and a zero
    # start marks a maximum flow whose residual graph reaches exactly seen
    # from X; Y is explored first
    stack = [(0, 0, 1, 0, list(adj), 0, 0, 0)]
    try:
        while stack:
            i, x, y, cut, res, value, start, seen = stack.pop()
            examined += 1
            if deadline is not None \
                    and not examined & (_TIME_CHECK_INTERVAL - 1) \
                    and monotonic() > deadline:
                raise IncompleteSearchError(h, best, best_side, examined, 0.0)
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
        raise IncompleteSearchError(h, best, best_side, examined,
                                    None) from None
    return best, best_side, examined


def lambda_sh_exact(g: Graph, h: int,
                    budget: float | None = None) -> CutReport:
    """Exact minimum size of an edge cut leaving both sides at minimum degree
    >= h, with a witness side; value None after a complete search finds no
    such cut.

    Branch-and-bound computes the exact value first and then reconstructs
    the lexicographically smallest witness. A budget (seconds) turns an
    overlong search into IncompleteSearchError carrying the best
    incumbent."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    if budget is not None and not budget >= 0:  # also rejects NaN
        raise UsageError(f"budget must be a nonnegative number of seconds, "
                         f"got {budget}")
    if not g.is_connected():
        raise UsageError("minimum-cut search requires a connected graph")
    deadline = time.monotonic() + budget if budget is not None else None
    adj = g.adj
    full = g.vertex_mask
    # a vertex of degree < h can never keep degree h on either side
    if g.order < 2 or not keeps_degree(adj, full, full, h):
        return CutReport(h, None, None, None, 0)

    best = best_mask = None
    examined = 0
    try:
        # value phase, deciding vertices in ascending order; a connected
        # graph has no cut below 1
        best, best_mask, examined = _branch_and_bound(
            adj, range(1, g.order), h, g.num_edges + 1, 1, deadline)
        if best is not None:
            # witness phase: deciding the most significant vertex first, the
            # first side found at the minimum is the smallest mask
            _, best_mask, extra = _branch_and_bound(
                adj, range(g.order - 1, 0, -1), h, best + 1, best, deadline)
            examined += extra
            if best_mask is None:
                raise AssertionError("no witness at the proven minimum value")
    except IncompleteSearchError as exc:
        if best is None:  # otherwise the value phase's side attains `best`
            best, best_mask = exc.best_value, exc.best_side
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
