"""Edge-fault tolerance proper: the degree-preserving cut predicate, the
canonical block cut, and exact minimum-cut search.

A minimum cut with both sides keeping minimum degree >= h is always the edge
boundary of a single side X (dropping any further edges from a cut leaves a
smaller cut with the same component), so the search space is bipartitions:
nonempty X not containing the anchor vertex 0, with min degree >= h inside X
and inside its complement. Tie-break among minimum cuts: the lexicographically
smallest witness-side bitmask. Both methods return identical reports.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .build import HlGraph, block_vertices
from .errors import IncompleteSearchError, UsageError
from .graph import Edge, Graph, check_gate, connected_within, min_degree_at_least

EXHAUSTIVE = "exhaustive"
BRANCH_AND_BOUND = "branch-and-bound"
METHODS = (EXHAUSTIVE, BRANCH_AND_BOUND)

_TIME_CHECK_INTERVAL = 4096


@dataclass(frozen=True)
class CutReport:
    h: int
    value: int
    witness_cut: tuple[Edge, ...]
    witness_side: int
    method: str
    subsets_examined: int
    elapsed: float


@dataclass(frozen=True)
class Nonexistent:
    """No qualifying cut exists; a first-class outcome, not an error."""
    h: int
    method: str
    subsets_examined: int
    elapsed: float


def is_h_edge_cut(g: Graph, f, h: int) -> bool:
    """True iff removing the edge set f disconnects g while every vertex
    keeps degree >= h."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    adj = g.adj_without(f)
    if g.order and min(a.bit_count() for a in adj) < h:
        return False
    return not connected_within(adj, g.vertex_mask)


def canonical_cut(hl: HlGraph, h: int) -> tuple[Edge, ...]:
    """The edge boundary of the embedded dimension-h block: 2^h * (n - h)
    edges, and a valid h-cut for every member of the family."""
    if not 0 <= h <= hl.n - 1:
        raise UsageError(f"canonical cut level {h} outside 0..{hl.n - 1}")
    return hl.graph.edge_boundary(block_vertices(hl, h))


# -- exhaustive scan ----------------------------------------------------------

def _scan_range(adj, deg, order, h, lo, hi, deadline):
    """Scan anchored masks m in [lo, hi); X = m << 1 never contains vertex 0.
    Returns (complete, best_value, best_mask, examined). Requires every
    degree >= h (the complement-side check only revisits X's neighbors)."""
    full = (1 << order) - 1
    best = None
    best_mask = None
    examined = 0
    need = h + 1
    monotonic = time.monotonic
    for m in range(lo, hi):
        examined += 1
        if deadline is not None and not examined & (_TIME_CHECK_INTERVAL - 1) \
                and monotonic() > deadline:
            return False, best, best_mask, examined
        x = m << 1
        if h:
            xc = x.bit_count()
            if xc < need or order - xc < need:
                continue
        # one pass over X: min degree inside X, boundary size, X's neighborhood
        cut = 0
        nbhd = 0
        ok = True
        t = x
        while t:
            b = t & -t
            v = b.bit_length() - 1
            a = adj[v]
            dx = (a & x).bit_count()
            if dx < h:
                ok = False
                break
            cut += deg[v] - dx
            if best is not None and cut >= best:
                ok = False
                break
            nbhd |= a
            t ^= b
        if not ok:
            continue
        if h:
            # only Y-vertices adjacent to X can have lost degree
            y = full ^ x
            t = nbhd & y
            while t:
                b = t & -t
                if (adj[b.bit_length() - 1] & y).bit_count() < h:
                    ok = False
                    break
                t ^= b
            if not ok:
                continue
        best = cut
        best_mask = x
    return True, best, best_mask, examined


def _exhaustive(g: Graph, h: int, threads: int, deadline):
    order = g.order
    adj = g.adj
    deg = tuple(a.bit_count() for a in adj)
    total = (1 << (order - 1)) - 1  # masks 1 .. 2^(order-1) - 1
    if total <= 0:
        return None, None, 0
    if threads <= 1 or total < 4 * threads:
        results = [_scan_range(adj, deg, order, h, 1, total + 1, deadline)]
    else:
        bounds = [1 + i * total // threads for i in range(threads)] + [total + 1]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_scan_range, adj, deg, order, h,
                                   bounds[i], bounds[i + 1], deadline)
                       for i in range(threads)]
            results = [f.result() for f in futures]
    examined = sum(r[3] for r in results)
    candidates = [(r[1], r[2]) for r in results if r[2] is not None]
    best, best_mask = min(candidates) if candidates else (None, None)
    if not all(r[0] for r in results):
        raise IncompleteSearchError(h, best, best_mask, examined, 0.0)
    return best, best_mask, examined


# -- branch and bound ---------------------------------------------------------

def _others_keep_degree(adj, others, side, h):
    """True iff every vertex in `others` still has >= h neighbours outside
    `side`. Called with the opposite-side neighbours of a vertex just added
    to `side`: they are the only vertices whose reachable degree dropped."""
    while others:
        b = others & -others
        if (adj[b.bit_length() - 1] & ~side).bit_count() < h:
            return False
        others ^= b
    return True


def _bnb_value(adj, deg, order, h, deadline):
    """Exact minimum value and the side that attains it (or None, None).

    Vertex order: descending degree, ties by index, anchor 0 pre-assigned
    to the complement. Bound: edges already cut by the partial assignment.
    Degree propagation: every assigned vertex must keep at least h
    neighbours that are unassigned or on its own side, so a branch is
    dropped when the vertex it assigns falls short, or when one of that
    vertex's neighbours on the other side does. Only assignments in which
    some vertex must end below degree h are pruned, so the value is exact.
    The incumbent's side is kept so a budget expiry hands back a witness."""
    vorder = sorted(range(1, order), key=lambda v: (-deg[v], v))
    depth = len(vorder)
    best = None
    best_side = None
    examined = 0
    monotonic = time.monotonic
    # stack entries: (i, x, y, cut); X branch is explored first
    stack = [(0, 0, 1, 0)]
    while stack:
        i, x, y, cut = stack.pop()
        examined += 1
        if deadline is not None and not examined & (_TIME_CHECK_INTERVAL - 1) \
                and monotonic() > deadline:
            raise IncompleteSearchError(h, best, best_side, examined, 0.0)
        if best is not None and cut >= best:
            continue
        if i == depth:
            if x and min_degree_at_least(adj, x, h) and min_degree_at_least(adj, y, h):
                best = cut  # cut < best already ensured
                best_side = x
            continue
        v = vorder[i]
        bit = 1 << v
        a = adj[v]
        # Y branch (pushed first, explored second)
        cut_y = cut + (a & x).bit_count()
        if (best is None or cut_y < best) and (a & ~x).bit_count() >= h \
                and _others_keep_degree(adj, a & x, y | bit, h):
            stack.append((i + 1, x, y | bit, cut_y))
        # X branch
        cut_x = cut + (a & y).bit_count()
        if (best is None or cut_x < best) and (a & ~y).bit_count() >= h \
                and _others_keep_degree(adj, a & y, x | bit, h):
            stack.append((i + 1, x | bit, y, cut_x))
    return best, best_side, examined


def _lexmin_witness(adj, order, h, target, incumbent, deadline):
    """Smallest witness-side bitmask among cuts of exactly the minimum value
    `target`, with the anchor vertex 0 outside the witness side. Vertices are
    decided from the most significant bit down, side "out" first, so the
    first complete feasible assignment is the lexicographic minimum. Prunes
    with the same degree propagation as `_bnb_value`; a budget expiry hands
    back `incumbent`, a side already known to attain `target`."""
    examined = 0
    monotonic = time.monotonic
    # stack entries: (v, x, y, cut) with vertices v..1 still undecided
    stack = [(order - 1, 0, 1, 0)]
    while stack:
        v, x, y, cut = stack.pop()
        examined += 1
        if deadline is not None and not examined & (_TIME_CHECK_INTERVAL - 1) \
                and monotonic() > deadline:
            raise IncompleteSearchError(h, target, incumbent, examined, 0.0)
        if v == 0:
            if x and min_degree_at_least(adj, x, h) and min_degree_at_least(adj, y, h):
                return x, examined
            continue
        bit = 1 << v
        a = adj[v]
        # X branch pushed first, Y branch (v outside the witness) on top
        cut_x = cut + (a & y).bit_count()
        if cut_x <= target and (a & ~y).bit_count() >= h \
                and _others_keep_degree(adj, a & y, x | bit, h):
            stack.append((v - 1, x | bit, y, cut_x))
        cut_y = cut + (a & x).bit_count()
        if cut_y <= target and (a & ~x).bit_count() >= h \
                and _others_keep_degree(adj, a & x, y | bit, h):
            stack.append((v - 1, x, y | bit, cut_y))
    return None, examined


def lambda_sh_exact(g: Graph, h: int, method: str = EXHAUSTIVE,
                    threads: int = 1, budget: float | None = None,
                    override_gate: bool = False) -> CutReport | Nonexistent:
    """Exact minimum size of an edge cut leaving both sides at minimum degree
    >= h, with a witness side, or Nonexistent after a complete search.

    Exhaustive enumerates all anchored bipartitions (optionally split into
    contiguous ranges across threads; results are identical for any thread
    count). Branch-and-bound computes the exact value first and then
    reconstructs the lexicographically smallest witness, so both methods
    return identical reports. Only exhaustive scans are gated by order
    (`override_gate` lifts the gate); branch-and-bound is bounded by the
    budget instead. A budget (seconds) turns an overlong search into
    IncompleteSearchError carrying the best incumbent."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    if method not in METHODS:
        raise UsageError(f"unknown method {method!r}; expected one of {METHODS}")
    if threads < 1:
        raise UsageError(f"thread count {threads} must be positive")
    if method == EXHAUSTIVE:
        check_gate(g.order, override_gate)
    if not g.is_connected():
        raise UsageError("minimum-cut search requires a connected graph")
    start = time.perf_counter()
    deadline = time.monotonic() + budget if budget is not None else None

    def finish_nonexistent(examined):
        return Nonexistent(h, method, examined, time.perf_counter() - start)

    # a vertex of degree < h can never keep degree h on either side
    if g.order < 2 or min(a.bit_count() for a in g.adj) < h:
        return finish_nonexistent(0)

    deg = tuple(a.bit_count() for a in g.adj)
    try:
        if method == EXHAUSTIVE:
            best, best_mask, examined = _exhaustive(g, h, threads, deadline)
        else:
            best, best_mask, examined = _bnb_value(
                g.adj, deg, g.order, h, deadline)
            if best is not None:
                best_mask, extra = _lexmin_witness(
                    g.adj, g.order, h, best, best_mask, deadline)
                examined += extra
                if best_mask is None:
                    raise AssertionError(
                        "no witness at the proven minimum value")
    except IncompleteSearchError as exc:
        raise IncompleteSearchError(h, exc.best_value, exc.best_side,
                                    exc.subsets_examined,
                                    budget if budget is not None else 0.0) from None
    if best is None:
        return finish_nonexistent(examined)
    witness_cut = g.edge_boundary(best_mask)
    if len(witness_cut) != best:
        raise AssertionError("witness boundary does not match the found value")
    return CutReport(h, best, witness_cut, best_mask, method, examined,
                     time.perf_counter() - start)
