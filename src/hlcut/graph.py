"""Immutable simple graphs with bitmask adjacency and the exact primitives
everything else is built on: degrees, induced minimum degree, edge boundaries,
and connectivity under edge deletion.

Vertices are integers 0..order-1. A vertex set is a plain int used as a
bitmask (bit v set <=> vertex v in the set). An edge is a (min, max) pair;
edge sets are iterables of such pairs and are canonicalized on input.
"""

from __future__ import annotations

from typing import Iterable

from .errors import UsageError

Edge = tuple[int, int]

# Construction, the cut search and the lemma checks (which read the
# induction table, not subsets) go up to order 2^10; kappa's subset scan is
# capped much lower: it decides all 2^order - order - 1 removable sets, and
# its pruning makes order 32 quick, not order 64.
MAX_ORDER = 1 << 10
SOLVER_GATE = 32


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise UsageError(f"loop edge ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertex_list(mask: int | None) -> list[int] | None:
    """The vertices of `mask` in ascending order; the inverse of mask_of."""
    if mask is None:
        return None
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def check_gate(order: int) -> None:
    if order > SOLVER_GATE:
        raise UsageError(
            f"order {order} exceeds the subset-scan cap of {SOLVER_GATE} "
            f"vertices: a scan past it does not finish")


def keeps_degree(adj: tuple[int, ...] | list[int], vertices: int, within: int,
                 h: int) -> bool:
    """True iff every vertex of `vertices` has at least h neighbors in
    `within`; keeps_degree(adj, m, m, h) says that m induces min degree >= h.
    Searches pass only the vertices whose count may have dropped."""
    if h <= 0:
        return True
    t = vertices
    while t:
        b = t & -t
        if (adj[b.bit_length() - 1] & within).bit_count() < h:
            return False
        t ^= b
    return True


def connected_within(adj: tuple[int, ...] | list[int], mask: int) -> bool:
    """True iff the vertices of `mask` form one component under `adj`
    restricted to `mask`. Zero or one vertex counts as connected."""
    start = mask & -mask
    comp = start
    frontier = start
    while frontier:
        reach = 0
        t = frontier
        while t:
            b = t & -t
            reach |= adj[b.bit_length() - 1]
            t ^= b
        frontier = reach & mask & ~comp
        comp |= frontier
    return comp == mask


class Graph:
    """Undirected simple graph, immutable after construction.

    `Graph(order, edges)` is the one way to build one. It checks the order
    cap before allocating anything, then each edge for a loop and for
    endpoints outside 0..order-1; an edge listed twice is stored once.
    `adj[v]` is the neighbor bitmask of v, symmetric by construction.
    """

    __slots__ = ("order", "adj", "num_edges")

    def __init__(self, order: int, edges: Iterable[tuple[int, int]]):
        if order < 0 or order > MAX_ORDER:  # before allocating any mask
            raise UsageError(
                f"order {order} outside supported range 0..{MAX_ORDER}")
        adj = [0] * order
        for u, v in edges:
            if u >= v:
                u, v = canonical_edge(u, v)
            if u < 0 or v >= order:
                raise UsageError(f"edge ({u},{v}) outside 0..{order - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "adj", tuple(adj))
        object.__setattr__(self, "num_edges",
                           sum(a.bit_count() for a in adj) // 2)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- queries -----------------------------------------------------------

    @property
    def vertex_mask(self) -> int:
        return (1 << self.order) - 1

    def edges(self) -> list[Edge]:
        """All edges as (min, max) pairs in ascending lexicographic order."""
        out = []
        for u in range(self.order):
            t = self.adj[u] >> (u + 1) << (u + 1)
            while t:
                b = t & -t
                out.append((u, b.bit_length() - 1))
                t ^= b
        return out

    def check_vertex_set(self, x: int) -> None:
        """UsageError unless `x` is a vertex set of this graph."""
        if x < 0 or x & ~self.vertex_mask:
            raise UsageError("vertex set outside the graph's vertex range")

    def edge_boundary(self, x: int) -> tuple[Edge, ...]:
        """Edges with exactly one endpoint in `x`, sorted ascending."""
        self.check_vertex_set(x)
        out = []
        t = x
        while t:
            b = t & -t
            v = b.bit_length() - 1
            outside = self.adj[v] & ~x
            while outside:
                ob = outside & -outside
                out.append(canonical_edge(v, ob.bit_length() - 1))
                outside ^= ob
            t ^= b
        out.sort()
        return tuple(out)

    def is_connected(self) -> bool:
        """Connectivity over all vertices; graphs on 0 or 1 vertices are
        connected."""
        return connected_within(self.adj, self.vertex_mask)

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.order == other.order and self.adj == other.adj)

    def __hash__(self) -> int:
        return hash((self.order, self.adj))

    def __repr__(self) -> str:
        return f"Graph(order={self.order}, edges={self.num_edges})"


# -- text format ------------------------------------------------------------
#
# Line 1: "<order> <edge-count>"; then one "u v" line per edge with u < v,
# ascending lexicographic, ASCII decimal, every line newline-terminated.
# Writing is canonical, so write(read(write(g))) is byte-identical.

def graph_to_text(g: Graph) -> str:
    lines = [f"{g.order} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse the text format. The reader tokenizes: every token must be an
    integer, the first two are the order and the edge count, and the rest
    pair up into edges, which `Graph` checks for the order cap, loops and
    endpoint ranges. The one form check is the round trip: the text must
    equal `graph_to_text` of the graph it describes, which settles the line
    breaks and spacing, the final newline, the edge count, the (min, max)
    form, the ascending order and the spelling of every number."""
    try:
        order, _, *ends = map(int, text.split())
    except ValueError:
        raise UsageError("graph text is not a header and edge lines of "
                         "integers") from None
    pairs = iter(ends)
    g = Graph(order, zip(pairs, pairs))
    if graph_to_text(g) != text:
        raise UsageError("graph text is not in canonical form")
    return g


def write_graph(path, g: Graph) -> None:
    write_text(path, graph_to_text(g))


def write_text(path, text: str) -> None:
    """Write `text` as ASCII with LF line ends, as every package file is."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def read_text(path) -> str:
    """The whole of an ASCII file, line ends kept as they are. Both file
    formats are ASCII, so any other byte is a UsageError."""
    try:
        with open(path, "r", encoding="ascii", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: byte {exc.start} is not ASCII") from None


def read_graph(path) -> Graph:
    return graph_from_text(read_text(path))
