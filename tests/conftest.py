"""Shared fixtures, hypothesis strategies, and independent reference
implementations used as oracles."""

from __future__ import annotations

import functools
import itertools
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import strategies as st

from hlcut import (Graph, HlGraph, Node, fig1_graph, from_trace, hypercube,
                   random_hl)
from hlcut.build import LEAF


# -- independent references (kept deliberately separate from package code) ----

def reference_connected(order: int, edges, removed=frozenset()) -> bool:
    """Plain adjacency-dict BFS."""
    removed = {tuple(sorted(e)) for e in removed}
    adj = {v: set() for v in range(order)}
    for u, v in edges:
        if tuple(sorted((u, v))) not in removed:
            adj[u].add(v)
            adj[v].add(u)
    if order <= 1:
        return True
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == order


def reference_vertex_cut(order: int, edges, removed, h: int) -> bool:
    """Induced-subgraph BFS plus a degree count: True iff deleting the
    vertices in `removed` disconnects the rest and every survivor keeps at
    least h surviving neighbours."""
    alive = set(range(order)) - set(removed)
    adj = {v: set() for v in alive}
    for u, v in edges:
        if u in alive and v in alive:
            adj[u].add(v)
            adj[v].add(u)
    if any(len(nbrs) < h for nbrs in adj.values()):
        return False
    start = min(alive)
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) < len(alive)


def reference_adjacency(order: int, edges) -> dict[int, set[int]]:
    """Vertex -> set of its neighbours."""
    adj = {v: set() for v in range(order)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_induced_min_degree(order: int, edges, mask: int) -> int:
    """Fewest neighbours inside the nonempty vertex set `mask` of any of its
    vertices, counted on adjacency sets."""
    adj = reference_adjacency(order, edges)
    side = {v for v in range(order) if mask >> v & 1}
    return min(len(adj[v] & side) for v in side)


def reference_boundary_size(edges, mask: int) -> int:
    """Edges with exactly one endpoint in `mask`."""
    return sum((mask >> u & 1) != (mask >> v & 1) for u, v in edges)


def reference_min_degree_subsets(order: int, edges, h: int) -> list[int]:
    """Every nonempty vertex mask X in which each vertex keeps at least h
    neighbours inside X, ascending."""
    adj = reference_adjacency(order, edges)
    out = []
    for mask in range(1, 1 << order):
        side = {v for v in range(order) if mask >> v & 1}
        if all(len(adj[v] & side) >= h for v in side):
            out.append(mask)
    return out


def reference_min_cuts(order: int, edges) -> dict:
    """Plain loop over every side X without vertex 0, on adjacency sets:
    {h: (value, side mask)} of the fewest edges leaving an X where every
    vertex keeps at least h neighbours on its own side, the smallest mask
    among equal values, for every h up to the minimum degree; (None, None)
    at a level no X qualifies for. One pass serves every level: a side
    qualifies at h iff h is at most the fewest own-side neighbours of any
    vertex."""
    adj = reference_adjacency(order, edges)
    top = min((len(nbrs) for nbrs in adj.values()), default=0)
    best = dict.fromkeys(range(top + 1), (None, None))
    for mask in range(2, 1 << order, 2):  # ascending, so ties keep the first
        side = {v for v in range(order) if mask >> v & 1}
        rest = set(range(order)) - side
        own = [len(adj[v] & (side if v in side else rest))
               for v in range(order)]
        value = sum(len(adj[v]) - own[v] for v in side)
        for h in range(min(own) + 1):
            if best[h][0] is None or value < best[h][0]:
                best[h] = (value, mask)
    return best


def reference_min_cut(order: int, edges, h: int):
    """The level-h entry of `reference_min_cuts`; (None, None) above the
    minimum degree, where no side qualifies."""
    return reference_min_cuts(order, edges).get(h, (None, None))


@functools.cache
def reference_kappas(order: int, edges: tuple) -> dict:
    """Plain size-major loop over every removed set S that leaves at least
    two vertices, on adjacency sets: {h: (size, mask, rank)} of the first S
    whose deletion disconnects the rest while every survivor keeps at least
    h neighbours, with rank its 1-based position in the loop, for every h up
    to the maximum degree + 1; (None, None, total) at a level no S
    qualifies for. Each size class is sorted by mask, because
    itertools.combinations comes out in lexicographic order, not mask
    order. One pass serves every level: S qualifies at h iff it disconnects
    and h is at most the fewest surviving neighbours of any survivor."""
    adj = reference_adjacency(order, edges)
    top = max((len(nbrs) for nbrs in adj.values()), default=0) + 1
    everyone = set(range(order))
    found = {}
    rank = 0
    for size in range(order - 1):
        for mask, removed in sorted(
                (sum(1 << v for v in c), c)
                for c in itertools.combinations(range(order), size)):
            rank += 1
            alive = everyone.difference(removed)
            least = min(len(adj[v] & alive) for v in alive)
            pending = [h for h in range(least + 1) if h not in found]
            if pending and reference_vertex_cut(order, edges, removed, least):
                found.update(dict.fromkeys(pending, (size, mask, rank)))
    return {h: found.get(h, (None, None, rank)) for h in range(top + 1)}


def reference_kappa(order: int, edges, h: int):
    """The level-h entry of `reference_kappas`; levels above the maximum
    degree + 1 share its answer, as no survivor can keep that many
    neighbours."""
    kappas = reference_kappas(order, tuple(edges))
    return kappas[min(h, max(kappas))]


def reference_restricted_edge_connectivity(edges) -> int:
    """Fewest edges whose removal disconnects the graph while every vertex
    keeps a neighbour (the level-1 value), from networkx max-flows only
    (Esfahanian & Hakimi, IPL 1988). Fix an edge uv. A smallest such cut
    either keeps u and v together, and then an edge xy disjoint from {u, v}
    lies on the other side, or it splits them, and then a neighbour x of u
    stays with u and a neighbour y of v with v. A minimum s-t cut between
    two such adjacent pairs leaves no vertex without a neighbour on its own
    side, else moving it across would cut fewer edges. So the value is the
    least {u, v}-{x, y} or {u, x}-{v, y} cut. Meaningful only where a
    level-1 cut exists."""
    g = nx.Graph()
    g.add_edges_from(edges, capacity=1)
    u, v = next(iter(g.edges()))

    def pair_cut(sources, sinks) -> int:
        # edges to the super terminals carry no capacity: networkx reads
        # that as unbounded
        net = g.copy()
        net.add_edges_from(("source", s) for s in sources)
        net.add_edges_from((t, "sink") for t in sinks)
        return nx.minimum_cut_value(net, "source", "sink")

    together = [pair_cut((u, v), (x, y)) for x, y in g.edges()
                if not {u, v} & {x, y}]
    apart = [pair_cut((u, x), (v, y)) for x in g[u] if x != v
             for y in g[v] if y not in (u, x)]
    return min(together + apart)


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.order))
    out.add_edges_from(g.edges())
    return out


def random_simple_graph(rng: random.Random, order: int, p: float = 0.45) -> Graph:
    edges = [(u, v) for u in range(order) for v in range(u + 1, order)
             if rng.random() < p]
    return Graph(order, edges)


def relabelled(g: Graph, seed: int) -> Graph:
    """g with its labels shuffled by `seed`. For a family member the
    aligned label blocks are then, almost surely, no joins of their halves,
    so it has no induction table and its search runs from floor 1."""
    labels = list(range(g.order))
    random.Random(seed).shuffle(labels)
    return Graph(g.order, [(labels[u], labels[v]) for u, v in g.edges()])


def left_deep_trace_text(depth: int) -> str:
    """Trace text nested `depth` levels down the left spine; invalid past the
    construction cap but well-formed JSON."""
    return ('{"left":' * depth + '{"leaf":true}'
            + ',"right":{"leaf":true},"sigma":[0]}' * depth + "\n")


def right_deep_trace_text(depth: int) -> str:
    """Trace text nested `depth` levels down the right spine."""
    return ('{"left":{"leaf":true},"right":' * depth + '{"leaf":true}'
            + ',"sigma":[0]}' * depth + "\n")


# -- hypothesis strategies -----------------------------------------------------

@st.composite
def small_graphs(draw) -> Graph:
    order = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    p = draw(st.sampled_from([0.2, 0.45, 0.7]))
    return random_simple_graph(random.Random(seed), order, p)


@st.composite
def hl_members(draw, max_n: int = 5) -> HlGraph:
    n = draw(st.integers(min_value=0, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_hl(n, seed)


@st.composite
def hl_traces(draw, max_n: int = 4) -> HlGraph:
    """A member realized from a random trace of depth 0..max_n, each
    matching a random bijection, not one of `random_hl`'s shuffles."""
    def trace(depth: int):
        if not depth:
            return LEAF
        return Node(trace(depth - 1), trace(depth - 1),
                    tuple(draw(st.permutations(range(1 << (depth - 1))))))
    return from_trace(trace(draw(st.integers(0, max_n))), "trace")


@st.composite
def mutated(draw, texts: list[str], alphabet: str) -> str:
    """One of `texts` with up to three characters replaced, inserted or
    deleted; new characters come from `alphabet`."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            text = text[:i] + c + text[i:]
        else:
            text = text[:i] + (c if op == "replace" else "") + text[i + 1:]
    return text


# keys of the report and trace schemas, so random objects reach past the
# first checks of each parser
_SCHEMA_KEYS = st.sampled_from(["report", "cut", "lemma", "kappa", "h",
                                "value", "leaf", "left", "right",
                                "sigma"]) | st.text(max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _SCHEMA_KEYS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(_SCHEMA_KEYS, inner, max_size=4)),
    max_leaves=12)


# -- common fixtures -----------------------------------------------------------

@pytest.fixture(scope="session")
def q2():
    return hypercube(2)


@pytest.fixture(scope="session")
def q3():
    return hypercube(3)


@pytest.fixture(scope="session")
def q4():
    return hypercube(4)


@pytest.fixture(scope="session")
def fig1():
    return fig1_graph()
