"""Constructing hypercube-like graphs with verifiable construction traces.

A trace is a full binary tree: a Leaf is a single vertex, and a Node joins
the two equal-order graphs realized by its subtrees with a perfect matching
described by a bijection `sigma` (left-local vertex i is joined to
right-local vertex sigma[i]).

Canonical labeling: realizing a trace gives the left block the labels
0..2^(k-1)-1 and offsets the right block by 2^(k-1), recursively. Under
this scheme the canonical hypercube gets standard binary-code labels, the
leftmost depth-(n-h) block is exactly {0..2^h-1}, and the level of an edge
(u, v) is simply bit_length(u xor v).
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import TraceError, UsageError
from .graph import Graph, MAX_ORDER, mask_of, read_text, write_text

MASK64 = (1 << 64) - 1

MAX_DIMENSION = MAX_ORDER.bit_length() - 1  # order 2^n must stay within MAX_ORDER


class Leaf(NamedTuple):
    """A single vertex, the base of the recursion. As a named tuple with no
    fields it equals () and is falsy, so test for it with `isinstance`."""


class Node(NamedTuple):
    left: "Leaf | Node"
    right: "Leaf | Node"
    sigma: tuple[int, ...]


Trace = Leaf | Node

LEAF = Leaf()


def identity_matching(size: int) -> tuple[int, ...]:
    return tuple(range(size))


def _realize(trace: Trace, path: str, base: int,
             edges: list[tuple[int, int]]) -> int:
    """The order of `trace`, whose edges go onto `edges` at their final
    labels, those of its local labels plus `base`."""
    if len(path) > MAX_DIMENSION:  # bounds the recursion and its 2^depth work
        raise TraceError(
            f"trace depth exceeds the construction cap {MAX_DIMENSION}", path)
    if isinstance(trace, Leaf):
        return 1
    if not isinstance(trace, Node):
        raise TraceError(f"not a trace node: {trace!r}", path)
    lo = _realize(trace.left, path + "0", base, edges)
    ro = _realize(trace.right, path + "1", base + lo, edges)
    if lo != ro:
        raise TraceError(f"unbalanced subtrees: left order {lo}, right order {ro}", path)
    sigma = trace.sigma
    if sorted(sigma) != list(range(lo)):
        raise TraceError("matching is not a bijection", path)
    top = base + lo
    edges.extend(zip(range(base, top), [top + v for v in sigma]))
    return 2 * lo


def realize(trace: Trace) -> Graph:
    """Realize a trace under canonical labeling. Structural defects
    (unbalanced subtrees, non-bijective matchings, depth beyond the cap)
    raise TraceError naming the offending node path. A trace of depth n that
    realizes is n-regular, connected and of order 2^n: each join doubles the
    order, gives every vertex one matching edge, and links two connected
    halves."""
    edges: list[tuple[int, int]] = []
    return Graph(_realize(trace, "", 0, edges), edges)


class HlGraph(NamedTuple):
    """A hypercube-like graph together with the trace witnessing membership.

    `relabel` maps canonical trace labels to the graph's public labels; it is
    the identity for everything except the fixed figure fixture, whose
    published vertex numbering does not put the trace blocks on contiguous
    labels.
    """

    graph: Graph
    trace: Trace
    n: int
    relabel: tuple[int, ...]
    label: str


def from_trace(trace: Trace, label: str) -> HlGraph:
    """Build an HlGraph from an explicit trace (the entry point for custom
    matchings, e.g. the twisted cube variants)."""
    g = realize(trace)
    n = g.order.bit_length() - 1
    return HlGraph(g, trace, n, identity_matching(g.order), label)


def _check_dimension(n: int) -> None:
    if n < 0:
        raise UsageError(f"dimension {n} is negative")
    if n > MAX_DIMENSION:
        raise UsageError(f"dimension {n} exceeds the construction cap {MAX_DIMENSION}")


def hypercube(n: int) -> HlGraph:
    """The canonical n-cube: identity matchings at every level, so labels are
    binary codes and u ~ v iff popcount(u xor v) == 1."""
    _check_dimension(n)
    t: Trace = LEAF
    for k in range(1, n + 1):
        t = Node(t, t, identity_matching(1 << (k - 1)))
    return from_trace(t, f"Q{n}")


# -- seeded random members ---------------------------------------------------
#
# Reproducibility contract: the matching at each internal node is produced by
# a Fisher-Yates shuffle driven by splitmix64, seeded with
#     seed XOR fnv1a64(path)
# where `path` is the node's root path ("" for the root, then "0"/"1"
# appended for each left/right descent) and fnv1a64 is the 64-bit FNV-1a hash
# of its ASCII bytes. Fisher-Yates runs i = size-1 .. 1 with
# j = next_u64() % (i + 1). Identical (n, seed) gives an identical edge set
# on any implementation.

_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    h = 0xCBF29CE484222325
    for byte in text.encode("ascii"):
        h ^= byte
        h = (h * 0x100000001B3) & MASK64
    return h


def _random_sigma(size: int, seed: int, path: str) -> tuple[int, ...]:
    rng = SplitMix64(seed ^ fnv1a64(path))
    sigma = list(range(size))
    for i in range(size - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        sigma[i], sigma[j] = sigma[j], sigma[i]
    return tuple(sigma)


def _random_trace(k: int, seed: int, path: str) -> Trace:
    if k == 0:
        return LEAF
    return Node(_random_trace(k - 1, seed, path + "0"),
                _random_trace(k - 1, seed, path + "1"),
                _random_sigma(1 << (k - 1), seed, path))


def random_hl(n: int, seed: int) -> HlGraph:
    """A uniformly sampled member of the dimension-n family, deterministic in
    (n, seed); see the reproducibility contract above."""
    _check_dimension(n)
    seed &= MASK64
    t = _random_trace(n, seed, "")
    return from_trace(t, f"HL{n}[seed={seed}]")


# -- embedded blocks ----------------------------------------------------------

def block_vertices(hl: HlGraph, h: int) -> int:
    """Vertex mask of the leftmost depth-(n-h) block; its induced subgraph is
    the member realized by the trace's left-descendant at that depth."""
    if not 0 <= h <= hl.n:
        raise UsageError(f"block level {h} outside 0..{hl.n}")
    return mask_of(hl.relabel[i] for i in range(1 << h))


# -- the figure fixture -------------------------------------------------------
#
# Vertex map: a1..a4, b1..b4, c1..c4, d1..d4 -> 0..15 in that order. The four
# squares are 4-cycles; each {a,c} / {b,d} pair of squares is joined by a
# perfect matching (an HL_3 member); the remaining eight edges form the
# top-level matching between those two halves.
#
# This copy has a level-2 vertex cut: deleting {0,3,4,7,8,11,12,15} leaves
# the disjoint 4-cycles 1-2-9-10 and 5-6-13-14. The repo holds only the
# paper's abstract, so whether these edges match the published figure
# cannot be checked here.

FIG1_EDGES: tuple[tuple[int, int], ...] = (
    # squares
    (0, 1), (1, 2), (2, 3), (0, 3),
    (4, 5), (5, 6), (6, 7), (4, 7),
    (8, 9), (9, 10), (10, 11), (8, 11),
    (12, 13), (13, 14), (14, 15), (12, 15),
    # cross edges inside the halves
    (3, 8), (2, 9), (7, 12), (6, 13),
    (0, 11), (1, 10), (4, 15), (5, 14),
    # top-level matching
    (1, 4), (2, 7), (9, 12), (10, 15),
    (3, 5), (6, 8), (11, 13), (0, 14),
)


def _fig1_trace() -> Node:
    pair = Node(LEAF, LEAF, (0,))
    square = Node(pair, pair, (1, 0))
    half = Node(square, square, (3, 2, 1, 0))
    return Node(half, half, (6, 0, 3, 1, 2, 4, 7, 5))


FIG1_TRACE = _fig1_trace()

# canonical trace label -> figure label (the halves {a*,c*} / {b*,d*} are not
# contiguous in the published numbering)
FIG1_RELABEL: tuple[int, ...] = (0, 1, 2, 3, 8, 9, 10, 11, 4, 5, 6, 7, 12, 13, 14, 15)


def fig1_graph() -> HlGraph:
    """The fixed 16-vertex, 32-edge, 4-regular member drawn in the figure."""
    g = Graph(16, FIG1_EDGES)
    return HlGraph(g, FIG1_TRACE, 4, FIG1_RELABEL, "fig1")


# -- trace text format --------------------------------------------------------
#
# {"leaf":true} or {"left":...,"right":...,"sigma":[...]}, compact JSON, one
# line, newline-terminated. Writing is canonical so round trips are
# byte-exact.

def _trace_payload(t: Trace):
    if isinstance(t, Leaf):
        return {"leaf": True}
    return {"left": _trace_payload(t.left),
            "right": _trace_payload(t.right),
            "sigma": list(t.sigma)}


def trace_to_text(t: Trace) -> str:
    return json.dumps(_trace_payload(t), separators=(",", ":")) + "\n"


def _trace_from_obj(obj, path: str) -> Trace:
    if len(path) > MAX_DIMENSION:  # bounds the recursion below
        raise TraceError(
            f"trace depth exceeds the construction cap {MAX_DIMENSION}", path)
    if not isinstance(obj, dict):
        raise TraceError("not an object", path)
    if set(obj) == {"leaf"}:
        if obj["leaf"] is not True:
            raise TraceError("leaf marker must be true", path)
        return LEAF
    if set(obj) != {"left", "right", "sigma"}:
        raise TraceError(f"has keys {sorted(obj)}", path)
    sigma = obj["sigma"]
    if (not isinstance(sigma, list)
            or any(not isinstance(x, int) or isinstance(x, bool) for x in sigma)):
        raise TraceError("sigma must be a list of integers", path)
    return Node(_trace_from_obj(obj["left"], path + "0"),
                _trace_from_obj(obj["right"], path + "1"),
                tuple(sigma))


def trace_from_text(text: str) -> Trace:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"trace text is not valid JSON: {exc}") from exc
    except RecursionError:
        raise UsageError("trace text nests deeper than any realizable "
                         "trace") from None
    return _trace_from_obj(obj, "")


def write_trace(path, t: Trace) -> None:
    write_text(path, trace_to_text(t))


def read_trace(path) -> Trace:
    return trace_from_text(read_text(path))
