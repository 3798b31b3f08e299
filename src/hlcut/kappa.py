"""Vertex analogue of the cut metric: does removing some vertex set
disconnect the graph while every survivor keeps degree >= h, and if so, how
few vertices suffice?

Existence is genuinely open in general, so the scan is complete and
size-major: subsets are tried by ascending size, ascending bitmask within a
size (so the first hit is automatically a minimum-size, lexicographically
smallest witness), and nonexistence is reported only after every size class
up to order-2 has been exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import UsageError
from .graph import Graph, check_gate, connected_within, keeps_degree


@dataclass(frozen=True)
class KappaReport:
    h: int
    exists: bool
    value: int | None       # witness size when exists
    witness: int | None     # vertex mask when exists
    subsets_checked: int


def subsets_of_size(order: int, k: int) -> Iterator[int]:
    """All k-subsets of 0..order-1 as masks, ascending (Gosper's hack)."""
    if k == 0:
        yield 0
        return
    if k > order:
        return
    m = (1 << k) - 1
    limit = 1 << order
    while m < limit:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


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


def kappa_sh_exact(g: Graph, h: int, override_gate: bool = False) -> KappaReport:
    """Complete size-major scan for the smallest disconnecting vertex set
    that leaves min degree >= h; existence is decided, never guessed."""
    if h < 0:
        raise UsageError(f"negative level {h}")
    check_gate(g.order, override_gate)
    adj = g.adj
    full = g.vertex_mask
    checked = 0
    for size in range(0, max(g.order - 1, 0)):
        for s in subsets_of_size(g.order, size):
            checked += 1
            rest = full ^ s
            if not keeps_degree(adj, rest, rest, h):
                continue
            if connected_within(adj, rest):
                continue
            return KappaReport(h, True, size, s, checked)
    return KappaReport(h, False, None, None, checked)
