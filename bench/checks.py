"""Answer checks for every benchmark job, run outside every timed interval.

A job passes when its exit code is the expected one and its report file
holds a correct answer. A budgeted solve that exits 3 (search incomplete) is
an expiry: not a wrong answer, but not a solved job either.
"""

from __future__ import annotations

import json
from itertools import combinations

OK, EXPIRED = "ok", "expired"


def plain_adjacency(path) -> list[set[int]]:
    """Adjacency sets from a graph file, parsed without the package."""
    with open(path) as fh:
        order = int(fh.readline().split()[0])
        adj = [set() for _ in range(order)]
        for line in fh:
            u, v = map(int, line.split())
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _connected(adj: list[set[int]], vertices: set[int]) -> bool:
    start = next(iter(vertices))
    seen = {start}
    todo = [start]
    while todo:
        for w in adj[todo.pop()] & vertices:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(vertices)


def reference_kappa(adj: list[set[int]], h: int) -> int | None:
    """Size of the smallest vertex set whose removal disconnects the graph
    and leaves every survivor at least h neighbours; None when no such set
    exists. A plain scan over itertools combinations by ascending size."""
    everyone = set(range(len(adj)))
    for size in range(len(adj) - 1):
        for removed in combinations(everyone, size):
            rest = everyone.difference(removed)
            if (all(len(adj[v] & rest) >= h for v in rest)
                    and not _connected(adj, rest)):
                return size
    return None


def _reports(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


class Checker:
    """Checks job outcomes against the closed form, the package's own cut
    predicates and the plain reference scan above."""

    def __init__(self, hlcut):
        self.hlcut = hlcut
        self._graphs = {}
        self._kappa = {}

    def _graph(self, path):
        if path not in self._graphs:
            self._graphs[path] = self.hlcut.read_graph(path)
        return self._graphs[path]

    def check(self, job, code) -> str:
        if not isinstance(code, int):
            return f"raised {code}"
        try:
            return getattr(self, job.command)(job, code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"

    def solve(self, job, code) -> str:
        if code == 3:
            return EXPIRED
        if code != 0:
            return f"exit {code}"
        (report,) = _reports(job.out)
        n, h = job.member.n, job.h
        value = report["value"]
        if value != (1 << h) * (n - h):
            return f"value {value} is not 2^h(n-h)"
        cut = [tuple(e) for e in report["witness_cut"]]
        if len(cut) != value:
            return f"witness has {len(cut)} edges, value is {value}"
        if not self.hlcut.is_h_edge_cut(self._graph(job.member.graph), cut, h):
            return "witness is not an h-edge-cut"
        return OK

    def verify(self, job, code) -> str:
        if code != 0:
            return f"exit {code}"
        verdicts = _reports(job.out)
        levels = job.member.n + 1 if job.lemma == "3.2" else job.member.n
        if [v["h"] for v in verdicts] != list(range(levels)):
            return f"verdict levels {[v['h'] for v in verdicts]}"
        failing = [v["h"] for v in verdicts if v["holds"] is not True]
        return f"fails at h={failing}" if failing else OK

    def kappa(self, job, code) -> str:
        if code != 0:
            return f"exit {code}"
        (report,) = _reports(job.out)
        # the reference decides fig1 h=2 too: a cut of size 8 exists there
        expected = self.reference(job.member.graph, job.h)
        exists = report["outcome"] == "exists"
        if exists != (expected is not None) or report["value"] != expected:
            return (f"{report['outcome']} value {report['value']}, "
                    f"reference {expected}")
        if exists:
            witness = report["witness"]
            mask = sum(1 << v for v in witness)
            if len(witness) != expected or not self.hlcut.is_h_vertex_cut(
                    self._graph(job.member.graph), mask, job.h):
                return "witness is not an h-vertex-cut of the reported size"
        return OK

    def reference(self, path, h) -> int | None:
        if (path, h) not in self._kappa:
            self._kappa[path, h] = reference_kappa(plain_adjacency(path), h)
        return self._kappa[path, h]
