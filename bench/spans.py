"""Spans recorded from outside the program, and the per-layer figures derived
from them.

The tracer wraps the public functions that `hlcut.cli` and `hlcut.lemmas`
call by module-level name, so no file under `src/` changes. Each span keeps
its name, start, end, parent and job id, plus the counts the call returned.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time

# Names looked up at call time in hlcut.cli and hlcut.lemmas. The lemma
# checks are also reached through cli._LEMMA_CHECKS, a table built at import.
CLI_NAMES = ("read_graph", "write_graph", "read_trace", "from_trace",
             "write_trace", "hypercube", "random_hl", "fig1_graph",
             "lambda_sh_exact", "check_lemma_32", "check_lemma_35",
             "check_lemma_37", "check_theorem", "kappa_sh_exact",
             "write_reports")
LEMMAS_NAMES = ("lambda_sh_exact",)

JOB = "cli.main"
LEMMA_SCANS = ("check_lemma_32", "check_lemma_35", "check_lemma_37")
GENERATE = ("hypercube", "random_hl", "fig1_graph", "write_trace")


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "info")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.job = job
        self.info = {}

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "job": self.job,
                **self.info}


def _note(name: str, args, kwargs, result, exc) -> dict:
    """Counts a call hands back: search nodes, subsets, outcome, bytes."""
    if name == "lambda_sh_exact":
        method = kwargs.get("method", args[2] if len(args) > 2 else "exhaustive")
        source = exc if exc is not None else result
        return {"method": method,
                "nodes": getattr(source, "subsets_examined", None),
                "complete": exc is None}
    if exc is not None:
        return {}
    if name in LEMMA_SCANS:
        return {"subsets": result.subsets_checked}
    if name == "kappa_sh_exact":
        return {"subsets": result.subsets_checked, "exists": result.exists}
    if name == "write_reports":
        return {"bytes": os.path.getsize(args[0])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.job = None

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.job))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, info: dict | None = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        if info:
            span.info.update(info)
        self._open.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end(index, _note(name, args, kwargs, None, exc))
                raise
            except BaseException:
                self.end(index)
                raise
            self.end(index, _note(name, args, kwargs, result, None))
            return result
        return traced

    def install(self, cli, lemmas) -> None:
        """Wrap the module-level names; uninstall() puts the originals back."""
        for module, names in ((cli, CLI_NAMES), (lemmas, LEMMAS_NAMES)):
            for attr in names:
                self._patch(module, attr, self.wrap(attr, getattr(module, attr)))
        table = dict(cli._LEMMA_CHECKS)
        for key, (checker, slack) in table.items():
            if checker is not None:
                table[key] = (getattr(cli, checker.__name__), slack)
        self._patch(cli, "_LEMMA_CHECKS", table)

    def _patch(self, module, attr, value) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(span.as_dict(i)) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its children cover. Calls run one
    at a time, so children never overlap and their durations add up."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def sweep_figures(spans: list[Span], own: list[float]) -> dict[str, float]:
    """Per-layer figures of one sweep, from that sweep's spans."""
    f = dict.fromkeys((
        "cuts.bnb_s", "cuts.bnb_nodes", "cuts.bnb_incomplete",
        "cuts.exhaustive_s", "cuts.exhaustive_nodes", "lemmas.scan_s",
        "lemmas.subsets", "lemmas.theorem_self_s", "kappa.exists_s",
        "kappa.exists_subsets", "kappa.nonexistent_s",
        "kappa.nonexistent_subsets", "build.trace_read_s", "graph.read_s",
        "reports.write_s", "reports.bytes", "cli.self_s"), 0)
    bnb_examined = 0
    for s, t in zip(spans, own):
        info = s.info
        if s.name == "lambda_sh_exact":
            kind = "bnb" if info["method"] == "branch-and-bound" else "exhaustive"
            f[f"cuts.{kind}_s"] += t
            if info["complete"]:
                f[f"cuts.{kind}_nodes"] += info["nodes"]
            elif kind == "bnb":
                f["cuts.bnb_incomplete"] += 1
            if kind == "bnb" and info["nodes"] is not None:
                bnb_examined += info["nodes"]
        elif s.name in LEMMA_SCANS:
            f["lemmas.scan_s"] += t
            f["lemmas.subsets"] += info.get("subsets", 0)
        elif s.name == "check_theorem":
            f["lemmas.theorem_self_s"] += t
        elif s.name == "kappa_sh_exact":
            kind = "exists" if info.get("exists") else "nonexistent"
            f[f"kappa.{kind}_s"] += t
            f[f"kappa.{kind}_subsets"] += info.get("subsets", 0)
        elif s.name in ("read_trace", "from_trace"):
            f["build.trace_read_s"] += t
        elif s.name == "read_graph":
            f["graph.read_s"] += t
        elif s.name == "write_reports":
            f["reports.write_s"] += t
            f["reports.bytes"] += info.get("bytes", 0)
        elif s.name == JOB:
            f["cli.self_s"] += t
    # expired searches count their nodes too: the rate is the engine's speed
    f["cuts.bnb_nodes_per_s"] = _per_s(bnb_examined, f["cuts.bnb_s"])
    f["cuts.exhaustive_nodes_per_s"] = _per_s(f["cuts.exhaustive_nodes"],
                                              f["cuts.exhaustive_s"])
    f["lemmas.subsets_per_s"] = _per_s(f["lemmas.subsets"], f["lemmas.scan_s"])
    f["kappa.subsets_per_s"] = _per_s(
        f["kappa.exists_subsets"] + f["kappa.nonexistent_subsets"],
        f["kappa.exists_s"] + f["kappa.nonexistent_s"])
    return f


def setup_figures(spans: list[Span], own: list[float]) -> dict[str, float]:
    """Per-layer figures of one set-up: building members and writing them."""
    f = {"build.generate_s": 0.0, "graph.write_s": 0.0}
    for s, t in zip(spans, own):
        if s.name in GENERATE:
            f["build.generate_s"] += t
        elif s.name == "write_graph":
            f["graph.write_s"] += t
    return f


def medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def completed_counts(spans_of_sweep: list[Span]) -> dict[tuple, int]:
    """Node and subset counts of completed searches in one sweep, keyed by
    job and by the order of counting calls within the job."""
    out = {}
    calls: dict[int, int] = {}
    for s in spans_of_sweep:
        count = s.info.get("nodes", s.info.get("subsets"))
        if count is None:
            continue
        job = s.job[2]
        calls[job] = calls.get(job, 0) + 1
        if s.info.get("complete", True):
            out[job, calls[job]] = count
    return out
