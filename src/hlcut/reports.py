"""Shared structured-text report format.

One report per line, compact JSON with a fixed key order, newline-terminated,
vertex sets as ascending vertex lists and edges as ascending [u, v] pairs.
Reports do not depend on how a search prunes: a cut report carries no node
count (that stays on `CutReport.subsets_examined`), and a T3.8 verdict
counts the anchored bipartitions that a complete search decides.
"""

from __future__ import annotations

import json

from .errors import UsageError
from .graph import vertex_list
from .kappa import KappaReport
from .lemmas import LemmaVerdict


def report_payload(obj) -> dict:
    """The wire form of a LemmaVerdict, a KappaReport or a CutReport."""
    if isinstance(obj, LemmaVerdict):
        return {"report": "lemma", "lemma_id": obj.lemma_id,
                "graph_id": obj.graph_id, "h": obj.h, "holds": obj.holds,
                "counterexample": vertex_list(obj.counterexample),
                "subsets_checked": obj.subsets_checked,
                "tight_witnesses": obj.tight_witnesses}
    if isinstance(obj, KappaReport):
        return {"report": "kappa", "h": obj.h,
                "outcome": "exists" if obj.exists else "nonexistent",
                "value": obj.value, "witness": vertex_list(obj.witness),
                "subsets_checked": obj.subsets_checked}
    cut = obj.witness_cut
    return {"report": "cut", "h": obj.h, "value": obj.value,
            "witness_cut": None if cut is None else [list(e) for e in cut],
            "witness_side": vertex_list(obj.witness_side)}


def dumps_report(obj) -> str:
    return json.dumps(report_payload(obj), separators=(",", ":")) + "\n"


_REQUIRED_KEYS = {
    "cut": ("report", "h", "value", "witness_cut", "witness_side"),
    "lemma": ("report", "lemma_id", "graph_id", "h", "holds",
              "counterexample", "subsets_checked", "tight_witnesses"),
    "kappa": ("report", "h", "outcome", "value", "witness", "subsets_checked"),
}


def parse_report(line: str) -> dict:
    """Parse and validate one serialized report line; returns the payload
    dict (re-serializing it reproduces the canonical bytes)."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise UsageError(f"report line is not valid JSON: {exc}") from exc
    except RecursionError:
        raise UsageError("report line nests deeper than any report") from None
    if not isinstance(obj, dict) or "report" not in obj:
        raise UsageError("report line lacks a 'report' discriminator")
    kind = obj["report"]
    if not isinstance(kind, str) or kind not in _REQUIRED_KEYS:
        raise UsageError(f"unknown report kind {kind!r}")
    if tuple(obj.keys()) != _REQUIRED_KEYS[kind]:
        raise UsageError(
            f"report keys {list(obj)} do not match the {kind} schema")
    return obj


def parse_report_lines(text: str) -> list[dict]:
    return [parse_report(line) for line in text.splitlines() if line]


def write_reports(path, reports) -> None:
    with open(path, "w", newline="\n") as fh:
        for r in reports:
            fh.write(dumps_report(r))
