"""Shared structured-text report format.

One report per line, compact JSON with a fixed key order, newline-terminated,
vertex sets as ascending vertex lists and edges as ascending [u, v] pairs.
Volatile run statistics (method, nodes examined) are deliberately
not part of the file format so that reports are byte-identical across solver
methods; they stay on the in-memory objects.
"""

from __future__ import annotations

import json

from .cuts import CutReport, Nonexistent
from .errors import UsageError
from .kappa import KappaReport
from .lemmas import LemmaVerdict


def _vertex_list(mask: int | None) -> list[int] | None:
    if mask is None:
        return None
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def report_payload(obj) -> dict:
    if isinstance(obj, CutReport):
        return {"report": "cut", "h": obj.h, "value": obj.value,
                "witness_cut": [list(e) for e in obj.witness_cut],
                "witness_side": _vertex_list(obj.witness_side)}
    if isinstance(obj, Nonexistent):
        return {"report": "cut", "h": obj.h, "value": None,
                "witness_cut": None, "witness_side": None}
    if isinstance(obj, LemmaVerdict):
        return {"report": "lemma", "lemma_id": obj.lemma_id,
                "graph_id": obj.graph_id, "h": obj.h, "holds": obj.holds,
                "counterexample": _vertex_list(obj.counterexample),
                "subsets_checked": obj.subsets_checked,
                "tight_witnesses": obj.tight_witnesses}
    if isinstance(obj, KappaReport):
        return {"report": "kappa", "h": obj.h,
                "outcome": "exists" if obj.exists else "nonexistent",
                "value": obj.value, "witness": _vertex_list(obj.witness),
                "subsets_checked": obj.subsets_checked}
    raise TypeError(f"not a report object: {obj!r}")


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
