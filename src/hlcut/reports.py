"""Shared structured-text report format.

One report per line, compact JSON with a fixed key order, newline-terminated,
vertex sets as ascending vertex lists and edges as ascending [u, v] pairs.
Reports do not depend on how a search prunes: a cut report carries no node
count (that stays on `CutReport.subsets_examined`), and a T3.8 verdict
counts the anchored bipartitions that a complete search decides.
"""

from __future__ import annotations

import json

from .graph import vertex_list, write_text
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


def write_reports(path, reports) -> None:
    write_text(path, "".join(map(dumps_report, reports)))
