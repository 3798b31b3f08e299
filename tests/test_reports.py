"""Shared report format: canonical serialization, one compact JSON object
per line. No package code reads reports back; the byte layout of every
report kind is pinned here and by `tests/golden/`."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from hlcut import (UsageError, check_lemma_32, dumps_report, graph_from_text,
                   kappa_sh_exact, lambda_sh_exact, report_payload,
                   trace_from_text)

from conftest import json_values


def test_cut_report_line(q3):
    line = dumps_report(lambda_sh_exact(q3.graph, 1))
    assert line == ('{"report":"cut","h":1,"value":4,'
                    '"witness_cut":[[0,1],[1,5],[2,3],[3,7]],'
                    '"witness_side":[1,3]}\n')


def test_nonexistent_cut_line(q2):
    line = dumps_report(lambda_sh_exact(q2.graph, 2))
    assert line == ('{"report":"cut","h":2,"value":null,'
                    '"witness_cut":null,"witness_side":null}\n')


def test_lemma_line_round_trips(q4):
    # a line is the compact JSON of the payload, keys in schema order
    verdict = check_lemma_32(q4, 2)
    line = dumps_report(verdict)
    payload = json.loads(line)
    assert payload == report_payload(verdict)
    assert list(payload) == ["report", "lemma_id", "graph_id", "h", "holds",
                             "counterexample", "subsets_checked",
                             "tight_witnesses"]
    assert payload["lemma_id"] == "L3.2"
    assert payload["holds"] is True
    assert json.dumps(payload, separators=(",", ":")) + "\n" == line


def test_kappa_line_round_trips(q2):
    line = dumps_report(kappa_sh_exact(q2.graph, 1))
    assert line == ('{"report":"kappa","h":1,"outcome":"nonexistent",'
                    '"value":null,"witness":null,"subsets_checked":11}\n')
    assert json.dumps(json.loads(line), separators=(",", ":")) + "\n" == line


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet="0123456789 -x\n")
       | json_values.map(json.dumps))
def test_parsers_return_or_raise_usage_error(text):
    for parse in (trace_from_text, graph_from_text):
        try:
            parse(text)
        except UsageError:
            pass


def test_volatile_fields_stay_out_of_the_wire_format(q3):
    a = lambda_sh_exact(q3.graph, 1)
    b = a._replace(subsets_examined=a.subsets_examined + 1000)
    assert a != b
    assert dumps_report(a) == dumps_report(b)
