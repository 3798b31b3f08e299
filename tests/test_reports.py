"""Shared report format: canonical serialization and lossless re-parsing."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcut import (UsageError, check_lemma_32, dumps_report, graph_from_text,
                   hypercube, kappa_sh_exact, lambda_sh_exact, parse_report,
                   parse_report_lines, trace_from_text)

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
    (verdict,) = check_lemma_32(q4, [2]).verdicts
    line = dumps_report(verdict)
    payload = parse_report(line)
    assert payload["lemma_id"] == "L3.2"
    assert payload["holds"] is True
    assert json.dumps(payload, separators=(",", ":")) + "\n" == line


def test_kappa_line_round_trips(q2):
    line = dumps_report(kappa_sh_exact(q2.graph, 1))
    payload = parse_report(line)
    assert payload["outcome"] == "nonexistent"
    assert payload["value"] is None


def test_parse_many_lines(q3):
    text = "".join(dumps_report(lambda_sh_exact(q3.graph, h)) for h in range(3))
    payloads = parse_report_lines(text)
    assert [p["h"] for p in payloads] == [0, 1, 2]
    assert [p["value"] for p in payloads] == [3, 4, 4]


@pytest.mark.parametrize("bad", [
    "not json\n",
    '{"h":1}\n',
    '{"report":"weird","h":1}\n',
    '{"report":"cut","h":1}\n',
    '{"report":[]}',
    '{"report":{}}',
    pytest.param("[" * 100_000, id="deep-nesting"),
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(UsageError):
        parse_report(bad)


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet="0123456789 -x\n")
       | json_values.map(json.dumps))
def test_parsers_return_or_raise_usage_error(text):
    for parse in (parse_report, trace_from_text, graph_from_text):
        try:
            parse(text)
        except UsageError:
            pass


def test_volatile_fields_stay_out_of_the_wire_format(q3):
    a = lambda_sh_exact(q3.graph, 1)
    b = dataclasses.replace(a, subsets_examined=a.subsets_examined + 1000)
    assert a != b
    assert dumps_report(a) == dumps_report(b)
