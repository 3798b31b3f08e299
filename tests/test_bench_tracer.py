"""The names the benchmark tracer (`bench/spans.py`) wraps from outside the
package: a refactor that drops or renames one breaks `bench/run.py --trace 1`.
"""

from __future__ import annotations

from pathlib import Path

from hlcut import cli, hypercube, lemmas, write_trace
from hlcut.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_wraps_the_verify_path_and_puts_it_back(tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    trace = tmp_path / "q3.trace"
    write_trace(trace, hypercube(3).trace)
    check, table = cli.check_lemma_32, cli._LEMMA_CHECKS
    tracer = spans.Tracer()
    tracer.install(cli, lemmas)
    try:
        assert main(["verify", "--lemma", "3.2", "--trace", str(trace),
                     "--h", "1"]) == 0
        assert main(["verify", "--lemma", "thm", "--trace", str(trace),
                     "--h", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    recorded = {s.name: s for s in tracer.spans}
    for name in ("read_trace", "from_trace", "check_lemma_32",
                 "check_theorem", "lambda_sh_exact"):
        assert name in recorded, name
    assert recorded["check_lemma_32"].info == {"subsets": 255}
    assert cli.check_lemma_32 is check
    assert cli._LEMMA_CHECKS is table


def test_tracer_records_one_lemma_span_per_level(tmp_path, monkeypatch,
                                                 capsys):
    # `--h all` calls the check once per level, each deciding 2^8 - 1 subsets
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    trace = tmp_path / "q3.trace"
    write_trace(trace, hypercube(3).trace)
    tracer = spans.Tracer()
    tracer.install(cli, lemmas)
    try:
        assert main(["verify", "--lemma", "3.5", "--trace", str(trace),
                     "--h", "all"]) == 0
    finally:
        tracer.uninstall()
    assert len(capsys.readouterr().out.splitlines()) == 3  # h = 0, 1, 2
    scans = [s for s in tracer.spans if s.name == "check_lemma_35"]
    assert [s.info for s in scans] == [{"subsets": 255}] * 3
