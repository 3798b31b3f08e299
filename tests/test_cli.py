"""Command-line front-end: subcommands, file formats, exit codes."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcut import (fig1_graph, graph_to_text, hypercube, is_h_edge_cut,
                   mask_of, random_hl, read_graph, read_trace, realize,
                   trace_to_text, write_graph)
from hlcut import cli, cuts, kappa, lemmas
from hlcut.cli import main
from hlcut.graph import MAX_ORDER, Graph

from conftest import (json_values, left_deep_trace_text, mutated,
                      relabelled, right_deep_trace_text)


def run(*argv):
    return main([str(a) for a in argv])


# -- generate ---------------------------------------------------------------------

def test_generate_hypercube(tmp_path, capsys):
    out = tmp_path / "q4.graph"
    trace = tmp_path / "q4.trace"
    assert run("generate", "--kind", "hypercube", "--n", 4,
               "--out", out, "--trace", trace) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "16 32"
    assert read_graph(out) == hypercube(4).graph
    assert realize(read_trace(trace)) == hypercube(4).graph


def test_generate_random_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.graph", tmp_path / "b.graph"
    ta, tb = tmp_path / "a.trace", tmp_path / "b.trace"
    for out, tr in ((a, ta), (b, tb)):
        assert run("generate", "--kind", "random", "--n", 4, "--seed", 7,
                   "--out", out, "--trace", tr) == 0
    assert a.read_bytes() == b.read_bytes()
    assert ta.read_bytes() == tb.read_bytes()
    assert read_graph(a) == random_hl(4, 7).graph


def test_generate_fig1_byte_exact(tmp_path):
    out = tmp_path / "fig1.graph"
    assert run("generate", "--kind", "fig1", "--out", out) == 0
    assert out.read_text() == graph_to_text(fig1_graph().graph)


def test_generate_round_trip_all_kinds(tmp_path):
    for n in range(0, 9):
        out = tmp_path / f"q{n}.graph"
        assert run("generate", "--kind", "hypercube", "--n", n, "--out", out) == 0
        assert read_graph(out) == hypercube(n).graph


@pytest.mark.parametrize("kind, n, seed, error", [
    ("hypercube", None, None, "--kind hypercube requires --n"),
    ("hypercube", None, 1, "--seed only applies to --kind random"),
    ("hypercube", 3, None, None),
    ("hypercube", 3, 1, "--seed only applies to --kind random"),
    ("hypercube", 4, None, None),
    ("hypercube", 4, 1, "--seed only applies to --kind random"),
    ("random", None, None, "--kind random requires --n"),
    ("random", None, 1, "--kind random requires --n"),
    ("random", 3, None, "requires an explicit --seed"),
    ("random", 3, 1, None),
    ("random", 4, None, "requires an explicit --seed"),
    ("random", 4, 1, None),
    ("fig1", None, None, None),
    ("fig1", None, 1, "--seed only applies to --kind random"),
    ("fig1", 3, None, "the figure fixture is 4-dimensional"),
    ("fig1", 3, 1, "--seed only applies to --kind random"),
    ("fig1", 4, None, None),
    ("fig1", 4, 1, "--seed only applies to --kind random"),
    ("hypercube", 99, None, "exceeds the construction cap"),
])
def test_generate_flag_rules(tmp_path, capsys, kind, n, seed, error):
    argv = ["generate", "--kind", kind, "--out", tmp_path / "x.graph"]
    if n is not None:
        argv += ["--n", n]
    if seed is not None:
        argv += ["--seed", seed]
    if error is None:
        assert run(*argv) == 0
    else:
        assert run(*argv) == 2
        assert error in capsys.readouterr().err


# -- solve -------------------------------------------------------------------------

@pytest.fixture()
def q4_file(tmp_path):
    path = tmp_path / "q4.graph"
    write_graph(path, hypercube(4).graph)
    return path


def test_solve_all_levels_expect_formula(q4_file, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code = run("solve", "--graph", q4_file, "--h", "all",
               "--expect-theorem", "--out", out)
    assert code == 0
    table = capsys.readouterr().out.splitlines()
    rows = [ln.split() for ln in table[1:]]
    assert [(r[0], r[1], r[2], r[3]) for r in rows] == [
        ("0", "4", "4", "yes"), ("1", "6", "6", "yes"),
        ("2", "8", "8", "yes"), ("3", "8", "8", "yes")]
    payloads = [json.loads(line) for line in out.read_text().splitlines()]
    assert [p["value"] for p in payloads] == [4, 6, 8, 8]


def test_solve_single_level(tmp_path, capsys):
    path = tmp_path / "q3.graph"
    write_graph(path, hypercube(3).graph)
    assert run("solve", "--graph", path, "--h", 1) == 0
    assert "4" in capsys.readouterr().out


def test_solve_square_level2_nonexistent(tmp_path, capsys):
    path = tmp_path / "c4.graph"
    write_graph(path, hypercube(2).graph)
    assert run("solve", "--graph", path, "--h", 2) == 0
    assert "nonexistent" in capsys.readouterr().out


def test_solve_mismatch_exits_nonzero(tmp_path):
    # 3-regular on 8 vertices but with a 2-edge bond: two K4-minus-an-edge
    # blocks bridged on their degree-2 vertices, so the level-0 value is 2,
    # not 3
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
             (0, 4), (1, 5)]
    path = tmp_path / "bond.graph"
    write_graph(path, Graph(8, edges))
    assert run("solve", "--graph", path, "--h", 0, "--expect-theorem") == 1
    assert run("solve", "--graph", path, "--h", 0) == 0


@pytest.mark.parametrize("graph, h, error", [
    # a path on 4 = 2^2 vertices is not 2-regular, so it has no dimension
    (Graph(4, [(0, 1), (1, 2), (2, 3)]), 0, "needs a 2^n-vertex n-regular"),
    (hypercube(4).graph, 4, "needs h < 4")], ids=["non-member", "h=n"])
def test_expect_theorem_refusals(tmp_path, capsys, graph, h, error):
    path = tmp_path / "g.graph"
    write_graph(path, graph)
    assert run("solve", "--graph", path, "--h", h, "--expect-theorem") == 2
    captured = capsys.readouterr()
    assert error in captured.err and captured.out == ""


def test_solve_reports_identical_across_methods_and_threads(q4_file, tmp_path):
    # --method names the one search, and the default is the same search
    blobs = set()
    for flags in ((), ("--method", "branch-and-bound")):
        out = tmp_path / f"r-{len(flags)}.jsonl"
        assert run("solve", "--graph", q4_file, "--h", "all", *flags,
                   "--out", out) == 0
        blobs.add(out.read_bytes())
    assert len(blobs) == 1
    # the exhaustive scan is gone, and the search is single-threaded
    for flags in (("--method", "exhaustive"), ("--threads", 2)):
        with pytest.raises(SystemExit) as err:
            run("solve", "--graph", q4_file, "--h", "all", *flags)
        assert err.value.code == 2


def test_solve_takes_the_bnb_sweep_argv(q4_file, tmp_path, capsys):
    # bench/run.py's bnb-sweep job shape: the last two no-op flags of their
    # kind change neither the table nor the report bytes
    plain, swept = tmp_path / "plain.jsonl", tmp_path / "swept.jsonl"
    assert run("solve", "--graph", q4_file, "--h", 2, "--out", plain) == 0
    expected = capsys.readouterr().out
    assert run("solve", "--graph", q4_file, "--h", 2,
               "--method", "branch-and-bound", "--budget", 2.5,
               "--expect-theorem", "--out", swept, "--override-gate") == 0
    assert capsys.readouterr().out == expected
    assert swept.read_bytes() == plain.read_bytes()


def test_solve_usage_errors(tmp_path):
    assert run("solve", "--graph", tmp_path / "missing.graph", "--h", 1) == 2
    bad = tmp_path / "bad.graph"
    bad.write_text("junk\n")
    assert run("solve", "--graph", bad, "--h", 1) == 2
    ring = tmp_path / "ring.graph"
    write_graph(ring, Graph(6, [(i, (i + 1) % 6) for i in range(6)]))
    assert run("solve", "--graph", ring, "--h", "all") == 2  # not 2^n-regular
    q3 = tmp_path / "q3.graph"
    write_graph(q3, hypercube(3).graph)
    assert run("solve", "--graph", q3, "--h", "x") == 2


@pytest.mark.parametrize("order", [MAX_ORDER + 1, 99999999999999999999])
def test_solve_oversized_header_is_a_usage_error(tmp_path, order):
    path = tmp_path / "big.graph"
    path.write_text(f"{order} 0\n")
    assert run("solve", "--graph", path, "--h", 0) == 2


def test_solve_budget_exhaustion_exit_code(tmp_path):
    path = tmp_path / "hl7.graph"
    # random_hl(7, 1) with its labels shuffled has no induction table, so
    # h=3 searches the whole graph, far past the 0.02 s budget; the first
    # deadline check comes at node 4096
    write_graph(path, relabelled(random_hl(7, 1).graph, 8))
    assert run("solve", "--graph", path, "--h", 3, "--budget", 0.02) == 3


def test_solve_interrupt_exits_3_with_the_incumbent(tmp_path, capsys,
                                                     monkeypatch):
    # Ctrl-C during level 2, after levels 0 and 1 have finished
    augment = cuts._augment

    def interrupt_at_level_two(adj, res, y, value, limit, *rest):
        if limit == 12 + 1:  # the search of level 2
            raise KeyboardInterrupt
        return augment(adj, res, y, value, limit, *rest)

    monkeypatch.setattr(cuts, "_augment", interrupt_at_level_two)
    path = tmp_path / "q5.graph"
    out = tmp_path / "reports.jsonl"
    g = hypercube(5).graph
    write_graph(path, g)
    assert run("solve", "--graph", path, "--h", "all", "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "h   value         formula   match",
        "0   5             5         yes",
        "1   8             8         yes"]
    found = re.search(r"search interrupted \(h=2, best incumbent so far: "
                      r"(\d+), side=(\[[\d, ]*\])", captured.err)
    assert found
    value, side = int(found[1]), mask_of(json.loads(found[2]))
    assert value == len(g.edge_boundary(side)) == 12
    assert is_h_edge_cut(g, g.edge_boundary(side), 2)
    assert not out.exists()


def _interrupted_after(calls, real):
    """`real`, whose call after the first `calls` raises KeyboardInterrupt
    before it starts, as a Ctrl-C mid-scan would."""
    made = []

    def interrupting(*args):
        made.append(args)
        if len(made) > calls:
            raise KeyboardInterrupt
        return real(*args)
    return interrupting


def test_solve_interrupt_exits_3_and_keeps_the_rows(tmp_path, capsys,
                                                    monkeypatch):
    # Ctrl-C at the first forced-move step of level 2, after levels 0 and 1
    # have finished
    force = cuts._force

    def interrupt_at_level_two(adj, x, y, cut, limit, h, check):
        if h == 2:
            raise KeyboardInterrupt
        return force(adj, x, y, cut, limit, h, check)

    monkeypatch.setattr(cuts, "_force", interrupt_at_level_two)
    path = tmp_path / "q3.graph"
    out = tmp_path / "reports.jsonl"
    write_graph(path, hypercube(3).graph)
    assert run("solve", "--graph", path, "--h", "all", "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "h   value         formula   match",
        "0   3             3         yes",
        "1   4             4         yes"]
    assert captured.err.startswith("incomplete: search interrupted (h=2")
    assert not out.exists()


@pytest.mark.parametrize("lemma", ["3.2", "3.5", "3.7"])
def test_verify_lemma_interrupt_exits_3(q4_trace, tmp_path, capsys,
                                        monkeypatch, lemma):
    # Ctrl-C as the first level's census starts
    monkeypatch.setattr(lemmas, "_census",
                        _interrupted_after(0, lemmas._census))
    out = tmp_path / "verdicts.jsonl"
    assert run("verify", "--lemma", lemma, "--trace", q4_trace, "--h", "all",
               "--out", out) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "incomplete: interrupted\n")
    assert not out.exists()


@pytest.mark.parametrize("lemma,tight", [("3.2", (16, 32)),
                                         ("3.5", (16, 32)),
                                         ("3.7", (32, 64))])
def test_verify_lemma_interrupt_keeps_the_rows(q4_trace, tmp_path, capsys,
                                              monkeypatch, lemma, tight):
    # Ctrl-C as the level-2 census starts, after levels 0 and 1 have
    # finished
    monkeypatch.setattr(lemmas, "_census",
                        _interrupted_after(2, lemmas._census))
    out = tmp_path / "verdicts.jsonl"
    assert run("verify", "--lemma", lemma, "--trace", q4_trace, "--h", "all",
               "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"L{lemma}  {q4_trace}  h={h}: holds (subsets=65535, tight={t})"
        for h, t in enumerate(tight)]
    assert captured.err == "incomplete: interrupted\n"
    assert not out.exists()


def test_kappa_interrupt_exits_3(tmp_path, capsys, monkeypatch):
    # Ctrl-C at the 5th of the 8 h-core peels of the level-2 search
    monkeypatch.setattr(kappa, "_core", _interrupted_after(4, kappa._core))
    path = tmp_path / "fig1.graph"
    out = tmp_path / "kappa.jsonl"
    write_graph(path, fig1_graph().graph)
    assert run("kappa", "--graph", path, "--h", 2, "--out", out) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "incomplete: interrupted\n")
    assert not out.exists()


def test_solve_expiry_keeps_the_rows_of_finished_levels(tmp_path, capsys):
    path = tmp_path / "hl7.graph"
    out = tmp_path / "reports.jsonl"
    # random_hl(7, 1) with its labels shuffled has no induction table: h=0
    # and h=1 search the whole graph in 255 and 8 653 nodes, about 0.11 s,
    # well within the 1 s budget of each level; h=2 needs 465 974 nodes and
    # expires at the first deadline check past 1 s
    write_graph(path, relabelled(random_hl(7, 1).graph, 8))
    assert run("solve", "--graph", path, "--h", "all", "--budget", 1,
               "--out", out) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "h   value         formula   match",
        "0   7             7         yes",
        "1   12            12        yes"]
    assert "incomplete: " in captured.err and "h=2" in captured.err
    assert not out.exists()  # --out is all or nothing


def test_solve_takes_any_order_without_flags(tmp_path, capsys):
    path = tmp_path / "q6.graph"
    write_graph(path, hypercube(6).graph)
    assert run("solve", "--graph", path, "--h", 0) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == \
        ["0", "6", "6", "yes"]


@pytest.mark.parametrize("budget", ["nan", "-5"])
def test_solve_rejects_a_bad_budget(tmp_path, capsys, budget):
    path = tmp_path / "q6.graph"
    write_graph(path, hypercube(6).graph)
    assert run("solve", "--graph", path, "--h", "all", "--budget", budget) == 2
    assert "budget" in capsys.readouterr().err


def test_internal_error_exits_4(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "lambda_sh_exact", broken)
    path = tmp_path / "q3.graph"
    write_graph(path, hypercube(3).graph)
    assert run("solve", "--graph", path, "--h", 1) == 4
    err = capsys.readouterr().err
    assert "internal error: RuntimeError: boom" in err


@pytest.mark.parametrize("command, flag", [
    ("solve", "--graph"), ("kappa", "--graph"), ("verify", "--trace")])
def test_non_ascii_input_is_a_usage_error(tmp_path, capsys, command, flag):
    # both file formats are ASCII; a UTF-16 byte-order mark is bad input,
    # not a bug
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xff\xfe1 0\n")
    extra = ("--lemma", "3.2") if command == "verify" else ()
    assert run(command, flag, path, "--h", 0, *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not ASCII" in err
    assert "Traceback" not in err


# -- verify ------------------------------------------------------------------------

@pytest.fixture()
def q4_trace(tmp_path):
    path = tmp_path / "q4.trace"
    assert run("generate", "--kind", "hypercube", "--n", 4,
               "--out", tmp_path / "q4.graph", "--trace", path) == 0
    return path


def test_verify_size_bound(q4_trace, capsys):
    assert run("verify", "--lemma", "3.2", "--trace", q4_trace, "--h", 2) == 0
    assert "holds" in capsys.readouterr().out


def test_verify_equality_all_levels_fig1(tmp_path, capsys):
    trace = tmp_path / "fig1.trace"
    assert run("generate", "--kind", "fig1", "--out", tmp_path / "f.graph",
               "--trace", trace) == 0
    assert run("verify", "--lemma", "thm", "--trace", trace, "--h", "all") == 0
    out = capsys.readouterr().out
    assert out.count("holds") == 4


@pytest.mark.parametrize("lemma", ["3.2", "3.5", "3.7", "thm"])
@pytest.mark.parametrize("flag", [
    ("--budget", "30"), ("--budget", "nan"), ("--budget", "-5"),
    ("--method", "branch-and-bound")],
    ids=["budget=30", "budget=nan", "budget=-5", "method"])
def test_verify_takes_no_search_flags(q4_trace, capsys, lemma, flag):
    # a valid budget is refused as well as an invalid one: the lemma scans
    # have no deadline, and every trace realizes in the labels where the
    # theorem's search stops at its first leaf, before it reads one
    with pytest.raises(SystemExit) as err:
        run("verify", "--lemma", lemma, "--trace", q4_trace, "--h", 1, *flag)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err
    assert captured.out == ""


def test_verify_failing_verdict_exits_1_with_the_counterexample(
        q4_trace, tmp_path, capsys, monkeypatch):
    def failing(hl, h):
        return lemmas.LemmaVerdict(lemmas.LEMMA_32, hl.label, h, False,
                                   0b11, 7, 0)

    monkeypatch.setitem(cli._LEMMA_CHECKS, "3.2", (failing, 0))
    out = tmp_path / "verdicts.jsonl"
    assert run("verify", "--lemma", "3.2", "--trace", q4_trace, "--h", 1,
               "--out", out) == 1
    assert "h=1: FAILS (subsets=7, tight=0) counterexample=[0, 1]" \
        in capsys.readouterr().out
    assert json.loads(out.read_text())["counterexample"] == [0, 1]


def test_verify_lemma_runs_past_order_32(tmp_path, capsys):
    # the lemma checks read the induction table, so no subset-scan cap
    # applies: Q6 has order 64
    trace = tmp_path / "q6.trace"
    assert run("generate", "--kind", "hypercube", "--n", 6,
               "--out", tmp_path / "q6.graph", "--trace", trace) == 0
    capsys.readouterr()
    assert run("verify", "--lemma", "3.7", "--trace", trace, "--h",
               "all") == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        f"L3.7  {trace}  h={h}: holds (subsets={2 ** 64 - 1}, tight={t})"
        for h, t in enumerate([128, 384, 480, 320, 132, 12])]
    assert captured.err == ""


@pytest.mark.parametrize("command", ["verify", "kappa"])
def test_scans_take_no_override_flag(q4_trace, fig1_file, command):
    # only solve still accepts --override-gate, a no-op kept for bnb-sweep
    argv = {"verify": ("verify", "--lemma", "3.2", "--trace", q4_trace),
            "kappa": ("kappa", "--graph", fig1_file)}[command]
    with pytest.raises(SystemExit) as err:
        run(*argv, "--h", 0, "--override-gate")
    assert err.value.code == 2


@pytest.mark.parametrize("lemma", ["3.2", "3.5", "3.7"])
def test_verify_lemma_reads_one_census_per_level(q4_trace, capsys,
                                                 monkeypatch, lemma):
    # every level reports all 65 535 subsets decided, from one census of
    # the table's tight sets at that level and no subset search
    levels = []
    real = lemmas._census

    def counting(adj, n, row, h):
        levels.append(h)
        return real(adj, n, row, h)

    monkeypatch.setattr(lemmas, "_census", counting)
    assert run("verify", "--lemma", lemma, "--trace", q4_trace, "--h",
               "all") == 0
    rows = capsys.readouterr().out.splitlines()
    assert levels == list(range(5 if lemma == "3.2" else 4))
    assert len(rows) == len(levels)
    assert all("holds (subsets=65535," in row for row in rows)


@pytest.mark.parametrize("command", ["solve", "verify", "kappa"])
def test_negative_level_is_refused_before_any_output(q4_file, q4_trace,
                                                     tmp_path, capsys,
                                                     command):
    # `--h` parsing leaves the range to the solvers and checkers, which
    # refuse a negative level before a row or a report is written
    out = tmp_path / "out.jsonl"
    source = ("--trace", q4_trace) if command == "verify" \
        else ("--graph", q4_file)
    lemma = ("--lemma", "3.2") if command == "verify" else ()
    assert run(command, *lemma, *source, "--h", -1, "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "level -1" in captured.err
    assert not out.exists()


def test_parser_state_does_not_carry_between_calls(q4_trace, tmp_path,
                                                   capsys):
    # one parser serves every call in a process; a flag given once must not
    # reach a later call that omits it
    out = tmp_path / "thm.jsonl"
    assert run("verify", "--lemma", "thm", "--trace", q4_trace, "--h", 1,
               "--out", out) == 0
    out.unlink()
    assert run("verify", "--lemma", "3.2", "--trace", q4_trace, "--h", 1) == 0
    assert not out.exists()
    assert capsys.readouterr().out.count("holds") == 2


def _exit(call, argv, capsys):
    with pytest.raises(SystemExit) as err:
        call(argv)
    return err.value.code, capsys.readouterr()


@pytest.mark.parametrize("argv", [
    [], ["bisect"], ["-h"], ["verify", "--help"], ["kappa", "-h"],
    ["verify", "--lemma", "3.2", "--trace", "t", "--h", "1", "--budget", "1"],
    ["solve", "--graph", "g", "--h", "0", "stray"],
    ["generate", "--kind", "hypercube"], ["verify", "--lemma", "3.9",
                                          "--trace", "t", "--h", "1"],
    ["generate", "--kind", "hypercube", "--n", "four", "--out", "g"],
], ids=["no-command", "unknown-command", "help", "command-help",
        "command-h", "unknown-option", "stray-token", "missing-required",
        "bad-lemma", "bad-n-type"])
def test_main_parses_like_the_full_parser(argv, capsys):
    # main hands a command's tokens to its subparser alone; its output and
    # exit code match the full parser's wherever parsing stops
    assert _exit(main, argv, capsys) == _exit(cli._PARSER.parse_args, argv,
                                              capsys)


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "random", "--n", "4", "--seed", "1", "--out", "g"],
    ["solve", "--graph", "g", "--h", "all", "--method", "branch-and-bound",
     "--budget", "2.5", "--expect-theorem", "--out", "o", "--override-gate"],
    ["verify", "--lemma", "3.7", "--trace", "t", "--h", "all"],
    ["kappa", "--graph", "g", "--h", "2", "--out", "o"],
], ids=["generate", "solve", "verify", "kappa"])
def test_main_parses_a_command_to_the_full_parsers_namespace(argv):
    assert cli._parse(argv) == cli._PARSER.parse_args(argv)


def test_verify_level_out_of_range(q4_trace):
    assert run("verify", "--lemma", "3.7", "--trace", q4_trace, "--h", 5) == 2


def test_verify_writes_reports(q4_trace, tmp_path):
    out = tmp_path / "verdicts.jsonl"
    assert run("verify", "--lemma", "3.5", "--trace", q4_trace, "--h", "all",
               "--out", out) == 0
    payloads = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(payloads) == 4 and all(p["holds"] for p in payloads)


def test_verify_rejects_bad_trace(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text('{"left":{"leaf":true},"right":{"leaf":true},"sigma":[0,0]}\n')
    assert run("verify", "--lemma", "3.2", "--trace", bad, "--h", 0) == 2


def test_verify_rejects_deep_traces(tmp_path):
    # both nest past the interpreter's recursion limit
    for i, text in enumerate((left_deep_trace_text(20_000),
                              right_deep_trace_text(3_000))):
        path = tmp_path / f"deep{i}.trace"
        path.write_text(text)
        assert run("verify", "--lemma", "3.2", "--trace", path, "--h", 0) == 2


# -- kappa -------------------------------------------------------------------------

@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.graph"
    write_graph(path, fig1_graph().graph)
    return path


def test_kappa_fig1_level2_reports_the_witness(fig1_file, tmp_path, capsys):
    out = tmp_path / "kappa.jsonl"
    assert run("kappa", "--graph", fig1_file, "--h", 2, "--out", out) == 0
    assert "exists, value 8" in capsys.readouterr().out
    (payload,) = [json.loads(line) for line in out.read_text().splitlines()]
    assert payload["outcome"] == "exists"
    assert payload["witness"] == [1, 2, 5, 6, 9, 10, 13, 14]


def test_kappa_fig1_level0(fig1_file, capsys):
    assert run("kappa", "--graph", fig1_file, "--h", 0) == 0
    assert "exists, value 4" in capsys.readouterr().out


def test_kappa_fig1_level3_nonexistent(fig1_file, capsys):
    assert run("kappa", "--graph", fig1_file, "--h", 3) == 0
    assert "nonexistent" in capsys.readouterr().out


def test_kappa_square_level1_nonexistent(tmp_path, capsys):
    path = tmp_path / "q2.graph"
    write_graph(path, hypercube(2).graph)
    assert run("kappa", "--graph", path, "--h", 1) == 0
    assert "nonexistent" in capsys.readouterr().out


def test_kappa_rejects_all(fig1_file):
    assert run("kappa", "--graph", fig1_file, "--h", "all") == 2


# -- exit codes on fuzzed input files ---------------------------------------------

# small members only, so a mutation that still parses costs a 2^8 scan
_CANONICAL = [graph_to_text(hl.graph) for hl in (hypercube(2), hypercube(3),
                                                 random_hl(3, 5))] \
    + [trace_to_text(hl.trace) for hl in (hypercube(3), random_hl(3, 5))]


@settings(max_examples=200, deadline=None)
@given(st.text() | mutated(_CANONICAL, "0123456789 \n,[]{}:\"-x")
       | json_values.map(json.dumps))
def test_fuzzed_files_never_exit_4(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.input"
    path.write_text(text, newline="")
    for argv in (("solve", "--graph", path, "--h", 0),
                 ("kappa", "--graph", path, "--h", 1),
                 ("verify", "--lemma", "3.2", "--trace", path, "--h", 0)):
        # exit 1 is a verified mismatch, which none of these calls checks
        assert run(*argv) in (0, 2, 3), (argv[0], text)


# -- the README ----------------------------------------------------------------------

def test_readme_cli_lines_all_exit_0(tmp_path, monkeypatch):
    # every `hlcut` line of the README's CLI block, in order, in one
    # directory: a flag the CLI drops fails here, not in a reader's shell
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("hlcut ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
