"""Batch front-end: generate family members, run the exact solvers and the
bound verifiers, print reproduction tables, and write machine-readable
reports.

Exit codes: 0 all checks pass, 1 verified mismatch or counterexample,
2 usage error, 3 incomplete search (budget exhausted or interrupted),
4 internal error.
"""

from __future__ import annotations

import argparse
import sys

from .build import (fig1_graph, from_trace, hypercube, random_hl, read_trace,
                    write_trace)
from .cuts import lambda_sh_exact
from .errors import IncompleteSearchError, UsageError
from .graph import Graph, read_graph, vertex_list, write_graph
from .kappa import kappa_sh_exact
from .lemmas import (LemmaVerdict, check_lemma_32, check_lemma_35,
                     check_lemma_37, check_theorem)
from .reports import write_reports

OK, MISMATCH, USAGE, INCOMPLETE, INTERNAL = 0, 1, 2, 3, 4


def _parse_h(value: str, top: int) -> list[int]:
    """The levels `--h` names: 0..top for 'all', else the one integer. The
    solvers and checkers reject a level outside their range."""
    if value == "all":
        if top < 0:
            raise UsageError("--h all has no levels to sweep here; "
                             "give a numeric --h")
        return list(range(top + 1))
    try:
        return [int(value)]
    except ValueError:
        raise UsageError(f"--h must be an integer or 'all', got {value!r}") from None


def _infer_dimension(g: Graph) -> int | None:
    """Dimension n when the graph looks like a family member (order 2^n,
    n-regular); None otherwise."""
    if g.order == 0 or g.order & (g.order - 1):
        return None
    n = g.order.bit_length() - 1
    if any(a.bit_count() != n for a in g.adj):
        return None
    return n


def cmd_generate(args) -> int:
    if args.seed is not None and args.kind != "random":
        raise UsageError("--seed only applies to --kind random")
    if args.kind == "fig1":
        if args.n not in (None, 4):
            raise UsageError("the figure fixture is 4-dimensional; omit --n")
        hl = fig1_graph()
    elif args.n is None:
        raise UsageError(f"--kind {args.kind} requires --n")
    elif args.kind == "hypercube":
        hl = hypercube(args.n)
    elif args.seed is None:
        raise UsageError("--kind random requires an explicit --seed")
    else:
        hl = random_hl(args.n, args.seed)
    write_graph(args.out, hl.graph)
    if args.trace is not None:
        write_trace(args.trace, hl.trace)
    print(f"wrote {hl.label}: {hl.graph.order} vertices, "
          f"{hl.graph.num_edges} edges -> {args.out}"
          + (f", trace -> {args.trace}" if args.trace else ""))
    return OK


def cmd_solve(args) -> int:
    g = read_graph(args.graph)
    n = _infer_dimension(g)
    if args.expect_theorem and n is None:
        raise UsageError("--expect-theorem needs a 2^n-vertex n-regular graph")
    levels = _parse_h(args.h, n - 1 if n is not None else -1)
    if args.expect_theorem and any(h > n - 1 for h in levels):
        raise UsageError(f"--expect-theorem needs h < {n} for this graph")
    reports = []
    mismatch = False
    for h in levels:
        report = lambda_sh_exact(g, h, budget=args.budget)
        if not reports:
            print(f"{'h':<4}{'value':<14}{'formula':<10}{'match'}")
        reports.append(report)
        value = report.value
        formula = match = "-"
        if n is not None and h <= n - 1:
            formula = (1 << h) * (n - h)
            mismatch |= value != formula
            match = "yes" if value == formula else "no"
        shown = "nonexistent" if value is None else value
        print(f"{h:<4}{shown:<14}{formula:<10}{match}", flush=True)
    if args.out is not None:
        write_reports(args.out, reports)
    if args.expect_theorem and mismatch:
        return MISMATCH
    return OK


_LEMMA_CHECKS = {
    "3.2": (check_lemma_32, 0),      # admits h up to n
    "3.5": (check_lemma_35, 1),      # up to n-1
    "3.7": (check_lemma_37, 1),
    "thm": (check_theorem, 1),
}


def cmd_verify(args) -> int:
    trace = read_trace(args.trace)
    hl = from_trace(trace, label=args.trace)
    checker, slack = _LEMMA_CHECKS[args.lemma]
    levels = _parse_h(args.h, hl.n - slack)
    verdicts: list[LemmaVerdict] = []
    for h in levels:
        v = checker(hl, h)
        verdicts.append(v)
        status = "holds" if v.holds else "FAILS"
        extra = ""
        if v.counterexample is not None:
            extra = f" counterexample={vertex_list(v.counterexample)}"
        print(f"{v.lemma_id}  {v.graph_id}  h={v.h}: {status} "
              f"(subsets={v.subsets_checked}, tight={v.tight_witnesses})"
              + extra, flush=True)
    if args.out is not None:
        write_reports(args.out, verdicts)
    return OK if all(v.holds for v in verdicts) else MISMATCH


def cmd_kappa(args) -> int:
    g = read_graph(args.graph)
    levels = _parse_h(args.h, -1)
    report = kappa_sh_exact(g, levels[0])
    if report.exists:
        print(f"h={report.h}: exists, value {report.value}, "
              f"witness {vertex_list(report.witness)} "
              f"(subsets_checked={report.subsets_checked})")
    else:
        print(f"h={report.h}: nonexistent "
              f"(subsets_checked={report.subsets_checked})")
    if args.out is not None:
        write_reports(args.out, [report])
    return OK


def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The `hlcut` parser and its subparser for each command name."""
    parser = argparse.ArgumentParser(
        prog="hlcut",
        description="Exact edge- and vertex-fault tolerance lab for "
                    "hypercube-like networks")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = commands["generate"] = sub.add_parser(
        "generate", help="write a graph file (and trace)")
    p.add_argument("--kind", required=True,
                   choices=["hypercube", "random", "fig1"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_generate)

    p = commands["solve"] = sub.add_parser(
        "solve", help="exact minimum degree-preserving cut")
    p.add_argument("--graph", required=True)
    p.add_argument("--h", required=True, help="level, or 'all'")
    # kept so that scripts naming the search still run; it has one value
    p.add_argument("--method", default="branch-and-bound",
                   choices=["branch-and-bound"])
    p.add_argument("--budget", type=float, default=None,
                   help="seconds before giving up with the incumbent")
    p.add_argument("--expect-theorem", action="store_true",
                   help="exit nonzero unless every value matches 2^h(n-h)")
    p.add_argument("--out", default=None, help="machine report file")
    p.add_argument("--override-gate", action="store_true",
                   help="no effect: the search is bounded by --budget, not "
                        "gated by order")
    p.set_defaults(func=cmd_solve)

    p = commands["verify"] = sub.add_parser(
        "verify", help="check a subset bound or the equality")
    p.add_argument("--lemma", required=True, choices=sorted(_LEMMA_CHECKS))
    p.add_argument("--trace", required=True)
    p.add_argument("--h", required=True, help="level, or 'all'")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = commands["kappa"] = sub.add_parser(
        "kappa", help="vertex-variant existence and value")
    p.add_argument("--graph", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_kappa)

    return parser, commands


# parsing keeps no state between calls
_PARSER, _COMMANDS = _build_parser()


def _parse(argv) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)`, with a command's own arguments parsed
    once, by its subparser alone: the full parser would first classify
    every token that its subparser then parses again."""
    argv = sys.argv[1:] if argv is None else list(argv)
    sub = _COMMANDS.get(argv[0]) if argv else None
    if sub is None:
        return _PARSER.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:])
    if extra:
        _PARSER.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except IncompleteSearchError as exc:
        print(f"incomplete: {exc}", file=sys.stderr)
        return INCOMPLETE
    except KeyboardInterrupt:
        # Ctrl-C in a scan with no incumbent to hand back; branch-and-bound
        # turns it into an IncompleteSearchError above
        print("incomplete: interrupted", file=sys.stderr)
        return INCOMPLETE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:
        # a bug, never a verdict: exit 1 is reserved for a verified mismatch
        import traceback  # here, so a normal run does not load it
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


if __name__ == "__main__":
    sys.exit(main())
