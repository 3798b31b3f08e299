"""Exact laboratory for edge- and vertex-fault tolerance of hypercube-like
interconnection networks: construct family members with verifiable traces,
compute the degree-preserving edge-cut metric exactly, machine-check the
bound chain behind the closed form, and decide the vertex-variant's
existence by complete, pruned search.

The records (Leaf, Node, HlGraph, CutReport, KappaReport, LemmaVerdict) are
named tuples: each compares equal to the plain tuple of its fields, so
Leaf() equals () and is falsy. The package tells them apart with
`isinstance` only."""

from .build import (FIG1_EDGES, FIG1_RELABEL, FIG1_TRACE, HlGraph, Leaf, Node,
                    block_vertices, canonical_cut, fig1_graph, from_trace,
                    hypercube, identity_matching, random_hl, read_trace,
                    realize, trace_from_text, trace_to_text, write_trace)
from .cuts import CutReport, is_h_edge_cut, lambda_sh_exact
from .errors import IncompleteSearchError, TraceError, UsageError
from .graph import (Graph, MAX_ORDER, canonical_edge, graph_from_text,
                    graph_to_text, mask_of, read_graph, write_graph)
from .kappa import SOLVER_GATE, KappaReport, is_h_vertex_cut, kappa_sh_exact
from .lemmas import (LEMMA_32, LEMMA_35, LEMMA_37, THEOREM, LemmaVerdict,
                     check_lemma_32, check_lemma_35, check_lemma_37,
                     check_theorem)
from .reports import dumps_report, report_payload, write_reports

__version__ = "0.1.0"
