"""Lines induced by betweenness relations.

Graphs, posets, finite metric spaces, and 3-uniform hypergraphs each
read their lines from their own rows into one line builder; this
package computes their line systems, evaluates the height-dependent
lower bound for posets, builds recheckable certificates for it, and
verifies the bounds exhaustively on all small instances.

The generic ``BetweennessRelation`` evaluator (``core``) and the
relation builders of each kind are the tests' reference and are not
exported: every production path counts lines without them.  Each
builder is its kind's definition, handed to the one validating
constructor of the relation or the metric space.  They stay in their
modules because the per-layer tracer of ``perfbench/`` looks them up
there.
"""

from .bounds import dbe_bound, min_pair_sum
from .construct import (
    LineCertificate,
    ProcessStep,
    build_certificate,
    certificate_issues,
)
from .core import bits_of, hypergraph_lines, pair_list
from .enumeration import poset_code, poset_from_code
from .errors import (
    CapError,
    CycleError,
    DisconnectedError,
    DomainError,
    HeightError,
    IdenticalPointsError,
    InternalError,
    LinesysError,
    MalformedEdgeError,
    MetricError,
    ParseError,
    SizeError,
    UniversalLineError,
    UnknownPointError,
)
from .formats import (
    parse_graph,
    parse_hypergraph,
    parse_metric,
    parse_poset,
    render_line_system,
)
from .graphs import Graph, graph_line_count, graph_lines, is_extremal_graph
from .metrics import MetricSpace, metric_lines
from .posets import Poset, comparability_graph, maximum_chain_through_levels
from .sweeps import (
    SweepSummary,
    VerificationReport,
    graph_report,
    metric_report,
    poset_report,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CapError",
    "CycleError",
    "DisconnectedError",
    "DomainError",
    "Graph",
    "HeightError",
    "IdenticalPointsError",
    "InternalError",
    "LineCertificate",
    "LinesysError",
    "MalformedEdgeError",
    "MetricError",
    "MetricSpace",
    "ParseError",
    "Poset",
    "ProcessStep",
    "SizeError",
    "SweepSummary",
    "UniversalLineError",
    "UnknownPointError",
    "VerificationReport",
    "bits_of",
    "build_certificate",
    "certificate_issues",
    "comparability_graph",
    "dbe_bound",
    "graph_line_count",
    "graph_lines",
    "graph_report",
    "hypergraph_lines",
    "is_extremal_graph",
    "maximum_chain_through_levels",
    "metric_lines",
    "metric_report",
    "min_pair_sum",
    "pair_list",
    "parse_graph",
    "parse_hypergraph",
    "parse_metric",
    "parse_poset",
    "poset_code",
    "poset_from_code",
    "poset_report",
    "render_line_system",
    "run_sweep",
]
