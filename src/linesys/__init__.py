"""Lines induced by betweenness relations.

Graphs, posets, finite metric spaces, and 3-uniform hypergraphs each
read their lines from their own rows into one line builder; this
package computes their line systems, evaluates the height-dependent
lower bound for posets, builds recheckable certificates for it, and
verifies the bounds exhaustively on all small instances.  The generic
``BetweennessRelation`` evaluator is the tests' reference.
"""

from .bounds import dbe_bound, min_pair_sum
from .construct import (
    LineCertificate,
    ProcessStep,
    StepKind,
    build_certificate,
    certificate_issues,
)
from .core import (
    BetweennessRelation,
    all_lines,
    bits_of,
    hypergraph_lines,
    line_mask_set,
    line_of,
    pair_list,
)
from .enumeration import (
    enumerate_graphs,
    enumerate_posets,
    poset_code,
    poset_from_code,
)
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
from .graphs import (
    Graph,
    graph_betweenness,
    graph_line_count,
    graph_lines,
    is_extremal_graph,
)
from .metrics import (
    MetricSpace,
    graph_shortest_path_metric,
    metric_betweenness,
    metric_lines,
)
from .posets import (
    Poset,
    comparability_graph,
    is_extremal_poset,
    maximum_chain_through_levels,
    mirsky_partition,
    poset_betweenness,
)
from .sweeps import (
    PairSumSweepSummary,
    SweepSummary,
    VerificationReport,
    graph_report,
    metric_report,
    pair_sum_sweep,
    poset_report,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BetweennessRelation",
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
    "PairSumSweepSummary",
    "ParseError",
    "Poset",
    "ProcessStep",
    "SizeError",
    "StepKind",
    "SweepSummary",
    "UniversalLineError",
    "UnknownPointError",
    "VerificationReport",
    "all_lines",
    "bits_of",
    "build_certificate",
    "certificate_issues",
    "comparability_graph",
    "dbe_bound",
    "enumerate_graphs",
    "enumerate_posets",
    "graph_betweenness",
    "graph_line_count",
    "graph_lines",
    "graph_report",
    "graph_shortest_path_metric",
    "hypergraph_lines",
    "is_extremal_graph",
    "is_extremal_poset",
    "line_mask_set",
    "line_of",
    "maximum_chain_through_levels",
    "metric_betweenness",
    "metric_lines",
    "metric_report",
    "mirsky_partition",
    "min_pair_sum",
    "pair_list",
    "pair_sum_sweep",
    "parse_graph",
    "parse_hypergraph",
    "parse_metric",
    "parse_poset",
    "poset_betweenness",
    "poset_code",
    "poset_from_code",
    "poset_report",
    "render_line_system",
    "run_sweep",
]
