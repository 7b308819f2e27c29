"""Exact spanning-tree counting.

Counts spanning trees of simple undirected graphs by several independent
exact methods (reduced-Laplacian determinant, rank-one determinant update,
bipartite Schur reduction, closed-form family formulas, and two brute-force
oracles) and provides a CLI to count, cross-verify, generate, and benchmark.
"""

from .graph import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    LoopEdgeError,
    OutOfRangeError,
    build_graph,
)
from .linalg import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    LinalgError,
    add_outer_product,
    adjugate,
    det_int,
    det_mod,
    det_perturbed,
    det_rat,
    minor_matrix,
)
from .kirchhoff import (
    Bipartition,
    BoundAbovePrimesError,
    IsolatedColumnVertexError,
    MethodUnavailableError,
    NotBipartitionError,
    ZeroVectorSumError,
    check_bipartition,
    find_bipartition,
    s_matrix,
    tau,
    tau_bipartite_schur,
    tau_rank_one,
    tau_reduced,
    tau_temperley,
)
from .families import (
    DOMINATING,
    ISOLATED,
    Family,
    FamilySpecError,
    NotThresholdOrderedError,
    conjugate_partition,
    count_complete,
    count_complete_bipartite,
    count_complete_multipartite,
    count_ferrers,
    count_threshold,
    gen_complete,
    gen_complete_bipartite,
    gen_complete_multipartite,
    gen_ferrers,
    gen_threshold,
    parse_family,
    threshold_t,
)
from .oracle import (
    DEFAULT_SUBSET_LIMIT,
    EdgeNotInGraphError,
    Multigraph,
    OracleTooLargeError,
    is_spanning_tree,
    tau_delcon,
    tau_subsets,
)
from .edgelist import (
    EdgeListParseError,
    format_edgelist,
    parse_edgelist,
    read_edgelist,
    write_edgelist,
)

__version__ = "0.1.0"

__all__ = [
    "Graph", "build_graph",
    "GraphError", "LoopEdgeError", "DuplicateEdgeError", "OutOfRangeError",
    "det_int", "det_mod", "det_rat", "minor_matrix", "add_outer_product", "det_perturbed", "adjugate",
    "LinalgError", "DimensionMismatchError", "IndexOutOfRangeError",
    "Bipartition", "check_bipartition", "find_bipartition",
    "tau", "tau_reduced", "tau_rank_one", "tau_temperley",
    "s_matrix", "tau_bipartite_schur",
    "ZeroVectorSumError", "NotBipartitionError", "IsolatedColumnVertexError",
    "BoundAbovePrimesError", "MethodUnavailableError",
    "gen_complete", "gen_complete_bipartite", "gen_complete_multipartite",
    "gen_ferrers", "gen_threshold", "threshold_t", "conjugate_partition",
    "count_complete", "count_complete_bipartite", "count_complete_multipartite",
    "count_ferrers", "count_threshold",
    "Family", "parse_family", "FamilySpecError", "NotThresholdOrderedError",
    "DOMINATING", "ISOLATED",
    "is_spanning_tree", "tau_subsets", "tau_delcon", "Multigraph",
    "EdgeNotInGraphError", "OracleTooLargeError", "DEFAULT_SUBSET_LIMIT",
    "parse_edgelist", "read_edgelist", "format_edgelist", "write_edgelist",
    "EdgeListParseError",
    "__version__",
]
