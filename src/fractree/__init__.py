"""Self-similar graph families grown from cycles and wheels.

Two growth operations -- replacing every edge by a path, and attaching a
fresh base graph at every pre-existing vertex -- generate families of
planar self-similar graphs.  This package constructs them exactly,
computes their spanning-tree counts by three independent methods, and
cross-checks every closed-form invariant (size recurrences, entropy,
clustering coefficients) against direct computation.
"""

# set before the submodules load: verify's JSON report records it
__version__ = "0.1.0"

from .clustering import (
    ClusteringReport,
    average_clustering,
    clustering_closed,
    degree_census_predicted,
)
from .construct import (
    CopyCensus,
    base,
    build,
    copy_census,
    ept,
    glv,
    predicted_block_multiset,
    unfold_census_block_multiset,
)
from .errors import (
    BadParameterError,
    DisconnectedGraphError,
    DomainViolationError,
    FractreeError,
    InvalidVertexError,
    InvalidVertexSetError,
    OverflowCapError,
    SizeCapError,
)
from .exact import (
    FactoredCount,
    bareiss_determinant,
    factored_expand,
    factored_log,
)
from .graph import (
    Block,
    Graph,
    VertexRole,
    blocks,
    degree_histogram,
    laplacian_minor,
    to_dot,
    to_edgelist_text,
    to_json_dict,
)
from .params import Family, FractalParams
from .sequences import (
    EntropyEstimate,
    QuadraticNumber,
    RecurrenceSpec,
    SizeSequences,
    binet_vertex,
    binet_vertex_fixed_constants,
    entropy_closed,
    entropy_limit,
    entropy_surface_rows,
    fibonacci_number,
    lucas_number,
    size_sequences,
    tau_wheel_base,
)
from .spanning import tau_blocks, tau_closed, tau_oracle
from .verify import DiscrepancyReport, verify_suite

__all__ = [
    "average_clustering", "base", "bareiss_determinant", "binet_vertex",
    "binet_vertex_fixed_constants", "Block", "blocks", "build",
    "BadParameterError", "ClusteringReport", "clustering_closed", "copy_census",
    "CopyCensus", "degree_census_predicted", "degree_histogram",
    "DisconnectedGraphError", "DiscrepancyReport", "DomainViolationError",
    "entropy_closed", "entropy_limit", "entropy_surface_rows",
    "EntropyEstimate", "ept", "FactoredCount",
    "factored_expand", "factored_log", "Family", "fibonacci_number",
    "FractalParams", "FractreeError", "glv", "Graph", "InvalidVertexError",
    "InvalidVertexSetError", "laplacian_minor", "lucas_number",
    "OverflowCapError", "predicted_block_multiset", "QuadraticNumber",
    "RecurrenceSpec", "SizeCapError", "size_sequences", "SizeSequences",
    "tau_blocks", "tau_closed", "tau_oracle", "tau_wheel_base", "to_dot",
    "to_edgelist_text", "to_json_dict", "unfold_census_block_multiset",
    "verify_suite", "VertexRole",
]
