"""Numerical laboratory for Dirichlet and Neumann restrictions of weighted
graph Laplacians: heat semigroups, resolvents, exhaustion convergence
experiments, stochastic-completeness and Feller diagnostics, and closed-form
birth-death chain classification."""

from .errors import (
    InputError,
    NeumannLabError,
    OverflowCapError,
    TruncationInsufficientError,
)
from .graphs import (
    Exhaustion,
    VertexFunction,
    WeightedGraph,
    formal_laplacian,
    is_connected,
    parse_graph_file,
    vertex_boundary,
    weighted_degree,
    write_graph_file,
)
from .operators import (
    OperatorKind,
    RestrictedOperator,
    assemble_dirichlet,
    assemble_neumann,
)
from .semigroup import (
    ResolventResult,
    SemigroupEngine,
    resolvent_apply,
)

__version__ = "0.1.0"
