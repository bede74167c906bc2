"""Exact maximum-independent-set solving with synthesized branching rules.

The package builds provably optimal branching rules for a chosen subgraph by
reducing rule selection to a weighted minimum set cover, and runs them inside
a branch-and-reduce engine.  See README.md for the CLI and benchmark harness.
"""

from .clauses import (
    DNF,
    Candidates,
    Clause,
    delta_rho,
    render_clause,
    render_dnf,
)
from .engine import (
    Reduction,
    SolveConfig,
    SolveReport,
    mis_branch,
    reduce_fixpoint,
    select_subgraph,
)
from .errors import (
    CapacityError,
    InfeasibleError,
    InputError,
    InternalError,
    OptBranchError,
)
from .generators import erdos_renyi, grid_subgraph, kings_subgraph, three_regular
from .graph import Graph, Measure, Region, bits, induced_delete, neighbors_k, region_of
from .io import parse_graph
from .optimize import (
    OptimalBranchingResult,
    SolverKind,
    find_gamma,
    minimize_gamma,
    optimal_rule,
)
from .setcover import WmscInstance, WmscSolution, solve_exact, solve_lp
from .table import AlphaTensor, BranchingTable, alpha_tensor, boundary_grouped, prune_by_environment, prune_irrelevant

__version__ = "0.1.0"

# the enumeration kernels are plain numpy; kept so run records can name them
BACKEND = "numpy"

__all__ = [
    "AlphaTensor", "BACKEND", "BranchingTable", "Candidates", "CapacityError",
    "Clause", "DNF", "Graph", "InfeasibleError",
    "InputError", "InternalError", "Measure", "OptBranchError",
    "OptimalBranchingResult", "Reduction", "Region", "SolveConfig", "SolveReport",
    "SolverKind", "WmscInstance", "WmscSolution", "alpha_tensor",
    "bits", "boundary_grouped", "delta_rho",
    "erdos_renyi", "find_gamma", "grid_subgraph", "induced_delete",
    "kings_subgraph", "minimize_gamma",
    "mis_branch", "neighbors_k", "optimal_rule",
    "parse_graph", "prune_by_environment", "prune_irrelevant", "reduce_fixpoint",
    "region_of", "render_clause", "render_dnf", "select_subgraph",
    "solve_exact", "solve_lp", "three_regular",
]
