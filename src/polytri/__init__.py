"""Minimum-weight triangulation of node-weighted convex polygons.

Exact solvers for the triangulation problem under any monotonic
triangle-weight function (which subsumes matrix-chain multiplication),
plus a linear-time additive heuristic, bridge/cone machinery, instance
generators, and a benchmark harness.
"""

from .baselines import enumerate_triangulations, solve_bruteforce, solve_dp_cubic
from .bridges import (
    Bridge,
    BridgeTable,
    Cone,
    cone_nodes,
    enumerate_cones,
    find_bridges_linear,
    find_bridges_walk,
)
from .bst_solver import (
    Branch,
    SolveStats,
    cone_value_base,
    expand_cone,
    expand_root,
    is_base_cone,
    reconstruct_triangulation,
    solve_bst,
)
from .core import (
    Edge,
    InvalidTriangulationError,
    MonotonicityError,
    Polygon,
    SolverInvariantError,
    TriangleWeightFn,
    Triangulation,
    ValidationResult,
    format_polygon,
    list_triangles,
    load_polygon,
    norm_edge,
    parse_polygon,
    require_valid,
    triangulation_weight,
    validate_triangulation,
)
from .generators import gen_heuristic_worst, gen_random, gen_random_chain, gen_staircase
from .heuristic import HeuristicReport, error_ratio, heuristic_triangulate
from .matrix_chain import (
    ChainDims,
    chain_to_polygon,
    format_chain,
    load_chain,
    parenthesization_cost,
    parse_chain,
    triangulation_to_parenthesization,
)
from .toolkit import (
    CSV_COLUMNS,
    BenchRecord,
    child_seed,
    growth_summary,
    read_csv,
    run_bench,
    write_csv,
)
from .yao_solver import solve_yao

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "Branch",
    "Bridge",
    "BridgeTable",
    "CSV_COLUMNS",
    "ChainDims",
    "Cone",
    "Edge",
    "HeuristicReport",
    "InvalidTriangulationError",
    "MonotonicityError",
    "Polygon",
    "SolveStats",
    "SolverInvariantError",
    "TriangleWeightFn",
    "Triangulation",
    "ValidationResult",
    "chain_to_polygon",
    "child_seed",
    "cone_nodes",
    "cone_value_base",
    "enumerate_cones",
    "enumerate_triangulations",
    "error_ratio",
    "expand_cone",
    "expand_root",
    "find_bridges_linear",
    "find_bridges_walk",
    "format_chain",
    "format_polygon",
    "gen_heuristic_worst",
    "gen_random",
    "gen_random_chain",
    "gen_staircase",
    "growth_summary",
    "heuristic_triangulate",
    "is_base_cone",
    "list_triangles",
    "load_chain",
    "load_polygon",
    "norm_edge",
    "parenthesization_cost",
    "parse_chain",
    "read_csv",
    "reconstruct_triangulation",
    "require_valid",
    "run_bench",
    "solve_bruteforce",
    "solve_bst",
    "solve_dp_cubic",
    "solve_yao",
    "triangulation_to_parenthesization",
    "triangulation_weight",
    "validate_triangulation",
    "write_csv",
]
