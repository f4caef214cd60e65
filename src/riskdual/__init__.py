"""Worst-case risk aggregation bounds from integral constraints.

Given marginal slab constraints on a random vector, the package
computes the largest possible tail probability or expected shortfall
of the coordinate sum over all consistent probability measures, by
reducing the semi-infinite dual to a finite LP over a sliced box
partition and solving it with a dense two-phase simplex or delayed
column generation.
"""

from ._version import __version__
from .data_io import IntegralBound, SampleSet, bootstrap_integral_bounds, load_samples_csv
from .dual_builder import (
    BoundResult,
    DualLP,
    ReductionMode,
    assemble_dual_lp,
    solve_bound,
)
from .errors import (
    CapacityError,
    FactorizationError,
    InputError,
    PartitionIncompatibleError,
    RiskdualError,
    SolverError,
    UnsupportedCellError,
)
from .geometry import (
    Cell,
    Partition,
    SideOfTau,
    build_box_partition,
    cell_vertices,
    maximize_linear_over_cell,
)
from .lp_engine import (
    ColumnGenerator,
    LinearProgram,
    LPSolution,
    LPStatus,
    solve_dcg,
    solve_dense_simplex,
)
from .oracle import (
    CandidateGrid,
    DiscretePrimal,
    build_candidate_grid,
    duality_gap,
    solve_primal_discretization,
)
from .test_functions import (
    RiskFunctional,
    RiskKind,
    Sense,
    TestFunction,
    TestFunctionKind,
    empirical_integral,
    evaluate,
    normalized_records,
    restrict_to_cell,
)

__all__ = [
    "__version__",
    "IntegralBound",
    "SampleSet",
    "bootstrap_integral_bounds",
    "load_samples_csv",
    "BoundResult",
    "DualLP",
    "ReductionMode",
    "assemble_dual_lp",
    "solve_bound",
    "CapacityError",
    "FactorizationError",
    "InputError",
    "PartitionIncompatibleError",
    "RiskdualError",
    "SolverError",
    "UnsupportedCellError",
    "Cell",
    "Partition",
    "SideOfTau",
    "build_box_partition",
    "cell_vertices",
    "maximize_linear_over_cell",
    "ColumnGenerator",
    "LinearProgram",
    "LPSolution",
    "LPStatus",
    "solve_dcg",
    "solve_dense_simplex",
    "CandidateGrid",
    "DiscretePrimal",
    "build_candidate_grid",
    "duality_gap",
    "solve_primal_discretization",
    "RiskFunctional",
    "RiskKind",
    "Sense",
    "TestFunction",
    "TestFunctionKind",
    "empirical_integral",
    "evaluate",
    "normalized_records",
    "restrict_to_cell",
]
