"""Constrained fractional set programs on weighted graphs.

Minimize a ratio of non-negative set functions subject to volume and seed
constraints through a tight continuous relaxation: Lovász extensions turn
the set ratio into a one-homogeneous d.c. ratio over the nonnegative
orthant, inequality constraints become exact penalties, the relaxation is
minimized by a monotone-descent outer loop with an accelerated dual inner
solver, and optimal thresholding recovers sets without any loss.  Ships
problem builders for local balanced cuts and maximum-density communities, a
globally optimal parametric max-flow solver for the unconstrained density
case, a lazy-random-walk baseline, and an exhaustive oracle.
"""

from .baselines import OracleResult, brute_force, lrw_cluster, lrw_step
from .constraints import (VolumeConstraint, gamma_sufficient, theta_of,
                          truncated_volume_subgradient)
from .graph import (Graph, GraphFormatError, as_vertex_weights, assoc_value,
                    coauthor_weights, cut_value, load_edge_list,
                    load_vertex_weights, restrict_ball, save_edge_list,
                    volume)
from .inner import (InnerProblem, InnerSolution, lipschitz_estimate,
                    objective_value, simplex_project, solve_inner)
from .lovasz import (NoFeasibleThreshold, SetFunctionDC, SweepResult,
                     greedy_subgradient, lovasz_value, optimal_threshold)
from .problems import (DensityProblemSpec, NCutProblemSpec, build_local_ncut,
                       build_max_density, dinkelbach_max_density,
                       solve_local_ncut, solve_max_density)
from .ratiodca import (ConstrainedRatioProblem, DescentViolation,
                       InfeasibleProblem, Solution, SolverConfig,
                       continuous_ratio, extension_values, ratio_dca,
                       ratio_dca_multistart, solve_with_gamma_schedule)

__version__ = "0.1.0"

__all__ = [
    "ConstrainedRatioProblem", "DensityProblemSpec", "DescentViolation",
    "Graph", "GraphFormatError", "InfeasibleProblem", "InnerProblem",
    "InnerSolution", "NCutProblemSpec", "NoFeasibleThreshold", "OracleResult",
    "SetFunctionDC", "Solution", "SolverConfig", "SweepResult",
    "VolumeConstraint", "as_vertex_weights", "assoc_value", "brute_force",
    "build_local_ncut", "build_max_density", "coauthor_weights",
    "continuous_ratio", "cut_value", "dinkelbach_max_density",
    "extension_values", "gamma_sufficient", "greedy_subgradient",
    "lipschitz_estimate", "load_edge_list", "load_vertex_weights",
    "lovasz_value", "lrw_cluster", "lrw_step", "objective_value",
    "optimal_threshold", "ratio_dca", "ratio_dca_multistart", "restrict_ball",
    "save_edge_list", "simplex_project", "solve_inner", "solve_local_ncut",
    "solve_max_density", "solve_with_gamma_schedule", "theta_of",
    "truncated_volume_subgradient", "volume", "__version__",
]
