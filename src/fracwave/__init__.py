"""Graded-mesh L1/FEM solver for time-fractional Kirchhoff diffusion-wave problems."""

from .caputo_l1 import (
    discrete_caputo,
    exact_caputo_power,
    kernel_triangle,
    l1_row,
    l1_rows,
    truncation_study,
)
from .fem_space import (
    FeFunction,
    SpatialMesh,
    assemble_load,
    build_spatial_mesh,
    h1_seminorm_error,
    l2_errors,
    l2_projection,
    ritz_projection,
    spd_solve,
)
from .graded_time import (
    TimeMesh,
    build_graded_mesh,
    extrapolation_weights,
    gronwall_step_condition,
    recommended_grading,
)
from .kirchhoff_solver import (
    ProblemSpec,
    SolverState,
    apriori_bound_report,
    initialize,
    solve_all,
    step,
)
from .mms_harness import (
    ManufacturedCase,
    ReportRow,
    coupled_ms,
    coupled_n,
    example1_case,
    example2_case,
    get_case,
    observed_order,
    round_even,
    run_single_case,
)

__version__ = "0.1.0"

__all__ = [
    "FeFunction",
    "ManufacturedCase",
    "ProblemSpec",
    "ReportRow",
    "SolverState",
    "SpatialMesh",
    "TimeMesh",
    "apriori_bound_report",
    "assemble_load",
    "build_graded_mesh",
    "build_spatial_mesh",
    "coupled_ms",
    "coupled_n",
    "discrete_caputo",
    "exact_caputo_power",
    "example1_case",
    "example2_case",
    "extrapolation_weights",
    "get_case",
    "gronwall_step_condition",
    "h1_seminorm_error",
    "initialize",
    "kernel_triangle",
    "l1_row",
    "l1_rows",
    "l2_errors",
    "l2_projection",
    "observed_order",
    "recommended_grading",
    "ritz_projection",
    "round_even",
    "run_single_case",
    "solve_all",
    "spd_solve",
    "step",
    "truncation_study",
]
