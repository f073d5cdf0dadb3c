"""Ensemble HDG solver for parameterized convection-diffusion equations.

Simulates J related convection-diffusion problems simultaneously with a
hybridizable discontinuous Galerkin method whose implicit backward-Euler
steps share a single factorized trace matrix across the whole ensemble,
plus element-by-element superconvergent postprocessing and a convergence
study harness.
"""

from .discretization import Discretization
from .errors import ErrorAccumulator
from .io import (load_config, problem_from_config, write_convergence_csv,
                 write_snapshot_csv, write_snapshot_vtk)
from .mesh import build_uniform_square_mesh, read_mesh_text
from .postprocess import Postprocessor
from .problems import Member, ProblemSpec, get_example
from .solver import EnsembleSolver, check_admissibility
from .study import (benchmark_ensemble_vs_separate, convergence_study,
                    resolve_dt_rule, snap_dt)

__version__ = "0.1.0"

__all__ = [
    "Discretization", "ErrorAccumulator", "load_config",
    "problem_from_config", "write_convergence_csv", "write_snapshot_csv",
    "write_snapshot_vtk", "build_uniform_square_mesh", "read_mesh_text",
    "Postprocessor", "get_example", "EnsembleSolver", "Member",
    "ProblemSpec", "check_admissibility", "benchmark_ensemble_vs_separate",
    "convergence_study", "resolve_dt_rule", "snap_dt",
]
