"""2D Cahn-Hilliard-Brinkman tumour-growth simulator.

Phase-field tumour model with volume-averaged Brinkman (or Darcy) flow,
quasi-static Robin nutrient, solution-dependent mass sources, and an
experiment harness for the energy identity, the large-boundary-permeability
limit, the vanishing-viscosity limit, and continuous dependence on data.
"""

from .grid import (CellField, FaceField, Grid2D, advect_upwind, as_boundary,
                   boundary_flux_integral, face_zeros, integrate_cells,
                   mac_operators, norm_l2_cells)
from .linalg import LinearSystem, SolveStats, SolverFailure, bicgstab_solve
from .model import (ModelParams, ModelSpec, MobilitySpec, PotentialSpec,
                    RandomPerturbation, SourceSpec, ValidationReport,
                    ViscositySpec, blended_mobility, blended_viscosity,
                    constant, constant_mobility, constant_viscosity,
                    default_quartic_potential, eval_source_gamma_phi,
                    eval_source_gamma_v, smooth_blend, validate,
                    zero_sources)
from .elliptic import (boundary_trace, solve_nutrient_dirichlet,
                       solve_nutrient_robin)
from .flow import (FlowSolution, solve_brinkman, solve_darcy,
                   viscous_dissipation)
from .stepper import (CflViolation, Diagnostics, LevelRecord, State,
                      StepConfig, ch_update, chemical_potential, energy,
                      energy_residual, initialize_state,
                      mass_balance_residual, step, suggest_cfl_dt,
                      trajectory)
from .harness import (SweepResult, continuous_dependence_study,
                      mms_convergence, norm_h1, robin_limit_study,
                      viscosity_limit_study)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
