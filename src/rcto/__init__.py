"""Robust concurrent two-scale topology optimization.

Concurrent BESO design of a macrostructure and its composite unit cell,
with imprecise-probability material uncertainty propagated by a hybrid
perturbation analysis and verified against a nested Monte Carlo oracle.
"""

from .errors import (
    ConfigError,
    InfeasibleTargetError,
    NormalizationError,
    NumericalError,
    OutputError,
    RctoError,
    SingularSystemError,
)
from .materials import Phase, TwoPhaseMaterial, elasticity_matrix
from .fem import StructuredGrid, element_mass, mean_compliance
from .homogenization import (
    EffectiveProperties,
    effective_density,
    effective_elasticity,
    homogenize,
    seed_cell,
    solve_cell_problems,
)
from .uncertainty import (
    HybridParameter,
    Interval,
    RobustObjective,
    UncertainSet,
    ihpa_evaluate,
    mcs_evaluate,
)
from .beso import DesignState, OptimizationResult, Schedule, run

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DesignState",
    "EffectiveProperties",
    "HybridParameter",
    "InfeasibleTargetError",
    "Interval",
    "NormalizationError",
    "NumericalError",
    "OptimizationResult",
    "OutputError",
    "Phase",
    "RctoError",
    "RobustObjective",
    "Schedule",
    "SingularSystemError",
    "StructuredGrid",
    "TwoPhaseMaterial",
    "UncertainSet",
    "effective_density",
    "effective_elasticity",
    "elasticity_matrix",
    "element_mass",
    "homogenize",
    "ihpa_evaluate",
    "mcs_evaluate",
    "mean_compliance",
    "run",
    "seed_cell",
    "solve_cell_problems",
]
