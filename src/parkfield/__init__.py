"""Polygon force-field parking: spot selection and in-spot pose optimization."""

from .errors import (
    BudgetError,
    GeometryError,
    InfeasibleSpotError,
    ParkfieldError,
    ScenarioError,
)
from .field import FieldSet, gamma, sample_field
from .scenario import build_footprint, load_scenario, spot_field_set
from .solver import (
    Pose,
    SamplingPlan,
    SolveResult,
    SolverConfig,
    brute_force_minimize,
    minimize,
    objective,
)
from .strategy import rank_spots, round_strategy

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "FieldSet",
    "GeometryError",
    "InfeasibleSpotError",
    "ParkfieldError",
    "Pose",
    "SamplingPlan",
    "ScenarioError",
    "SolveResult",
    "SolverConfig",
    "brute_force_minimize",
    "build_footprint",
    "gamma",
    "load_scenario",
    "minimize",
    "objective",
    "rank_spots",
    "round_strategy",
    "sample_field",
    "spot_field_set",
]
