"""popdyn: multi-learner participation dynamics.

Subpopulations reallocate themselves among risk-minimizing learners, the
coupled system is simulated under risk-reducing update rules, and the
resulting fixed points are detected, classified (split-market / balanced),
stability-certified, and compared against a brute-force social-welfare
optimum.
"""

__version__ = "1.0.0"

from .allocation import (
    AllocationRule,
    best_response,
    mwud,
)
from .engine import (
    EquilibriumDetector,
    Trajectory,
    UpdateSchedule,
    empirical_stability_probe,
    perturb,
    simulate,
    state_distance_upto_permutation,
    step,
)
from .equilibria import (
    EquilibriumReport,
    SplitAssignment,
    classify_state,
    convex_hulls_disjoint,
    enumerate_split_equilibria,
    example_c1_stability_predicate,
    potential_gradient,
    potential_value,
    split_learner,
    theta_for_assignment,
)
from .errors import (
    BudgetError,
    ConvergenceError,
    DimensionError,
    EmptyLearnerError,
    MonotonicityError,
    NonFiniteError,
    NotOptimalError,
    PopdynError,
    ScenarioFormatError,
    SimplexError,
    SplitError,
)
from .learners import (
    LearnerRule,
    StepSchedule,
    full_min,
    gradient_step,
    group_minimize,
    learner_gradient,
    repeated_gd,
    step_size,
)
from .model import (
    RiskFunction,
    Scenario,
    SystemState,
    custom_risk,
    quadratic_risk,
    risk_gradient,
    risk_hessian,
    risk_value,
    total_risk,
    validate_allocation,
    validate_state,
)
from .scenario_io import (
    SCHEMA_VERSION,
    LoadedScenario,
    load_scenario,
    load_state,
    parse_scenario,
    scenario_to_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
