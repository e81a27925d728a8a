"""Equilibria of two-player continuous games under model-class restrictions.

Core objects: convex action sets with exact projections, game specs with
gradient oracles, equilibrium solvers for stationary / Stackelberg / Nash
regimes, successive elimination across candidate model classes, and the
constructive restriction certificate showing that shrinking the learner's
class can strictly improve its equilibrium loss.
"""

__version__ = "0.1.0"

from .core import (
    GameSpec,
    JointAction,
    ModelClassLadder,
    gradient_noise,
    gradient_operator,
    monotonicity_audit,
)
from .equilibrium import (
    EquilibriumReport,
    best_response,
    nash_residual,
    pareto_improvement_search,
    psgd_nash,
    scaling_curve,
    solve_nash,
    stackelberg_leader,
)
from .restriction import (
    HypothesisNotSatisfiedError,
    RestrictionCertificate,
    certify_restriction,
)
from .selection import (
    SelectionReport,
    confidence_radius,
    successive_elimination,
)
from .sets import (
    ActionSet,
    Box,
    ConvergenceError,
    Halfspace,
    Intersection,
    Product,
    UnboundedSetError,
    box_1d,
)

__all__ = [
    "ActionSet",
    "Box",
    "ConvergenceError",
    "EquilibriumReport",
    "GameSpec",
    "Halfspace",
    "HypothesisNotSatisfiedError",
    "Intersection",
    "JointAction",
    "ModelClassLadder",
    "Product",
    "RestrictionCertificate",
    "SelectionReport",
    "UnboundedSetError",
    "best_response",
    "box_1d",
    "certify_restriction",
    "confidence_radius",
    "gradient_noise",
    "gradient_operator",
    "monotonicity_audit",
    "nash_residual",
    "pareto_improvement_search",
    "psgd_nash",
    "scaling_curve",
    "solve_nash",
    "stackelberg_leader",
    "successive_elimination",
    "__version__",
]
