"""Constructive model-class restriction that strictly improves the learner.

Starting from a non-Pareto-optimal Nash point of a strongly monotone game,
build a smaller learner set (the original set cut by two halfspaces) whose
Nash equilibrium gives the learner a strictly lower loss, and certify every
step numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ActionSet,
    ConvergenceError,
    GameSpec,
    Halfspace,
    Intersection,
    JointAction,
    Product,
    central_difference,
    monotonicity_audit,
)
from .equilibrium import (
    best_response,
    nash_residual,
    pareto_improvement_search,
    solve_nash,
)

BR_SOLVE_TOL = 1e-11
FD_STEP = 1e-5


class RestrictionStageError(RuntimeError):
    """A stage of the restriction pipeline failed; carries the stage tag."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class HypothesisNotSatisfiedError(RestrictionStageError):
    """The Nash point appears Pareto optimal, so no improving restriction
    is promised (expected for zero-sum games)."""

    def __init__(self, message: str):
        super().__init__("pareto_check", message)


class ParetoStationaryError(RestrictionStageError):
    """The composed-loss gradient vanishes at the Nash point."""

    def __init__(self, message: str):
        super().__init__("direction", message)


class BoundaryResponseError(RestrictionStageError):
    """Best response sits on the boundary, where it need not be smooth."""

    def __init__(self, message: str):
        super().__init__("br_jacobian", message)


@dataclass(eq=False)
class RestrictionCertificate:
    original_nash: JointAction
    direction: np.ndarray
    delta: float
    restricted_point: JointAction
    restricted_set: ActionSet
    improvement: float
    original_loss: float
    restricted_loss: float
    restricted_residual: float


def br_jacobian(game: GameSpec, theta: np.ndarray, env_set: ActionSet) -> np.ndarray:
    """Central-difference Jacobian of the environment's best-response map.

    Entry (i, j) is d BR_i / d theta_j. The base best response must be
    interior to the environment set; on the boundary the map can be kinked
    and the finite differences are not trusted.
    """
    theta = np.asarray(theta, dtype=float)
    base = best_response(game, "env", theta, env_set, tol=BR_SOLVE_TOL)
    if not env_set.is_interior(base, margin=FD_STEP):
        raise BoundaryResponseError("best response on the boundary of the environment set")
    jac = np.zeros((game.dim_env, game.dim_learner))
    for j in range(game.dim_learner):
        e = np.zeros_like(theta)
        e[j] = FD_STEP
        plus = best_response(game, "env", theta + e, env_set, tol=BR_SOLVE_TOL)
        minus = best_response(game, "env", theta - e, env_set, tol=BR_SOLVE_TOL)
        jac[:, j] = (plus - minus) / (2.0 * FD_STEP)
    return jac


def composed_loss(game: GameSpec, theta: np.ndarray, env_set: ActionSet) -> float:
    """Learner loss along the environment's best response: f_l(theta, BR(theta))."""
    e = best_response(game, "env", theta, env_set, tol=BR_SOLVE_TOL)
    return float(game.loss_learner(theta, e))


def fbar_gradient(game: GameSpec, theta: np.ndarray, env_set: ActionSet) -> np.ndarray:
    """Gradient of theta -> f_l(theta, BR(theta)) by the chain rule.

    The cross gradient of the learner loss in the environment action is not
    part of the game oracle, so it is finite-differenced.
    """
    theta = np.asarray(theta, dtype=float)
    e = best_response(game, "env", theta, env_set, tol=BR_SOLVE_TOL)
    jac = br_jacobian(game, theta, env_set)
    grad_cross = central_difference(lambda ee: game.loss_learner(theta, ee), e, FD_STEP)
    return game.grad_l(theta, e) + jac.T @ grad_cross


def choose_direction(grad_fbar: np.ndarray) -> np.ndarray:
    """Unit vector with positive inner product against the composed gradient."""
    norm = float(np.linalg.norm(grad_fbar))
    if norm <= 1e-10:
        raise ParetoStationaryError("composed gradient vanishes; Nash appears Pareto-stationary")
    return np.asarray(grad_fbar, dtype=float) / norm


def delta_search(
    game: GameSpec,
    theta_star: np.ndarray,
    v: np.ndarray,
    env_set: ActionSet,
    learner_set: ActionSet,
) -> float:
    """Backtracking step: first delta with a certified composed-loss drop.

    Halves delta from 1, at most 60 times, until theta* - delta v is
    interior to the learner set and
    f_l(theta', BR(theta')) < f_l(theta*, BR(theta*)) - 1e-10.
    Terminates for smooth games because the first-order term dominates.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    reference = composed_loss(game, theta_star, env_set)
    delta = 1.0
    for _ in range(60):
        cand = theta_star - delta * v
        if learner_set.is_interior(cand, 1e-9):
            if composed_loss(game, cand, env_set) < reference - 1e-10:
                return delta
        delta *= 0.5
    raise ConvergenceError("no improving step found: composed gradient too small along v")


def construct_restriction(
    game: GameSpec,
    theta_star: np.ndarray,
    theta_prime: np.ndarray,
    v: np.ndarray,
    learner_set: ActionSet,
    env_set: ActionSet,
) -> Intersection:
    """Cut the learner set with the two halfspaces that pin theta' as Nash.

    The first halfspace {<v, theta> <= <v, theta'>} removes theta*; the
    second, with normal along the negative learner gradient at the new point,
    makes theta' a best response to BR(theta') over the whole cut.
    """
    theta_prime = np.asarray(theta_prime, dtype=float)
    e_prime = best_response(game, "env", theta_prime, env_set, tol=BR_SOLVE_TOL)
    grad_at_prime = game.grad_l(theta_prime, e_prime)
    first = Halfspace(v, float(v @ theta_prime))
    second = Halfspace(-grad_at_prime, float(-grad_at_prime @ theta_prime))
    return Intersection([learner_set, first, second])


def certify_restriction(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    seed: int = 0,
) -> RestrictionCertificate:
    """Run the full pipeline and return a verified improvement certificate.

    Stages: monotonicity audit, full-game Nash solve, interiority check,
    Pareto-improvement witness, direction and step choice, restricted-set
    construction, and final verification that the restricted point is a Nash
    of the cut game with strictly lower learner loss. Failures carry the
    stage tag; a Pareto-optimal Nash raises HypothesisNotSatisfiedError.
    """
    rng = np.random.default_rng(seed)
    report = monotonicity_audit(game, Product(learner_set, env_set), 128, rng)
    if not report.passed:
        raise RestrictionStageError(
            "monotonicity_audit",
            f"min observed modulus {report.min_modulus:.3e} below mu={game.mu}",
        )

    try:
        x_star, _ = solve_nash(game, learner_set, env_set, tol=1e-8)
    except ConvergenceError as exc:
        raise RestrictionStageError("nash_solve", str(exc)) from exc

    if not learner_set.is_interior(x_star.theta, margin=1e-8):
        raise RestrictionStageError(
            "interior_check", "Nash learner action on the boundary of its model class"
        )

    witness = pareto_improvement_search(game, x_star, learner_set, env_set)
    if witness is None:
        raise HypothesisNotSatisfiedError(
            "no Pareto-improving joint action found: Nash appears Pareto optimal"
        )

    grad_fbar = fbar_gradient(game, x_star.theta, env_set)
    v = choose_direction(grad_fbar)
    try:
        delta = delta_search(game, x_star.theta, v, env_set, learner_set)
    except ConvergenceError as exc:
        raise RestrictionStageError("delta_search", str(exc)) from exc

    theta_prime = x_star.theta - delta * v
    restricted_set = construct_restriction(game, x_star.theta, theta_prime, v, learner_set, env_set)
    e_prime = best_response(game, "env", theta_prime, env_set, tol=BR_SOLVE_TOL)
    restricted_point = JointAction(theta_prime, e_prime)

    if not restricted_set.contains(theta_prime, tol=1e-9):
        raise RestrictionStageError("verification", "theta' fell outside the restricted set")
    if restricted_set.contains(x_star.theta, tol=1e-9):
        raise RestrictionStageError("verification", "theta* was not removed by the restriction")
    residual = nash_residual(game, restricted_point, restricted_set, env_set)
    if residual > 1e-6:
        raise RestrictionStageError(
            "verification", f"restricted point is not a Nash point (residual {residual:.3e})"
        )
    original_loss = float(game.loss_learner(x_star.theta, x_star.env))
    restricted_loss = float(game.loss_learner(theta_prime, e_prime))
    improvement = original_loss - restricted_loss
    if improvement <= 0:
        raise RestrictionStageError("verification", "restricted equilibrium did not improve the loss")

    return RestrictionCertificate(
        original_nash=x_star,
        direction=v,
        delta=delta,
        restricted_point=restricted_point,
        restricted_set=restricted_set,
        improvement=improvement,
        original_loss=original_loss,
        restricted_loss=restricted_loss,
        restricted_residual=residual,
    )

