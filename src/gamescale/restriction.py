"""Constructive model-class restriction that strictly improves the learner.

Starting from a non-Pareto-optimal Nash point of a strongly monotone game,
build a smaller learner set (the original set cut by two halfspaces) whose
Nash equilibrium gives the learner a strictly lower loss, and certify every
step numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import GameSpec, JointAction, central_difference, monotonicity_audit
from .equilibrium import (
    best_response,
    best_responses,
    nash_residual,
    pareto_improvement_search,
    solve_nash,
)
from .sets import ActionSet, ConvergenceError, Halfspace, Intersection, Product

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


def br_jacobian(
    game: GameSpec, theta: np.ndarray, env_set: ActionSet, base: np.ndarray
) -> np.ndarray:
    """Central-difference Jacobian of the environment's best-response map.

    Entry (i, j) is d BR_i / d theta_j. `base` is BR(theta), solved at
    BR_SOLVE_TOL; it must be interior to the environment set, since on the
    boundary the map can be kinked and the finite differences are not trusted.
    The 2 d responses to theta +- FD_STEP e_j are solved as one batch.
    """
    theta = np.asarray(theta, dtype=float)
    if not env_set.is_interior(base, margin=FD_STEP):
        raise RestrictionStageError("br_jacobian", "best response on the boundary of the environment set")
    steps = FD_STEP * np.eye(game.dim_learner)
    responses, _, _ = best_responses(
        game, "env", np.concatenate([theta + steps, theta - steps]), env_set, BR_SOLVE_TOL
    )
    plus, minus = responses[: game.dim_learner], responses[game.dim_learner :]
    # C order: matmul sums in a layout-dependent order, and jac.T @ g must keep its bits
    return np.ascontiguousarray(((plus - minus) / (2.0 * FD_STEP)).T)


def fbar_gradient(
    game: GameSpec, theta: np.ndarray, env_set: ActionSet, e: np.ndarray
) -> np.ndarray:
    """Gradient of theta -> f_l(theta, BR(theta)) by the chain rule, given
    e = BR(theta) solved at BR_SOLVE_TOL.

    The cross gradient of the learner loss in the environment action is not
    part of the game oracle, so it is finite-differenced.
    """
    theta = np.asarray(theta, dtype=float)
    jac = br_jacobian(game, theta, env_set, e)
    cross = lambda ee: game.loss("learner", theta, ee, "a central-difference point")
    return game.grad_l(theta, e) + jac.T @ central_difference(cross, e, FD_STEP)


def choose_direction(grad_fbar: np.ndarray) -> np.ndarray:
    """Unit vector with positive inner product against the composed gradient."""
    norm = float(np.linalg.norm(grad_fbar))
    if not norm > 1e-10:
        raise RestrictionStageError("direction", "composed gradient vanishes; Nash appears Pareto-stationary")
    return np.asarray(grad_fbar, dtype=float) / norm


def delta_search(
    game: GameSpec,
    theta_star: np.ndarray,
    v: np.ndarray,
    env_set: ActionSet,
    learner_set: ActionSet,
    reference: float,
) -> tuple[float, np.ndarray]:
    """Backtracking step: first delta with a certified composed-loss drop.

    Halves delta from 1, at most 60 times, until theta' = theta* - delta v is
    interior to the learner set and f_l(theta', BR(theta')) < reference - 1e-10,
    where reference = f_l(theta*, BR(theta*)). Returns delta and BR(theta'),
    solved at BR_SOLVE_TOL. Terminates for smooth games because the
    first-order term dominates.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    delta = 1.0
    for _ in range(60):
        cand = theta_star - delta * v
        if learner_set.is_interior(cand, 1e-9):
            response = best_response(game, "env", cand, env_set, tol=BR_SOLVE_TOL)
            if game.loss("learner", cand, response, "a delta_search candidate") < reference - 1e-10:
                return delta, response
        delta *= 0.5
    raise ConvergenceError("no improving step found: composed gradient too small along v")


def construct_restriction(
    game: GameSpec,
    theta_prime: np.ndarray,
    e_prime: np.ndarray,
    v: np.ndarray,
    learner_set: ActionSet,
) -> Intersection:
    """Cut the learner set with the two halfspaces that pin theta' as Nash.

    The first halfspace {<v, theta> <= <v, theta'>} removes theta*; the
    second, with normal along the negative learner gradient at (theta', e'),
    makes theta' a best response to e' = BR(theta') over the whole cut.
    """
    theta_prime = np.asarray(theta_prime, dtype=float)
    grad_at_prime = game.grad_l(theta_prime, e_prime)
    first = Halfspace(v, float(v @ theta_prime))
    second = Halfspace(-grad_at_prime, float(-grad_at_prime @ theta_prime))
    return Intersection([learner_set, first, second])


def _stage(stage: str, step: Callable, *args):
    """step(*args), with a solver or numeric failure in it re-raised tagged with stage."""
    try:
        return step(*args)
    except (ConvergenceError, FloatingPointError, ValueError) as exc:
        raise RestrictionStageError(stage, str(exc)) from exc


def certify_restriction(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    seed: int = 0,
) -> RestrictionCertificate:
    """Run the full pipeline and return a verified improvement certificate.

    Stages, by tag: monotonicity_audit, nash_solve, interior_check,
    pareto_check (the Pareto-improvement witness), br_jacobian (BR(theta*)
    and the composed gradient), direction, delta_search, construction (the
    restricted set) and verification that the restricted point is a Nash of
    the cut game with strictly lower learner loss. Every stage failure is a
    RestrictionStageError carrying its tag; a Pareto-optimal Nash raises
    HypothesisNotSatisfiedError.
    """
    rng = np.random.default_rng(seed)
    modulus = _stage("monotonicity_audit", monotonicity_audit, game, Product(learner_set, env_set), 128, rng)
    if not modulus >= game.mu - 1e-7:
        raise RestrictionStageError("monotonicity_audit", f"min observed modulus {modulus:.3e} below mu={game.mu}")

    x_star, _ = _stage("nash_solve", solve_nash, game, learner_set, env_set, 1e-8)
    if not _stage("interior_check", learner_set.is_interior, x_star.theta, 1e-8):
        raise RestrictionStageError("interior_check", "Nash learner action on the boundary of its model class")
    if _stage("pareto_check", pareto_improvement_search, game, x_star, learner_set, env_set) is None:
        raise HypothesisNotSatisfiedError("no Pareto-improving joint action found: Nash appears Pareto optimal")

    # BR(theta*) at BR_SOLVE_TOL, not x_star.env (solved at the Nash tolerance)
    e_star = _stage("br_jacobian", best_response, game, "env", x_star.theta, env_set, BR_SOLVE_TOL)
    grad_fbar = _stage("br_jacobian", fbar_gradient, game, x_star.theta, env_set, e_star)
    v = _stage("direction", choose_direction, grad_fbar)
    reference = _stage("delta_search", game.loss, "learner", x_star.theta, e_star, "(theta*, BR(theta*))")
    delta, e_prime = _stage("delta_search", delta_search, game, x_star.theta, v, env_set, learner_set, reference)

    theta_prime = x_star.theta - delta * v
    restricted_set = _stage("construction", construct_restriction, game, theta_prime, e_prime, v, learner_set)
    restricted_point = JointAction(theta_prime, e_prime)

    if not _stage("verification", restricted_set.contains, theta_prime, 1e-9):
        raise RestrictionStageError("verification", "theta' fell outside the restricted set")
    if _stage("verification", restricted_set.contains, x_star.theta, 1e-9):
        raise RestrictionStageError("verification", "theta* was not removed by the restriction")
    residual = _stage("verification", nash_residual, game, restricted_point, restricted_set, env_set)
    if not residual <= 1e-6:
        raise RestrictionStageError("verification", f"restricted point is not a Nash point (residual {residual:.3e})")
    original_loss = _stage("verification", game.loss, "learner", x_star.theta, x_star.env, "the original Nash point")
    restricted_loss = _stage("verification", game.loss, "learner", theta_prime, e_prime, "the restricted point")
    improvement = original_loss - restricted_loss
    if not improvement > 0:
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
