"""Reference oracles used only by the test suite.

Brute-force or independent computations that cross-check the library's
solvers: an exhaustive-grid Nash, alternating best responses, a
finite-difference gradient check, the strategic-regression game as a generic
Stackelberg instance, and exact chain-game learner values for arbitrary
per-state policies.
"""

from __future__ import annotations

import numpy as np

from gamescale.core import (
    ActionSet,
    Box,
    ConvergenceError,
    GameSpec,
    JointAction,
    box_1d,
    central_difference,
    gradient_operator,
)
from gamescale.equilibrium import best_response, grid_points
from gamescale.markov import MarkovChainGame, _walk_value


def grid_nash(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    resolution: int = 101,
) -> tuple[JointAction, float]:
    """Exhaustive-grid Nash oracle via the mutual best-response check.

    Returns the grid cell minimizing the sum of both players' best-response
    regrets on the grid, together with that regret (zero iff the cell is an
    exact mutual best response among grid points).
    """
    theta_pts = grid_points(learner_set, resolution)
    env_pts = grid_points(env_set, resolution)
    losses_l = np.array([[game.loss_learner(t, e) for e in env_pts] for t in theta_pts])
    losses_e = np.array([[game.loss_env(t, e) for e in env_pts] for t in theta_pts])
    regret_l = losses_l - losses_l.min(axis=0, keepdims=True)
    regret_e = losses_e - losses_e.min(axis=1, keepdims=True)
    total = regret_l + regret_e
    i, j = np.unravel_index(int(np.argmin(total)), total.shape)
    return JointAction(theta_pts[i], env_pts[j]), float(total[i, j])


def best_response_dynamics(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    x0: JointAction,
    tol: float = 1e-10,
    max_rounds: int = 1_000,
) -> tuple[JointAction, int]:
    """Alternating exact best responses; converges when the BR map contracts."""
    theta, env = learner_set.project(x0.theta), env_set.project(x0.env)
    for rounds in range(1, max_rounds + 1):
        theta_new = best_response(game, "learner", env, learner_set, tol=min(tol, 1e-10))
        env_new = best_response(game, "env", theta_new, env_set, tol=min(tol, 1e-10))
        move = float(np.linalg.norm(theta_new - theta) + np.linalg.norm(env_new - env))
        theta, env = theta_new, env_new
        if move <= tol:
            return JointAction(theta, env), rounds
    raise ConvergenceError("best-response dynamics did not converge (map may not contract)")


def check_gradients(
    game: GameSpec,
    region: ActionSet,
    rng: np.random.Generator,
    samples: int = 16,
    step: float = 1e-5,
    rel_tol: float = 1e-5,
) -> bool:
    """Verify supplied gradients against finite differences of the losses."""
    dl = game.dim_learner
    for _ in range(samples):
        x = JointAction.from_concat(region.sample(rng), dl)
        fd_l = central_difference(lambda t: game.loss_learner(t, x.env), x.theta, step)
        fd_e = central_difference(lambda e: game.loss_env(x.theta, e), x.env, step)
        exact = gradient_operator(game, x)
        fd = np.concatenate([fd_l, fd_e])
        scale = max(1.0, float(np.linalg.norm(exact)))
        if float(np.linalg.norm(exact - fd)) > rel_tol * scale:
            return False
    return True


def regression_stackelberg_game(beta: np.ndarray, k_max: float = 10.0):
    """The small-model regression game as a generic Stackelberg instance.

    Learner fits theta over a box; the environment's scalar action is the
    shift magnitude k. The environment maximizes the expected prediction, so
    its loss is the negated objective. Used to cross-check the closed-form
    equilibrium k* = 1 with the generic grid solver.
    """
    beta = np.asarray(beta, dtype=float)
    norm = float(np.linalg.norm(beta))
    d = beta.shape[0]

    def shift(e):
        return e[0] * beta / norm

    def loss_learner(t, e):
        diff = beta - t
        return float(diff @ diff) + float(t @ shift(e)) ** 2

    def grad_learner(t, e):
        ee = shift(e)
        return 2.0 * (t - beta) + 2.0 * float(t @ ee) * ee

    def loss_env(t, e):
        return -float(t @ shift(e))

    game = GameSpec(
        dim_learner=d,
        dim_env=1,
        loss_learner=loss_learner,
        loss_env=loss_env,
        grad_learner=grad_learner,
        grad_env=None,  # finite-differenced; the env side is only grid-searched
        mu=1.0,
        lipschitz=2.0 * (1.0 + k_max * k_max),
    )
    learner_set = Box(-(abs(beta) + 1.0), abs(beta) + 1.0)
    env_set = box_1d(-k_max, k_max)
    return game, learner_set, env_set


def learner_value_for_policy(
    game: MarkovChainGame, p_by_state: np.ndarray, env_policy: np.ndarray
) -> float:
    """Exact learner value for a per-state probability vector on action 0."""
    return _walk_value(
        game.learner_rewards, game.gamma_l, np.asarray(p_by_state, dtype=float), env_policy, game.n_states
    )
