"""Reference oracles used only by the test suite.

Brute-force or independent computations that cross-check the library's
solvers: an exhaustive-grid Nash, alternating best responses, a
finite-difference gradient check, the strategic-regression game as a generic
Stackelberg instance, Monte-Carlo estimates of the regression game's
integrals, losses, predictions and least-squares fits, exact chain-game
learner values for arbitrary per-state policies, value iteration on the
chain's environment MDP, the chain-game dominance check by re-walking the
chain once per deviation, and a Monte-Carlo rollout of the learner value.
"""

from __future__ import annotations

import math

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
from gamescale.markov import MarkovChainGame, _walk_value, absorbing_state
from gamescale.regression import RegressionInstance


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


def _draw_inputs(instance: RegressionInstance, k: float, n: int, rng: np.random.Generator):
    x = rng.standard_normal((n, instance.dim))
    shifted = x + instance.shift(k)
    return x, shifted


def mc_gaussian_integrals(
    instance: RegressionInstance, k: float, n: int, rng: np.random.Generator
) -> dict[str, tuple[float, float]]:
    """Estimates (mean, standard error) of E[exp(-|x+e|^2)] and E[exp(-2|x+e|^2)]."""
    _, shifted = _draw_inputs(instance, k, n, rng)
    sq = np.einsum("ij,ij->i", shifted, shifted)
    out = {}
    for name, scale in (("exp1", 1.0), ("exp2", 2.0)):
        vals = np.exp(-scale * sq)
        out[name] = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)))
    return out


def mc_model_loss(
    instance: RegressionInstance,
    k: float,
    theta1: np.ndarray,
    theta2: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Population squared error of a fixed (theta1, theta2) bump model.

    theta2 = 0 recovers the pure linear model.
    """
    x, shifted = _draw_inputs(instance, k, n, rng)
    pred = shifted @ theta1 + theta2 * np.exp(-np.einsum("ij,ij->i", shifted, shifted))
    res_sq = (x @ instance.beta - pred) ** 2
    return float(res_sq.mean()), float(res_sq.std(ddof=1) / math.sqrt(n))


def mc_env_prediction(
    instance: RegressionInstance,
    k: float,
    theta1: np.ndarray,
    theta2: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Expected prediction E[theta1^T (x+e) + theta2 exp(-|x+e|^2)]."""
    _, shifted = _draw_inputs(instance, k, n, rng)
    pred = shifted @ theta1 + theta2 * np.exp(-np.einsum("ij,ij->i", shifted, shifted))
    return float(pred.mean()), float(pred.std(ddof=1) / math.sqrt(n))


def mc_least_squares(
    instance: RegressionInstance,
    k: float,
    n: int,
    rng: np.random.Generator,
    with_bump: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample least-squares fit and sandwich standard errors per coefficient.

    Features are (x + e) alone, or with the exp(-|x+e|^2) bump appended.
    """
    x, shifted = _draw_inputs(instance, k, n, rng)
    if with_bump:
        bump = np.exp(-np.einsum("ij,ij->i", shifted, shifted))
        features = np.column_stack([shifted, bump])
    else:
        features = shifted
    target = x @ instance.beta
    theta_hat, *_ = np.linalg.lstsq(features, target, rcond=None)
    residual = target - features @ theta_hat
    a = features.T @ features / n
    b = (features * residual[:, None]).T @ (features * residual[:, None]) / n
    a_inv = np.linalg.inv(a)
    cov = a_inv @ b @ a_inv / n
    return theta_hat, np.sqrt(np.diag(cov))



def learner_value_for_policy(
    game: MarkovChainGame, p_by_state: np.ndarray, env_policy: np.ndarray
) -> float:
    """Exact learner value for a per-state probability vector on action 0."""
    return _walk_value(
        game.learner_rewards, game.gamma_l, np.asarray(p_by_state, dtype=float), env_policy, game.n_states
    )


def value_iteration_env_response(
    game: MarkovChainGame, p_bar: float, tol: float = 1e-12, max_sweeps: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray]:
    """Environment policy and values when the learner plays p_bar everywhere,
    by value iteration on the induced finite MDP; ties break toward stay."""
    n = game.n_states
    r = np.empty((n, 2))
    for b in (0, 1):
        r[:, b] = p_bar * game.env_rewards[:, 0, b] + (1.0 - p_bar) * game.env_rewards[:, 1, b]
    nxt = np.minimum(np.arange(n) + 1, n - 1)
    v = np.zeros(n)
    for _ in range(max_sweeps):
        v_new = np.maximum(r[:, 0] + game.gamma_e * v, r[:, 1] + game.gamma_e * v[nxt])
        converged = float(np.max(np.abs(v_new - v))) <= tol
        v = v_new
        if converged:
            break
    else:
        raise ConvergenceError("value iteration hit its sweep cap")
    q_stay = r[:, 0] + game.gamma_e * v
    q_adv = r[:, 1] + game.gamma_e * v[nxt]
    return (q_adv > q_stay).astype(int), v


def rewalk_dominance(
    game: MarkovChainGame, p_bar: float, env_policy: np.ndarray
) -> tuple[bool, float]:
    """Learner dominance check that re-walks the chain for every visited-state
    deviation to 1 - p_bar; returns (ok, worst margin) like verify_dominance."""
    n = game.n_states
    base_p = np.full(n, p_bar)
    base = _walk_value(game.learner_rewards, game.gamma_l, base_p, env_policy, n)
    margin = math.inf
    for s in range(absorbing_state(game, env_policy) + 1):
        deviated = base_p.copy()
        deviated[s] = 1.0 - p_bar
        margin = min(margin, base - _walk_value(game.learner_rewards, game.gamma_l, deviated, env_policy, n))
    return margin >= -1e-12, margin


def rollout_value(
    game: MarkovChainGame,
    p_bar: float,
    env_policy: np.ndarray,
    episodes: int,
    horizon: int,
    rng: np.random.Generator,
    batch: int = 20_000,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) of the learner value.

    The state path is deterministic given the environment policy, so only the
    learner's action draws are simulated.
    """
    n = game.n_states
    states = np.empty(horizon, dtype=int)
    s = 0
    for t in range(horizon):
        states[t] = s
        if env_policy[s] == 1 and s < n - 1:
            s += 1
    b_path = env_policy[states]
    r0 = game.learner_rewards[states, 0, b_path]
    r1 = game.learner_rewards[states, 1, b_path]
    discounts = game.gamma_l ** np.arange(horizon)
    total = 0.0
    total_sq = 0.0
    remaining = episodes
    while remaining > 0:
        m = min(batch, remaining)
        draws = rng.random((m, horizon))
        rewards = np.where(draws < p_bar, r0, r1)
        values = rewards @ discounts
        total += float(values.sum())
        total_sq += float((values**2).sum())
        remaining -= m
    mean = total / episodes
    var = max(total_sq / episodes - mean * mean, 0.0)
    return mean, math.sqrt(var / episodes)
