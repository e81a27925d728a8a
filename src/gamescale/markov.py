"""Chain Markov game where restricting the learner's policy class pays.

An n-state chain: the environment's action advances the chain (absorbing at
the last state), the learner's action never affects transitions but action 0
strictly dominates its stage reward. Environment rewards are calibrated so
that, at equilibrium, the chain advances from state i exactly when the
learner's probability on action 0 sits below a per-state threshold. Sweeping
the policy-class cap p_bar then traces the reverse-scaling payoff curve.

States are indexed from 0; stage rewards use the 1-based position, so deeper
states pay the learner more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

class CalibrationError(RuntimeError):
    """Environment rewards failed to reproduce a threshold; carries the state."""

    def __init__(self, state: int, message: str):
        super().__init__(f"state {state}: {message}")
        self.state = state


@dataclass(eq=False)
class MarkovChainGame:
    """Two-player chain game with deterministic, environment-driven transitions.

    learner_rewards and env_rewards have shape (n_states, 2, 2) indexed by
    (state, learner action a, env action b); b = 1 advances the chain, b = 0
    stays, independent of a.
    """

    n_states: int
    learner_rewards: np.ndarray
    env_rewards: np.ndarray
    gamma_l: float
    gamma_e: float
    thresholds: np.ndarray

    def __post_init__(self):
        self.learner_rewards = np.asarray(self.learner_rewards, dtype=float)
        self.env_rewards = np.asarray(self.env_rewards, dtype=float)
        self.thresholds = np.asarray(self.thresholds, dtype=float)
        n = self.n_states
        if self.learner_rewards.shape != (n, 2, 2) or self.env_rewards.shape != (n, 2, 2):
            raise ValueError("reward tensors must have shape (n_states, 2, 2)")
        if not (0.0 <= self.gamma_l < 1.0 and 0.0 <= self.gamma_e < 1.0):
            raise ValueError("discount factors must lie in [0, 1)")
        if self.thresholds.shape != (n,):
            raise ValueError("need one threshold per state")
        if np.any(np.diff(self.thresholds) >= 0) or self.thresholds[-1] <= 0.5:
            raise ValueError("thresholds must be strictly decreasing and > 0.5")
        if np.any(self.learner_rewards[:, 0, :] <= self.learner_rewards[:, 1, :]):
            raise ValueError("learner action 0 must strictly dominate in every state")


def default_thresholds(n: int) -> np.ndarray:
    """Strictly decreasing thresholds 0.5 + 0.45 * (n - i) / n for i = 0..n-1."""
    return 0.5 + 0.45 * (n - np.arange(n)) / n


def build_chain_game(
    n: int,
    thresholds: Optional[Sequence[float]] = None,
    gamma_l: float = 0.9,
    gamma_e: Optional[float] = None,
    verify: bool = True,
) -> MarkovChainGame:
    """Construct the chain game with calibrated environment rewards.

    Learner rewards: action 0 pays the 1-based state index, action 1 one
    less, for every environment action. Environment rewards: staying pays 1
    when the learner plays 0 and 0 otherwise (expected stay reward p);
    advancing pays a state constant w_i chosen by a backward sweep so the
    advance-vs-stay indifference point equals the state's threshold. Staying
    at state i means staying forever, so its value is p/(1-gamma_e) and the
    advance condition p < p*_i holds exactly: the gap is strictly decreasing
    in p because every downstream value slope is at most 1/(1-gamma_e).
    """
    if n < 1:
        raise ValueError("the chain needs at least one state")
    if gamma_e is None:
        gamma_e = gamma_l

    learner_rewards = np.zeros((n, 2, 2))
    for i in range(n):
        learner_rewards[i, 0, :] = i + 1
        learner_rewards[i, 1, :] = i

    env_rewards = np.zeros((n, 2, 2))
    env_rewards[:, 0, 0] = 1.0  # stay pays the learner's probability on action 0
    env_rewards[:, 1, 0] = 0.0
    env_rewards[n - 1, :, 1] = env_rewards[n - 1, :, 0]  # advancing at the end self-loops

    if thresholds is None:
        thresholds = default_thresholds(n)
    game = MarkovChainGame(n, learner_rewards, env_rewards, gamma_l, gamma_e, thresholds)
    for i in range(n - 2, -1, -1):
        # the env value from state i + 1 reads only the rows already calibrated
        p_star = game.thresholds[i]
        _, values = env_best_response_mdp(game, p_star)
        game.env_rewards[i, :, 1] = p_star / (1.0 - gamma_e) - gamma_e * values[i + 1]
    if verify:
        _verify_calibration(game)
    return game


def _verify_calibration(game: MarkovChainGame) -> None:
    for i in range(game.n_states - 1):
        p_star = game.thresholds[i]
        below, _ = env_best_response_mdp(game, p_star - 1e-6)
        above, _ = env_best_response_mdp(game, min(p_star + 1e-6, 1.0))
        if below[i] != 1:
            raise CalibrationError(i, "environment does not advance just below the threshold")
        if above[i] != 0:
            raise CalibrationError(i, "environment does not stay just above the threshold")


def env_best_response_mdp(game: MarkovChainGame, p_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal environment policy and values when the learner plays p_bar
    everywhere, by one exact backward pass over the chain.

    Staying is absorbing, so a state is worth the larger of staying forever
    and advancing into the next state's value; at the last state both actions
    self-loop. Returns (policy, values); policy[i] = 1 advances, ties break
    toward stay.
    """
    rewards, gamma = game.env_rewards, game.gamma_e
    r_stay = p_bar * rewards[:, 0, 0] + (1.0 - p_bar) * rewards[:, 1, 0]
    r_adv = p_bar * rewards[:, 0, 1] + (1.0 - p_bar) * rewards[:, 1, 1]
    v = [max(r_stay[-1], r_adv[-1]) / (1.0 - gamma)]
    for stay, advance in zip(r_stay[-2::-1].tolist(), r_adv[-2::-1].tolist()):
        v.append(max(stay / (1.0 - gamma), advance + gamma * v[-1]))
    values = np.array(v[::-1])
    v_next = np.append(values[1:], values[-1])
    policy = (r_adv + gamma * v_next > r_stay + gamma * values).astype(int)
    return policy, values


def absorbing_state(game: MarkovChainGame, env_policy: np.ndarray) -> int:
    """First state (from 0) where the environment stays; the end if it never does."""
    for s in range(game.n_states):
        if env_policy[s] == 0:
            return s
    return game.n_states - 1


def _walk_value(
    rewards: np.ndarray, gamma: float, p_by_state: np.ndarray, env_policy: np.ndarray, n: int
) -> float:
    value = 0.0
    discount = 1.0
    s = 0
    while True:
        b = int(env_policy[s])
        stage = p_by_state[s] * rewards[s, 0, b] + (1.0 - p_by_state[s]) * rewards[s, 1, b]
        if b == 1 and s < n - 1:
            value += discount * stage
            discount *= gamma
            s += 1
        else:
            value += discount * stage / (1.0 - gamma)
            return value


def learner_value(game: MarkovChainGame, p_bar: float, env_policy: np.ndarray) -> float:
    """Exact discounted learner value from the start state under (p_bar, policy)."""
    p = np.full(game.n_states, p_bar)
    return _walk_value(game.learner_rewards, game.gamma_l, p, env_policy, game.n_states)


def env_value(game: MarkovChainGame, p_bar: float, env_policy: np.ndarray) -> float:
    p = np.full(game.n_states, p_bar)
    return _walk_value(game.env_rewards, game.gamma_e, p, env_policy, game.n_states)


def verify_dominance(
    game: MarkovChainGame, p_bar: float, env_policy: np.ndarray
) -> tuple[bool, float]:
    """Check that no single visited-state deviation to 1 - p_bar helps.

    Transitions ignore the learner, so deviating at state s changes only that
    state's stage reward, by (1 - 2 p_bar)(R_l[s, 0, b_s] - R_l[s, 1, b_s]),
    weighted by gamma_l^s and by 1 / (1 - gamma_l) at the absorbing state.
    Unvisited states cannot change the value, so the margin is taken over the
    states actually reached before absorption. Returns (ok, worst margin);
    ok means no deviation strictly improves the learner value.
    """
    last = absorbing_state(game, env_policy)
    visited = np.arange(last + 1)
    b = np.asarray(env_policy, dtype=int)[visited]
    gap = game.learner_rewards[visited, 0, b] - game.learner_rewards[visited, 1, b]
    weight = float(game.gamma_l) ** visited
    weight[last] /= 1.0 - game.gamma_l
    margin = float(np.min((2.0 * p_bar - 1.0) * gap * weight))
    return margin >= -1e-12, margin


@dataclass(eq=False)
class ChainEquilibrium:
    p_bar: float
    learner_policy: np.ndarray
    env_policy: np.ndarray
    learner_value: float
    env_value: float
    absorbing_state: int


def chain_equilibrium(game: MarkovChainGame, p_bar: float) -> ChainEquilibrium:
    """Markov-perfect equilibrium for the capped policy class.

    Action-0 dominance pins the learner to p_bar in every state; the
    environment then best-responds through its induced MDP.
    """
    if not 0.5 <= p_bar <= 1.0:
        raise ValueError("p_bar must lie in [0.5, 1]")
    policy, _ = env_best_response_mdp(game, p_bar)
    ok, margin = verify_dominance(game, p_bar, policy)
    if not ok:
        raise CalibrationError(-1, f"learner dominance violated (margin {margin:.3e})")
    return ChainEquilibrium(
        p_bar=p_bar,
        learner_policy=np.full(game.n_states, p_bar),
        env_policy=policy,
        learner_value=learner_value(game, p_bar, policy),
        env_value=env_value(game, p_bar, policy),
        absorbing_state=absorbing_state(game, policy),
    )


def payoff_sweep(
    game: MarkovChainGame, p_bar_grid: Sequence[float]
) -> list[ChainEquilibrium]:
    """Equilibrium per grid point; the reverse-scaling curve of the chain game."""
    return [chain_equilibrium(game, float(p)) for p in p_bar_grid]
