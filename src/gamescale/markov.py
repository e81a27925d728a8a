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
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .regression import BLOCK

# work caps of a markov run: the build's calibration check is O(n^2) elementwise
# work, and the sweep's points follow regression's 20,001 curve shifts
MAX_STATES = 5000
MAX_POINTS = 20_001


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
        if not n >= 1:
            raise ValueError("the chain needs at least one state")
        if self.learner_rewards.shape != (n, 2, 2) or self.env_rewards.shape != (n, 2, 2):
            raise ValueError("reward tensors must have shape (n_states, 2, 2)")
        if not (np.all(np.isfinite(self.learner_rewards)) and np.all(np.isfinite(self.env_rewards))):
            raise ValueError("reward tensors must be finite")
        if not (0.0 <= self.gamma_l < 1.0 and 0.0 <= self.gamma_e < 1.0):
            raise ValueError("discount factors must lie in [0, 1)")
        if self.thresholds.shape != (n,):
            raise ValueError("need one threshold per state")
        # each check is written to fail on NaN
        if not (np.all(np.diff(self.thresholds) < 0) and 1.0 >= self.thresholds[0] and self.thresholds[-1] > 0.5):
            raise ValueError("thresholds must be strictly decreasing, at most 1 and > 0.5")
        if not np.all(self.learner_rewards[:, 0, :] > self.learner_rewards[:, 1, :]):
            raise ValueError("learner action 0 must strictly dominate in every state")


def default_thresholds(n: int) -> np.ndarray:
    """Strictly decreasing thresholds 0.5 + 0.45 * (n - i) / n for i = 0..n-1."""
    return 0.5 + 0.45 * (n - np.arange(n)) / n


def build_chain_game(
    n: int,
    thresholds: Optional[Sequence[float]] = None,
    gamma_l: float = 0.9,
    gamma_e: Optional[float] = None,
) -> MarkovChainGame:
    """Construct the chain game with calibrated environment rewards.

    Learner rewards: action 0 pays the 1-based state index, action 1 one
    less, for every environment action. Environment rewards: staying pays 1
    when the learner plays 0 and 0 otherwise (expected stay reward p);
    advancing pays w_i = p*_i. Staying at state i means staying forever, worth
    p/(1-gamma_e); thresholds decrease, so at p = p*_i the environment stays at
    state i + 1 too, and advancing is worth w_i + gamma_e p/(1-gamma_e): the
    two tie exactly at the threshold. The advance condition p < p*_i holds
    exactly: the gap is strictly decreasing in p because every downstream
    value slope is at most 1/(1-gamma_e). The build checks the calibration
    before it returns.
    """
    if n < 1:
        raise ValueError("the chain needs at least one state")
    if gamma_e is None:
        gamma_e = gamma_l

    learner_rewards = np.repeat((np.arange(n)[:, None] + [1.0, 0.0])[:, :, None], 2, axis=2)
    env_rewards = np.zeros((n, 2, 2))
    env_rewards[:, 0, 0] = 1.0  # stay pays the learner's probability on action 0
    env_rewards[n - 1, :, 1] = env_rewards[n - 1, :, 0]  # advancing at the end self-loops

    if thresholds is None:
        thresholds = default_thresholds(n)
    game = MarkovChainGame(n, learner_rewards, env_rewards, gamma_l, gamma_e, thresholds)
    # p*_i in exact arithmetic; the indifference equation term by term fixes the last bits
    stay = game.thresholds[:-1] / (1.0 - gamma_e)
    game.env_rewards[:-1, :, 1] = (stay - gamma_e * stay)[:, None]
    _verify_calibration(game)
    return game


def _verify_calibration(game: MarkovChainGame) -> None:
    """Check every threshold by one backward pass over 2(n-1) caps: the
    environment advances from state i just below p*_i and stays just above."""
    m = game.n_states - 1
    p_star = game.thresholds[:-1]
    caps = np.concatenate([p_star - 1e-6, np.minimum(p_star + 1e-6, 1.0)])
    below, above = np.empty(m, dtype=bool), np.empty(m, dtype=bool)
    for s, _, advance in _backward(game, caps):
        if s < m:
            below[s], above[s] = advance[s], advance[m + s]
    failed = np.flatnonzero(above | ~below)  # the lowest state first, "below" before "above"
    if failed.size:
        i = int(failed[0])
        miss = "advance just below" if not below[i] else "stay just above"
        raise CalibrationError(i, f"environment does not {miss} the threshold")


def _backward(game: MarkovChainGame, p: np.ndarray):
    """Exact backward pass of the environment's MDP for each learner cap in p.

    Staying is absorbing, so a state is worth the larger of staying forever
    and advancing into the next state's value; at the last state both actions
    self-loop. Yields (state, values, advance) from the last state to the
    first, one entry per cap; advance is the policy, ties break toward stay.
    Only elementwise operations touch an entry, so it has one cap's bits.
    """
    rewards, gamma = game.env_rewards, game.gamma_e
    q = 1.0 - p
    v = None
    for s in range(game.n_states - 1, -1, -1):
        stay = p * rewards[s, 0, 0] + q * rewards[s, 1, 0]
        advance = p * rewards[s, 0, 1] + q * rewards[s, 1, 1]
        if v is None:
            v = np.maximum(stay, advance) / (1.0 - gamma)
            go = advance + gamma * v
        else:
            go = advance + gamma * v
            v = np.maximum(stay / (1.0 - gamma), go)
        yield s, v, go > stay + gamma * v


def env_best_response_mdp(game: MarkovChainGame, p_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal environment policy and values when the learner plays p_bar
    everywhere, by one exact backward pass over the chain (the one-cap case
    of `_backward`). Returns (policy, values); policy[i] = 1 advances, ties
    break toward stay.
    """
    policy, values = np.empty(game.n_states, dtype=int), np.empty(game.n_states)
    for s, v, advance in _backward(game, np.array([float(p_bar)])):
        values[s], policy[s] = v[0], advance[0]
    return policy, values


def _walk(
    rewards: np.ndarray, gamma: float, p: np.ndarray, advance: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Discounted value from state 0 and absorbing state per cap in p, where
    advance[s, r] (bool) is the environment's action at state s for cap r.

    All rows move one state at a time, and a row stops at its first stay or
    at the last state. Each row keeps the one-row walk's order of operations,
    so its bits: value += discount * stage and discount *= gamma per state
    passed, then discount * stage / (1 - gamma) at the absorbing state.
    """
    n = advance.shape[0]
    last = np.argmin(advance, axis=0)  # the first stay
    last[np.all(advance, axis=0)] = n - 1
    q = 1.0 - p
    value, discount, passing = np.zeros(p.size), np.ones(p.size), np.ones(p.size, dtype=bool)
    for s in range(n - 1):
        passing &= advance[s]
        if not passing.any():
            break
        stage = p * rewards[s, 0, 1] + q * rewards[s, 1, 1]
        value = np.where(passing, value + discount * stage, value)
        discount = np.where(passing, discount * gamma, discount)
    b = advance[last, np.arange(p.size)]
    stage = p * np.where(b, rewards[last, 0, 1], rewards[last, 0, 0]) + q * np.where(
        b, rewards[last, 1, 1], rewards[last, 1, 0]
    )
    return value + discount * stage / (1.0 - gamma), last


class PayoffSweep(NamedTuple):
    """The equilibrium at each grid cap, as columns in grid order."""

    p_bar: np.ndarray
    learner_value: np.ndarray
    env_value: np.ndarray
    absorbing_state: np.ndarray


def payoff_sweep(game: MarkovChainGame, p_bar_grid: Sequence[float]) -> PayoffSweep:
    """Markov-perfect equilibrium per grid cap; the reverse-scaling curve.

    Action-0 dominance pins the learner to p_bar in every state; the
    environment then best-responds through its induced MDP. The caps go
    BLOCK at a time through one backward pass and two forward walks, so the
    sweep holds one (n, BLOCK) bool policy; each cap gets the bits of its
    own one-cap solve. Each block then certifies that dominance holds:
    deviating to 1 - p_bar at a visited state s changes the learner value by
    (1 - 2 p_bar) gap[s, b_s] gamma_l^s, over 1 - gamma_l at the absorbing
    state. The states before it advance, so a cap's worst margin takes a
    prefix minimum over b = 1 and the absorbing term; the first failing cap
    in grid order raises CalibrationError.
    """
    grid = np.array(p_bar_grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("p_bar_grid must be one-dimensional")
    if not np.all((0.5 <= grid) & (grid <= 1.0)):
        raise ValueError("p_bar must lie in [0.5, 1]")
    n = game.n_states
    gap = game.learner_rewards[:, 0, :] - game.learner_rewards[:, 1, :]
    weight = float(game.gamma_l) ** np.arange(n)
    # worst term over states 0..s-1, all advancing; inf before state 0
    advancing = np.minimum.accumulate(np.append(np.inf, gap[:-1, 1] * weight[:-1]))
    absorbed = gap * (weight / (1.0 - game.gamma_l))[:, None]
    sweep = PayoffSweep(grid, np.empty(grid.size), np.empty(grid.size), np.empty(grid.size, dtype=int))
    for start in range(0, grid.size, BLOCK):
        block = slice(start, start + BLOCK)
        p = grid[block]
        advance = np.empty((n, p.size), dtype=bool)
        for s, _, column in _backward(game, p):
            advance[s] = column
        sweep.learner_value[block], last = _walk(game.learner_rewards, game.gamma_l, p, advance)
        sweep.env_value[block], _ = _walk(game.env_rewards, game.gamma_e, p, advance)
        sweep.absorbing_state[block] = last
        b = advance[last, np.arange(p.size)].astype(int)  # the absorbing state's action
        margin = (2.0 * p - 1.0) * np.minimum(advancing[last], absorbed[last, b])
        failed = np.flatnonzero(~(margin >= -1e-12))
        if failed.size:
            raise CalibrationError(-1, f"learner dominance violated (margin {margin[failed[0]]:.3e})")
    return sweep
