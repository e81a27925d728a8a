"""Chain Markov game: calibration, MDP solves, dominance, reverse scaling."""

import itertools

import numpy as np
import pytest

from gamescale.markov import (
    MarkovChainGame,
    absorbing_state,
    build_chain_game,
    chain_equilibrium,
    default_thresholds,
    env_best_response_mdp,
    env_value,
    learner_value,
    payoff_sweep,
    verify_dominance,
)
from oracles import (
    learner_value_for_policy,
    rewalk_dominance,
    rollout_value,
    value_iteration_env_response,
)


def enumerate_env_optimum(game: MarkovChainGame, p_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive oracle: evaluate every pure Markov env policy from every state."""
    n = game.n_states
    r = np.empty((n, 2))
    for b in (0, 1):
        r[:, b] = p_bar * game.env_rewards[:, 0, b] + (1.0 - p_bar) * game.env_rewards[:, 1, b]
    best_values = np.full(n, -np.inf)
    best_policy = None
    for bits in itertools.product((0, 1), repeat=n):
        policy = np.array(bits)
        values = np.empty(n)
        for start in range(n):
            v, disc, s = 0.0, 1.0, start
            while True:
                b = policy[s]
                if b == 1 and s < n - 1:
                    v += disc * r[s, 1]
                    disc *= game.gamma_e
                    s += 1
                else:
                    v += disc * r[s, b] / (1.0 - game.gamma_e)
                    break
            values[start] = v
        if values[0] > best_values[0] + 1e-12:
            best_policy = policy
        best_values = np.maximum(best_values, values)
    return best_policy, best_values


# ---------------------------------------------------------------------------
# Construction and calibration
# ---------------------------------------------------------------------------


def test_two_state_absorbing_states_by_policy_enumeration():
    game = build_chain_game(2, thresholds=[0.9, 0.7], gamma_l=0.8, gamma_e=0.8)
    for p_bar, expected_absorb in [(0.95, 0), (0.8, 1), (0.6, 1)]:
        policy, values = env_best_response_mdp(game, p_bar)
        assert absorbing_state(game, policy) == expected_absorb
        _, oracle_values = enumerate_env_optimum(game, p_bar)
        np.testing.assert_allclose(values, oracle_values, atol=1e-9)


def test_three_state_policy_matches_enumeration():
    game = build_chain_game(3, thresholds=[0.9, 0.7, 0.6], gamma_l=0.85, gamma_e=0.85)
    p_bar = 0.8  # between p*_2 and p*_1: advance at s_1, stay at s_2 (and s_3)
    policy, values = env_best_response_mdp(game, p_bar)
    np.testing.assert_array_equal(policy, [1, 0, 0])
    _, oracle_values = enumerate_env_optimum(game, p_bar)
    np.testing.assert_allclose(values, oracle_values, atol=1e-9)


def test_learner_dominance_by_construction():
    game = build_chain_game(5)
    assert np.all(game.learner_rewards[:, 0, :] - game.learner_rewards[:, 1, :] > 0)


def test_bad_thresholds_rejected():
    with pytest.raises(ValueError):
        build_chain_game(3, thresholds=[0.7, 0.7, 0.6])
    with pytest.raises(ValueError):
        build_chain_game(3, thresholds=[0.9, 0.8, 0.4])


def test_default_thresholds_valid():
    t = default_thresholds(50)
    assert np.all(np.diff(t) < 0)
    assert t[-1] > 0.5
    assert t[0] == pytest.approx(0.95)


def test_myopic_env_reduces_to_stage_comparison():
    game = build_chain_game(4, gamma_l=0.9, gamma_e=0.0)
    for p_bar in (0.55, 0.7, 0.92):
        policy, _ = env_best_response_mdp(game, p_bar)
        for s in range(game.n_states):
            stay = p_bar * game.env_rewards[s, 0, 0] + (1 - p_bar) * game.env_rewards[s, 1, 0]
            adv = p_bar * game.env_rewards[s, 0, 1] + (1 - p_bar) * game.env_rewards[s, 1, 1]
            assert policy[s] == (1 if adv > stay else 0)


def test_equal_env_rewards_tie_toward_stay():
    base = build_chain_game(3, verify=False)
    game = MarkovChainGame(
        3, base.learner_rewards, np.ones((3, 2, 2)), 0.9, 0.9, base.thresholds
    )
    policy, _ = env_best_response_mdp(game, 0.7)
    np.testing.assert_array_equal(policy, [0, 0, 0])


def test_backward_pass_matches_value_iteration_on_random_games():
    rng = np.random.default_rng(14)
    for trial in range(150):
        n = int(rng.integers(1, 9))
        learner_rewards = rng.normal(size=(n, 2, 2))
        learner_rewards[:, 0, :] = learner_rewards[:, 1, :] + rng.uniform(0.1, 2.0, size=(n, 2))
        game = MarkovChainGame(
            n, learner_rewards, rng.normal(size=(n, 2, 2)), float(rng.uniform(0.0, 0.95)),
            float(rng.uniform(0.0, 0.95)), default_thresholds(n),
        )
        if trial % 3 == 0:  # reverse learner dominance at one state, past the constructor check
            s = int(rng.integers(n))
            game.learner_rewards[s] = game.learner_rewards[s, ::-1].copy()
        p_bar = float(rng.uniform(0.5, 1.0))
        policy, values = env_best_response_mdp(game, p_bar)
        vi_policy, vi_values = value_iteration_env_response(game, p_bar)
        np.testing.assert_array_equal(policy, vi_policy)
        np.testing.assert_allclose(values, vi_values, atol=1e-9)
        if n <= 6:
            np.testing.assert_allclose(values, enumerate_env_optimum(game, p_bar)[1], atol=1e-9)
        ok, margin = verify_dominance(game, p_bar, policy)
        ref_ok, ref_margin = rewalk_dominance(game, p_bar, policy)
        assert ok == ref_ok
        assert margin == pytest.approx(ref_margin, abs=1e-9)


# ---------------------------------------------------------------------------
# Learner value
# ---------------------------------------------------------------------------


def test_single_state_geometric_series():
    game = build_chain_game(1, thresholds=[0.6], gamma_l=0.9, gamma_e=0.9)
    policy = np.array([0])
    p_bar = 0.75
    stage = p_bar * 1.0 + (1 - p_bar) * 0.0  # R_l(s_1, 0, b) = 1, R_l(s_1, 1, b) = 0
    assert learner_value(game, p_bar, policy) == pytest.approx(stage / (1 - 0.9))


def test_zero_discount_gives_immediate_reward():
    game = build_chain_game(4, gamma_l=0.0, gamma_e=0.5)
    policy, _ = env_best_response_mdp(game, 0.8)
    stage = 0.8 * game.learner_rewards[0, 0, policy[0]] + 0.2 * game.learner_rewards[0, 1, policy[0]]
    assert learner_value(game, 0.8, policy) == pytest.approx(stage)


def test_three_state_value_matches_monte_carlo():
    game = build_chain_game(3, gamma_l=0.85, gamma_e=0.85)
    p_bar = 0.72
    policy, _ = env_best_response_mdp(game, p_bar)
    exact = learner_value(game, p_bar, policy)
    mean, se = rollout_value(game, p_bar, policy, episodes=100_000, horizon=300,
                             rng=np.random.default_rng(11))
    assert abs(mean - exact) <= 3 * se


def test_dp_matches_monte_carlo_on_random_instances():
    rng = np.random.default_rng(12)
    for trial in range(5):
        n = int(rng.integers(3, 8))
        gamma = float(rng.uniform(0.5, 0.95))
        game = build_chain_game(n, gamma_l=gamma, gamma_e=gamma)
        p_bar = float(rng.uniform(0.5, 1.0))
        policy, _ = env_best_response_mdp(game, p_bar)
        exact = learner_value(game, p_bar, policy)
        mean, se = rollout_value(game, p_bar, policy, episodes=30_000, horizon=400,
                                 rng=np.random.default_rng([13, trial]))
        assert abs(mean - exact) <= 3 * max(se, 1e-9)


def test_env_value_consistent_with_value_iteration():
    game = build_chain_game(6, gamma_l=0.9, gamma_e=0.9)
    p_bar = 0.66
    policy, values = env_best_response_mdp(game, p_bar)
    assert env_value(game, p_bar, policy) == pytest.approx(values[0], abs=1e-9)


# ---------------------------------------------------------------------------
# Sweep properties
# ---------------------------------------------------------------------------


def test_threshold_segments_share_absorbing_state():
    game = build_chain_game(10, gamma_l=0.9)
    t = game.thresholds
    for i in range(3):
        lo, hi = t[i + 1], t[i]
        absorbs = {
            chain_equilibrium(game, lo + frac * (hi - lo)).absorbing_state
            for frac in (0.25, 0.5, 0.75)
        }
        assert len(absorbs) == 1
    # crossing one threshold moves the absorbing state by exactly one
    eps = 1e-4
    for i in range(1, 4):
        below = chain_equilibrium(game, t[i] - eps).absorbing_state
        above = chain_equilibrium(game, t[i] + eps).absorbing_state
        assert below - above == 1


def test_absorbing_state_non_increasing_in_p_bar():
    game = build_chain_game(50, gamma_l=0.9)
    sweep = payoff_sweep(game, np.linspace(0.5, 1.0, 200))
    absorbs = [eq.absorbing_state for eq in sweep]
    assert all(a >= b for a, b in zip(absorbs, absorbs[1:]))


def test_reverse_scaling_on_default_chain():
    game = build_chain_game(50, gamma_l=0.9)
    restricted = chain_equilibrium(game, 0.55)
    unrestricted = chain_equilibrium(game, 1.0)
    assert restricted.learner_value > unrestricted.learner_value


def test_value_linear_within_segment():
    game = build_chain_game(10, gamma_l=0.9)
    t = game.thresholds
    lo, hi = t[4], t[3]
    ps = np.linspace(lo + 1e-3, hi - 1e-3, 7)
    values = [chain_equilibrium(game, float(p)).learner_value for p in ps]
    second_diff = np.diff(values, n=2)
    assert np.all(np.abs(second_diff) <= 1e-9)
    # value jumps upward when crossing into the deeper segment
    assert chain_equilibrium(game, lo - 1e-3).learner_value > values[0]


def test_uniform_cap_forces_single_policy():
    game = build_chain_game(5, gamma_l=0.9)
    eq = chain_equilibrium(game, 0.5)
    assert eq.absorbing_state == game.n_states - 1
    np.testing.assert_allclose(eq.learner_policy, 0.5)


# ---------------------------------------------------------------------------
# Dominance verification
# ---------------------------------------------------------------------------


def test_dominance_holds_on_calibrated_game():
    game = build_chain_game(8, gamma_l=0.9)
    policy, _ = env_best_response_mdp(game, 0.7)
    ok, margin = verify_dominance(game, 0.7, policy)
    assert ok
    assert margin > 0


def test_reversed_dominance_detected():
    base = build_chain_game(3, verify=False)
    rewards = base.learner_rewards.copy()
    rewards[0, 0, :], rewards[0, 1, :] = 0.0, 5.0  # reversed at the start state
    game = MarkovChainGame.__new__(MarkovChainGame)
    game.n_states = 3
    game.learner_rewards = rewards
    game.env_rewards = base.env_rewards
    game.gamma_l = base.gamma_l
    game.gamma_e = base.gamma_e
    game.thresholds = base.thresholds
    policy, _ = env_best_response_mdp(game, 0.8)
    ok, margin = verify_dominance(game, 0.8, policy)
    assert not ok
    assert margin < 0


def test_dominance_margin_scales_with_reward_gap():
    margins = []
    for gap in (1.0, 2.0):
        lr = np.zeros((1, 2, 2))
        lr[0, 0, :] = gap
        game = MarkovChainGame(1, lr, np.zeros((1, 2, 2)), 0.9, 0.9, np.array([0.6]))
        _, margin = verify_dominance(game, 0.8, np.array([0]))
        margins.append(margin)
    assert margins[1] == pytest.approx(2.0 * margins[0], rel=1e-12)
    # closed form: (2 p - 1) * gap / (1 - gamma)
    assert margins[0] == pytest.approx((2 * 0.8 - 1) * 1.0 / 0.1, rel=1e-12)


def test_deviation_evaluation_uses_per_state_probabilities():
    game = build_chain_game(3, gamma_l=0.9)
    policy, _ = env_best_response_mdp(game, 0.8)
    full = learner_value_for_policy(game, np.full(3, 0.8), policy)
    assert full == pytest.approx(learner_value(game, 0.8, policy))


def test_value_jumps_upward_across_every_threshold():
    game = build_chain_game(10, gamma_l=0.9)
    eps = 1e-4
    for i in range(game.n_states - 1):
        t = game.thresholds[i]
        deeper = chain_equilibrium(game, t - eps).learner_value
        shallower = chain_equilibrium(game, t + eps).learner_value
        assert deeper > shallower


def test_env_discount_defaults_to_learner_discount():
    game = build_chain_game(3, gamma_l=0.7)
    assert game.gamma_e == 0.7
    game2 = build_chain_game(3, gamma_l=0.7, gamma_e=0.2)
    assert game2.gamma_e == 0.2
