"""Chain Markov game: calibration, MDP solves, dominance, reverse scaling."""

import itertools
import tracemalloc

import numpy as np
import pytest

from gamescale import markov
from gamescale.markov import (
    CalibrationError,
    MarkovChainGame,
    PayoffSweep,
    _backward,
    _verify_calibration,
    build_chain_game,
    default_thresholds,
    env_best_response_mdp,
    payoff_sweep,
)
from gamescale.regression import BLOCK
from oracles import (
    absorbing_state,
    learner_value_for_policy,
    rewalk_dominance,
    rollout_value,
    scalar_env_best_response,
    scalar_verify_calibration,
    scalar_walk_value,
    value_iteration_env_response,
    verify_dominance,
)


def walk_value(game: MarkovChainGame, p_bar: float, env_policy: np.ndarray) -> float:
    """The learner's scalar-walk value when it plays p_bar in every state."""
    return learner_value_for_policy(game, np.full(game.n_states, p_bar), env_policy)


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


@pytest.mark.parametrize("field, index, value, message", [
    ("learner_rewards", (1, 0, 0), np.nan, "finite"),
    ("learner_rewards", (1, 1, 1), np.nan, "finite"),  # the dominated action
    ("env_rewards", (0, 1, 1), np.nan, "finite"),
    ("env_rewards", (2, 0, 0), np.inf, "finite"),
    ("thresholds", (0,), np.nan, "thresholds"),
    ("thresholds", (2,), np.nan, "thresholds"),
])
def test_non_finite_field_rejected(field, index, value, message):
    base = build_chain_game(3)
    fields = {
        "learner_rewards": base.learner_rewards.copy(),
        "env_rewards": base.env_rewards.copy(),
        "thresholds": base.thresholds.copy(),
    }
    fields[field][index] = value
    with pytest.raises(ValueError, match=message):
        MarkovChainGame(3, fields["learner_rewards"], fields["env_rewards"], 0.9, 0.9, fields["thresholds"])


def chain_game_with(**changes) -> MarkovChainGame:
    """MarkovChainGame(3, ...) with the fields of build_chain_game(3), some changed."""
    base = build_chain_game(3)
    fields = {name: getattr(base, name) for name in
              ("n_states", "learner_rewards", "env_rewards", "gamma_l", "gamma_e", "thresholds")}
    return MarkovChainGame(**{**fields, **changes})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: chain_game_with(n_states=0), "at least one state"),
        (lambda: build_chain_game(0), "at least one state"),
        (lambda: chain_game_with(env_rewards=np.zeros((2, 2, 2))), r"shape \(n_states, 2, 2\)"),
        (lambda: chain_game_with(gamma_l=1.0), "discount"),
        (lambda: chain_game_with(gamma_e=np.nan), "discount"),
        (lambda: chain_game_with(thresholds=[0.9, 0.8]), "one threshold per state"),
        (lambda: chain_game_with(learner_rewards=build_chain_game(3).learner_rewards[:, ::-1]), "dominate"),
    ],
)
def test_bad_chain_game_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_bad_thresholds_rejected():
    with pytest.raises(ValueError):
        build_chain_game(3, thresholds=[0.7, 0.7, 0.6])
    with pytest.raises(ValueError):
        build_chain_game(3, thresholds=[0.9, 0.8, 0.4])


@pytest.mark.parametrize("top", [np.inf, 1.5])
def test_thresholds_above_one_rejected(top):
    # a cap never exceeds 1; these once ran on into RuntimeWarnings and a CalibrationError
    with pytest.raises(ValueError, match="at most 1"):
        build_chain_game(2, thresholds=[top, 0.7])


def test_threshold_of_one_builds():
    game = build_chain_game(2, thresholds=[1.0, 0.7])
    assert game.thresholds.tolist() == [1.0, 0.7]


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
    base = build_chain_game(3)
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
    assert walk_value(game, p_bar, policy) == pytest.approx(stage / (1 - 0.9))


def test_zero_discount_gives_immediate_reward():
    game = build_chain_game(4, gamma_l=0.0, gamma_e=0.5)
    policy, _ = env_best_response_mdp(game, 0.8)
    stage = 0.8 * game.learner_rewards[0, 0, policy[0]] + 0.2 * game.learner_rewards[0, 1, policy[0]]
    assert walk_value(game, 0.8, policy) == pytest.approx(stage)


def test_three_state_value_matches_monte_carlo():
    game = build_chain_game(3, gamma_l=0.85, gamma_e=0.85)
    p_bar = 0.72
    policy, _ = env_best_response_mdp(game, p_bar)
    exact = walk_value(game, p_bar, policy)
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
        exact = walk_value(game, p_bar, policy)
        mean, se = rollout_value(game, p_bar, policy, episodes=30_000, horizon=400,
                                 rng=np.random.default_rng([13, trial]))
        assert abs(mean - exact) <= 3 * max(se, 1e-9)


def test_env_value_consistent_with_value_iteration():
    game = build_chain_game(6, gamma_l=0.9, gamma_e=0.9)
    p_bar = 0.66
    policy, values = env_best_response_mdp(game, p_bar)
    p = np.full(game.n_states, p_bar)
    env_value = scalar_walk_value(game.env_rewards, game.gamma_e, p, policy, game.n_states)
    assert env_value == pytest.approx(values[0], abs=1e-9)
    assert payoff_sweep(game, [p_bar]).env_value[0] == pytest.approx(values[0], abs=1e-9)


# ---------------------------------------------------------------------------
# Sweep properties
# ---------------------------------------------------------------------------


def test_threshold_segments_share_absorbing_state():
    game = build_chain_game(10, gamma_l=0.9)
    t = game.thresholds
    for i in range(3):
        lo, hi = t[i + 1], t[i]
        absorbs = set(payoff_sweep(game, lo + np.array([0.25, 0.5, 0.75]) * (hi - lo)).absorbing_state.tolist())
        assert len(absorbs) == 1
    # crossing one threshold moves the absorbing state by exactly one
    eps = 1e-4
    for i in range(1, 4):
        below, above = payoff_sweep(game, [t[i] - eps, t[i] + eps]).absorbing_state
        assert below - above == 1


def test_absorbing_state_non_increasing_in_p_bar():
    game = build_chain_game(50, gamma_l=0.9)
    sweep = payoff_sweep(game, np.linspace(0.5, 1.0, 200))
    absorbs = sweep.absorbing_state
    assert all(a >= b for a, b in zip(absorbs, absorbs[1:]))


def test_reverse_scaling_on_default_chain():
    game = build_chain_game(50, gamma_l=0.9)
    restricted, unrestricted = payoff_sweep(game, [0.55, 1.0]).learner_value
    assert restricted > unrestricted


def test_value_linear_within_segment():
    game = build_chain_game(10, gamma_l=0.9)
    t = game.thresholds
    lo, hi = t[4], t[3]
    ps = np.linspace(lo + 1e-3, hi - 1e-3, 7)
    values = payoff_sweep(game, ps).learner_value
    second_diff = np.diff(values, n=2)
    assert np.all(np.abs(second_diff) <= 1e-9)
    # value jumps upward when crossing into the deeper segment
    assert payoff_sweep(game, [lo - 1e-3]).learner_value[0] > values[0]


def test_uniform_cap_forces_single_policy():
    game = build_chain_game(5, gamma_l=0.9)
    sweep = payoff_sweep(game, [0.5])
    assert sweep.absorbing_state[0] == game.n_states - 1
    # the value is that of the learner playing 0.5 in every state
    policy, _ = env_best_response_mdp(game, 0.5)
    assert sweep.learner_value[0] == learner_value_for_policy(game, np.full(game.n_states, 0.5), policy)


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
    base = build_chain_game(3)
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
    with pytest.raises(CalibrationError) as err:
        payoff_sweep(game, [0.8])
    assert err.value.state == -1
    assert f"margin {margin:.3e}" in str(err.value)


@pytest.mark.parametrize("block", [3, BLOCK])
def test_block_dominance_check_agrees_with_per_cap_reference(monkeypatch, block):
    # random rewards, reversed dominance at one state in every other game, and
    # unsorted caps, so the first failing cap can sit in any block
    monkeypatch.setattr(markov, "BLOCK", block)
    rng = np.random.default_rng(16)
    raised = 0
    for trial in range(60):
        n = int(rng.integers(1, 10))
        learner_rewards = rng.normal(size=(n, 2, 2))
        learner_rewards[:, 0, :] = learner_rewards[:, 1, :] + rng.uniform(0.1, 2.0, size=(n, 2))
        game = MarkovChainGame(
            n, learner_rewards, rng.normal(size=(n, 2, 2)), float(rng.uniform(0.0, 0.95)),
            float(rng.uniform(0.0, 0.95)), default_thresholds(n),
        )
        if trial % 2 == 0:  # past the constructor check
            s = int(rng.integers(n))
            game.learner_rewards[s] = game.learner_rewards[s, ::-1].copy()
        grid = rng.uniform(0.5, 1.0, size=12)
        references = [verify_dominance(game, p, env_best_response_mdp(game, p)[0]) for p in grid.tolist()]
        failing = [margin for ok, margin in references if not ok]
        if not failing:
            payoff_sweep(game, grid)
            continue
        raised += 1
        with pytest.raises(CalibrationError) as err:
            payoff_sweep(game, grid)
        assert err.value.state == -1
        reported = float(str(err.value).rsplit("margin ", 1)[1].rstrip(")"))
        assert reported == pytest.approx(failing[0], rel=1e-3)
    assert raised > 10


def test_sweep_memory_is_bounded_by_the_block():
    game = build_chain_game(200)
    grid = np.linspace(0.5, 1.0, 4097)
    tracemalloc.start()
    try:
        payoff_sweep(game, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


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
    assert full == pytest.approx(payoff_sweep(game, [0.8]).learner_value[0])


def test_value_jumps_upward_across_every_threshold():
    game = build_chain_game(10, gamma_l=0.9)
    eps = 1e-4
    for i in range(game.n_states - 1):
        t = game.thresholds[i]
        deeper, shallower = payoff_sweep(game, [t - eps, t + eps]).learner_value
        assert deeper > shallower


def test_env_discount_defaults_to_learner_discount():
    game = build_chain_game(3, gamma_l=0.7)
    assert game.gamma_e == 0.7
    game2 = build_chain_game(3, gamma_l=0.7, gamma_e=0.2)
    assert game2.gamma_e == 0.2


# ---------------------------------------------------------------------------
# Batched passes against the scalar references, bit for bit
# ---------------------------------------------------------------------------


def calibration_caps(game: MarkovChainGame) -> np.ndarray:
    p_star = game.thresholds[:-1]
    return np.concatenate([p_star - 1e-6, np.minimum(p_star + 1e-6, 1.0)])


def assert_sweep_matches_scalar(game: MarkovChainGame, grid) -> PayoffSweep:
    hexes = lambda values: [float(v).hex() for v in np.ravel(values)]
    caps = np.asarray(grid, dtype=float)
    sweep = payoff_sweep(game, grid)
    assert all(column.shape == caps.shape for column in sweep)
    advance = np.empty((game.n_states, caps.size), dtype=bool)  # the batched policies
    for s, _, column in _backward(game, caps):
        advance[s] = column
    for index, p_bar in enumerate(caps.tolist()):
        policy, values = scalar_env_best_response(game, p_bar)
        p = np.full(game.n_states, p_bar)
        assert sweep.p_bar[index] == p_bar
        np.testing.assert_array_equal(advance[:, index], policy)
        assert sweep.absorbing_state[index] == absorbing_state(game, policy)
        assert hexes(sweep.learner_value[index]) == hexes(
            scalar_walk_value(game.learner_rewards, game.gamma_l, p, policy, game.n_states)
        )
        assert hexes(sweep.env_value[index]) == hexes(
            scalar_walk_value(game.env_rewards, game.gamma_e, p, policy, game.n_states)
        )
        if index % 5:  # the one-cap entry points on every fifth cap
            continue
        one_policy, one_values = env_best_response_mdp(game, p_bar)
        np.testing.assert_array_equal(one_policy, policy)
        assert hexes(one_values) == hexes(values)
        one = payoff_sweep(game, [p_bar])
        assert hexes(one.learner_value) == hexes(sweep.learner_value[index])
        assert hexes(one.env_value) == hexes(sweep.env_value[index])
    return sweep


@pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
def test_batched_sweep_has_scalar_bits_at_calibration_and_grid_points(n):
    game = build_chain_game(n, gamma_l=0.9)
    assert_sweep_matches_scalar(game, calibration_caps(game))
    assert_sweep_matches_scalar(game, np.linspace(0.5, 1.0, 200))


def test_batched_sweep_edges_have_scalar_bits():
    game = build_chain_game(10, gamma_l=0.9)
    t = game.thresholds
    sweep = assert_sweep_matches_scalar(game, [*t, 0.5, 1.0])
    # at p_bar = p*_i the environment is indifferent at state i; where the two
    # action values tie in floating point too (not at every threshold), it stays
    rewards, gamma, ties = game.env_rewards, game.gamma_e, 0
    for i in range(game.n_states - 1):
        _, values = scalar_env_best_response(game, t[i])
        stay = t[i] * rewards[i, 0, 0] + (1.0 - t[i]) * rewards[i, 1, 0] + gamma * values[i]
        go = t[i] * rewards[i, 0, 1] + (1.0 - t[i]) * rewards[i, 1, 1] + gamma * values[i + 1]
        if go == stay:
            ties += 1
            assert env_best_response_mdp(game, t[i])[0][i] == 0
            assert sweep.absorbing_state[i] == i
    assert ties > (game.n_states - 1) // 2
    assert sweep.absorbing_state[-2] == game.n_states - 1  # p_bar = 0.5 advances to the end
    assert sweep.absorbing_state[-1] == 0  # p_bar = 1.0 stays at the start


def test_batched_sweep_crosses_row_blocks_with_scalar_bits():
    game = build_chain_game(20, gamma_l=0.85, gamma_e=0.8)
    assert_sweep_matches_scalar(game, np.linspace(0.5, 1.0, BLOCK + 3))


def test_batched_passes_match_scalar_on_random_games():
    # arbitrary rewards: policies need not be advance-then-stay, rows leave
    # the walk at scattered states, and the grid is unsorted
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        learner_rewards = rng.normal(size=(n, 2, 2))
        learner_rewards[:, 0, :] = learner_rewards[:, 1, :] + rng.uniform(0.1, 2.0, size=(n, 2))
        game = MarkovChainGame(
            n, learner_rewards, rng.normal(size=(n, 2, 2)), float(rng.uniform(0.0, 0.95)),
            float(rng.uniform(0.0, 0.95)), default_thresholds(n),
        )
        assert_sweep_matches_scalar(game, rng.uniform(0.5, 1.0, size=25))


def test_batched_calibration_agrees_with_scalar_check():
    for n in (1, 2, 3, 50):
        game = build_chain_game(n, gamma_l=0.9)
        scalar_verify_calibration(game)


@pytest.mark.parametrize("branch, shift", [("advance just below", -1e-3), ("stay just above", 1e-3)])
def test_calibration_failure_names_the_state(branch, shift):
    game = build_chain_game(8, gamma_l=0.9)
    state = 4
    # a cheaper advance at state 4 moves its threshold down, a dearer one up;
    # caps near shallower thresholds stay at state 4 either way
    game.env_rewards[state, :, 1] += shift
    for check in (_verify_calibration, scalar_verify_calibration):
        with pytest.raises(CalibrationError) as err:
            check(game)
        assert err.value.state == state
        assert branch in str(err.value)


@pytest.mark.parametrize("p_bar", [0.4999, 1.0001, float("nan")])
def test_payoff_sweep_rejects_caps_outside_the_class(p_bar):
    game = build_chain_game(5)
    with pytest.raises(ValueError, match="p_bar"):
        payoff_sweep(game, [0.7, p_bar])
    with pytest.raises(ValueError, match="p_bar"):
        payoff_sweep(game, [p_bar])


@pytest.mark.parametrize("grid", [0.7, [[0.6, 0.7]]])
def test_payoff_sweep_takes_a_one_dimensional_grid(grid):
    with pytest.raises(ValueError, match="one-dimensional"):
        payoff_sweep(build_chain_game(5), grid)
