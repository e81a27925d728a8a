"""The Stackelberg grid search: leader-loss values read one batch call per block
must choose what one call per grid row chooses, bit for bit."""

import dataclasses

import numpy as np
import pytest

from gamescale import equilibrium
from gamescale.core import GameSpec
from gamescale.equilibrium import scaling_curve, stackelberg_leader
from gamescale.instances import nested_box_ladder, stackelberg_scaling_game
from gamescale.sets import Box, box_1d
from oracles import per_row_stackelberg

BENCH_RADII = [0.05 * i for i in range(1, 21)]  # the ladder workload's --radii


def report_bits(report):
    return (
        report.regime, report.joint.theta.tobytes(), report.joint.env.tobytes(), report.loss_learner.hex(),
        report.loss_env.hex(), report.nash_residual.hex(), report.iterations, report.certified,
    )


def counted(game, name, calls, batch=None):
    """game with its loss `name` counting single-point and batch calls in calls;
    batch(values) may alter a batch call's values."""
    loss = getattr(game, name)

    def spy(t, e):
        is_batch = np.ndim(t) == 2
        calls["batch" if is_batch else "single"] += 1
        v = loss(t, e)
        return batch(np.array(v, dtype=float)) if is_batch and batch is not None else v

    return dataclasses.replace(game, **{name: spy})


def assert_per_row_bits(game, leader, leader_sets, follower_sets, resolution, batch=None):
    """The grid search's reports equal the per-row search's; returns the leader-loss calls made."""
    name = "loss_learner" if leader == "learner" else "loss_env"
    calls = {"single": 0, "batch": 0}
    got = equilibrium._stackelberg(counted(game, name, calls, batch), leader, leader_sets, follower_sets, resolution)
    expected = per_row_stackelberg(game, leader, leader_sets, follower_sets, resolution)
    assert [report_bits(r) for r in got] == [report_bits(r) for r in expected]
    calls["evaluations"] = sum(r.iterations for r in got)
    return calls


@pytest.mark.parametrize("leader", ["learner", "env"])
def test_ladder_grid_has_per_row_bits_with_few_single_point_calls(leader):
    game, env_set = stackelberg_scaling_game()
    classes = nested_box_ladder(BENCH_RADII).classes
    envs = [env_set] * len(classes)
    sets = (classes, envs) if leader == "learner" else (envs, classes)
    calls = assert_per_row_bits(game, leader, *sets, 101)
    assert calls["evaluations"] == 20 * 3 * 101
    # the row-0 checks, one per block; the rounds' winners; undecided rows; the reports' losses
    assert calls["single"] <= 0.05 * calls["evaluations"]
    assert calls["batch"] >= 3


def leader_loss_family(kind, rng):
    """f(a0, a1, r) of the leader's first and last coordinates and the follower's
    response: steps of 1e-15 (ties, and values exactly on the rule's cut), a slope
    below 1e-15 across the grid (near ties), or squares, which a numpy float64
    takes through pow and an array through a product (they differ in the last
    bit on ~0.1% of inputs)."""
    c, k, s, u = rng.uniform(-2.0, 2.0), rng.integers(2, 8), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    if kind == "ties":
        return lambda a0, a1, r: c - 1e-15 * np.floor(k * (a0 + s * a1 + u * r))
    if kind == "near":
        return lambda a0, a1, r: c + 3e-16 * (a0 - s * a1) + 2e-16 * u * r
    return lambda a0, a1, r: (a0 - 0.3 * s) ** 2 + c * (a1 + r) ** 2 + u * a0 * r


def random_leader_game(rng, leader, dim_leader, kind):
    """A 1-D follower with curvature w and a random linear pull from the leader's
    coordinates; the gradients broadcast over rows with the single-point bits."""
    w, p0, p1 = rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
    f = leader_loss_family(kind, rng)
    pull = lambda a: (p0 * a.T[0] + p1 * a.T[-1])[..., np.newaxis]
    own = lambda x: 0.5 * w * x.T[0] * x.T[0]
    dl, de = (dim_leader, 1) if leader == "learner" else (1, dim_leader)
    if leader == "learner":
        losses = dict(loss_learner=lambda t, e: f(t.T[0], t.T[-1], e.T[0]), loss_env=lambda t, e: own(e))
        grads = dict(grad_learner=lambda t, e: t, grad_env=lambda t, e: w * e - pull(t))
    else:
        losses = dict(loss_learner=lambda t, e: own(t), loss_env=lambda t, e: f(e.T[0], e.T[-1], t.T[0]))
        grads = dict(grad_learner=lambda t, e: w * t - pull(e), grad_env=lambda t, e: e)
    return GameSpec(dim_learner=dl, dim_env=de, **losses, **grads, mu=1.0, lipschitz=3.0)


def random_leader_sets(rng, dim, count):
    lows = rng.uniform(-1.0, 0.0, (count, dim))
    return [Box(lo, lo + rng.uniform(0.1, 1.5, dim)) for lo in lows]


@pytest.mark.parametrize("kind", ["ties", "near", "square"])
@pytest.mark.parametrize("leader, dim_leader, resolution", [("learner", 1, 101), ("env", 1, 101), ("learner", 2, 21),
                                                            ("env", 2, 21)])
def test_random_games_have_per_row_bits(kind, leader, dim_leader, resolution):
    rng = np.random.default_rng([dim_leader, resolution, len(kind), int(leader == "learner")])
    for _ in range(3):
        game = random_leader_game(rng, leader, dim_leader, kind)
        leader_sets = random_leader_sets(rng, dim_leader, 4)
        follower_sets = [box_1d(-1.0, 1.0)] * 4
        calls = assert_per_row_bits(game, leader, leader_sets, follower_sets, resolution)
        assert calls["batch"] >= 3


@pytest.mark.parametrize("kind", ["ties", "near", "square"])
@pytest.mark.parametrize("leader", ["learner", "env"])
def test_batch_values_anywhere_within_7_ulps_give_per_row_bits(kind, leader):
    # the scan trusts a batch value to 8 ulps of the single point's; here every
    # row but row 0 (which GameSpec.loss checks) is moved by up to 7, so near ties
    # can swap order in the batch
    rng = np.random.default_rng([len(kind), int(leader == "learner"), 7])

    def jitter(values):
        steps = rng.integers(-7, 8, values.shape)
        steps[0] = 0
        return values + steps * np.spacing(values)

    for _ in range(4):
        game = random_leader_game(rng, leader, 1, kind)
        follower_sets = [box_1d(-1.0, 1.0)] * 4
        calls = assert_per_row_bits(game, leader, random_leader_sets(rng, 1, 4), follower_sets, 101, jitter)
        assert calls["batch"] >= 3


def test_row_within_the_slack_below_a_best_known_only_from_its_batch_value_is_called():
    # row 1 is taken on its batch value alone; row 2's single value lies 2e-15
    # below row 1's, so the rule takes it, but the batch moves the two 7 ulps
    # apart the other way; the scan must call both values, not skip row 2
    v1 = 1.0 - 20e-15
    v2 = v1 - 2e-15
    step = lambda a: np.where(a < 0.005, 1.0, np.where(a < 0.015, v1, np.where(a < 0.025, v2, 2.0)))
    swap = lambda values: np.where(values == v1, values - 7 * np.spacing(v1), np.where(
        values == v2, values + 7 * np.spacing(v2), values))
    game, env_set = stackelberg_scaling_game()
    game = dataclasses.replace(game, loss_learner=lambda t, e: step(t.T[0]) + 0.0 * e.T[0])
    assert_per_row_bits(game, "learner", [box_1d(0.0, 1.0)], [env_set], 101, swap)
    assert stackelberg_leader(game, "learner", box_1d(0.0, 1.0), env_set).loss_learner == v2


def test_scalar_only_leader_loss_falls_back_to_single_points():
    game, env_set = stackelberg_scaling_game()
    game = dataclasses.replace(game, loss_learner=lambda t, e: float(0.5 * (t[0] - 2.0) ** 2 + t[0] * e[0]))
    classes = nested_box_ladder([0.3, 0.6, 1.0]).classes
    calls = assert_per_row_bits(game, "learner", classes, [env_set] * 3, 101)
    assert calls["single"] >= calls["evaluations"]


def test_batch_one_ulp_off_on_row_0_is_rejected():
    def nudge(values):
        values[0] = np.nextafter(values[0], np.inf)
        return values

    game, env_set = stackelberg_scaling_game()
    classes = nested_box_ladder([0.3, 0.6, 1.0]).classes
    calls = assert_per_row_bits(game, "learner", classes, [env_set] * 3, 101, batch=nudge)
    assert calls["single"] >= calls["evaluations"]


def test_batch_off_beyond_the_slack_on_a_later_row_is_caught_by_the_winner_guard():
    # the batch puts one row of each block far below the rest: the scan takes it,
    # its single-point value is not within the slack, and the problem reruns row by row
    def sink(values):
        values[len(values) // 2] -= 10.0
        return values

    game, env_set = stackelberg_scaling_game()
    classes = nested_box_ladder([0.3, 0.6, 1.0]).classes
    calls = assert_per_row_bits(game, "learner", classes, [env_set] * 3, 101, batch=sink)
    assert calls["single"] >= 3 * 101


@pytest.mark.parametrize("leader", ["learner", "env"])
@pytest.mark.parametrize("batches", [True, False], ids=["broadcasting", "single_point_only"])
def test_nan_leader_loss_raises_floating_point_error_naming_the_oracle(leader, batches):
    # it once raised TypeError: no NaN beat the running best of inf, and the zoom read a None point
    game, env_set = stackelberg_scaling_game()
    name = "loss_learner" if leader == "learner" else "loss_env"
    nan = (lambda t, e: np.nan * t.T[0]) if batches else (lambda t, e: float("nan"))
    game = dataclasses.replace(game, **{name: nan})
    sets = (box_1d(-1.0, 1.0), env_set) if leader == "learner" else (env_set, box_1d(-1.0, 1.0))
    with pytest.raises(FloatingPointError, match=f"{name} is not finite"):
        stackelberg_leader(game, leader, *sets)
    regime = "stackelberg_leader" if leader == "learner" else "stackelberg_follower"
    with pytest.raises(FloatingPointError, match=f"{name} is not finite"):
        scaling_curve(game, nested_box_ladder([0.5, 1.0]), regime, env_set)


def test_pattern_search_nan_leader_loss_raises_floating_point_error():
    game, env_set = stackelberg_scaling_game()
    game = dataclasses.replace(
        game, dim_learner=3, loss_learner=lambda t, e: float("nan"), grad_learner=lambda t, e: t,
        grad_env=lambda t, e: e - t.T[:1].T,
    )
    with pytest.raises(FloatingPointError, match="loss_learner is not finite at a leader search point"):
        stackelberg_leader(game, "learner", Box(-np.ones(3), np.ones(3)), env_set)
