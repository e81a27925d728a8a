"""Equilibrium solvers: the four regimes, PSGD averaging, and the oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from gamescale.instances import (
    coupled_quadratic,
    decoupled_quadratic,
    nested_box_ladder,
    restriction_instance,
    stackelberg_scaling_factory,
    stationary_scaling_factory,
    zero_sum_instance,
)
from gamescale.core import Box, GameSpec, JointAction, ModelClassLadder, box_1d
from gamescale.equilibrium import (
    best_response,
    nash_report,
    nash_residual,
    pareto_improvement_search,
    psgd_nash,
    scaling_curve,
    solve_nash,
    stackelberg_leader,
    stationary_optimum,
)
from oracles import best_response_dynamics, grid_nash, regression_stackelberg_game
from test_core import coupling_game

BOX2 = Box(-2.0 * np.ones(1), 2.0 * np.ones(1))


# ---------------------------------------------------------------------------
# Stationary optimum
# ---------------------------------------------------------------------------


def quadratic_target_game(target):
    target = np.asarray(target, dtype=float)
    return GameSpec(
        dim_learner=target.shape[0],
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * float((t - target) @ (t - target)),
        loss_env=lambda t, e: 0.5 * float(e @ e),
        grad_learner=lambda t, e: t - target,
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=1.0,
    )


def test_stationary_interior_minimum():
    game = quadratic_target_game([0.0, 0.0])
    report = stationary_optimum(game, Box(-np.ones(2), np.ones(2)), np.zeros(1))
    np.testing.assert_allclose(report.joint.theta, [0.0, 0.0], atol=1e-8)
    assert abs(report.loss_learner) <= 1e-12


def test_stationary_clamped_minimum():
    game = quadratic_target_game([2.0, 0.0])
    report = stationary_optimum(game, Box(-np.ones(2), np.ones(2)), np.zeros(1))
    np.testing.assert_allclose(report.joint.theta, [1.0, 0.0], atol=1e-8)
    assert abs(report.loss_learner - 0.5) <= 1e-10


def test_stationary_nested_classes_monotone():
    game = quadratic_target_game([2.0, 0.0])
    small = stationary_optimum(game, Box(-0.5 * np.ones(2), 0.5 * np.ones(2)), np.zeros(1))
    large = stationary_optimum(game, Box(-np.ones(2), np.ones(2)), np.zeros(1))
    assert large.loss_learner <= small.loss_learner


# ---------------------------------------------------------------------------
# Best response
# ---------------------------------------------------------------------------


def tracking_game():
    return GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2,
        loss_env=lambda t, e: 0.5 * (e[0] - t[0]) ** 2,
        grad_learner=lambda t, e: np.array([t[0]]),
        grad_env=lambda t, e: np.array([e[0] - t[0]]),
        mu=1.0,
        lipschitz=2.0,
    )


def test_best_response_tracks_interior():
    e = best_response(tracking_game(), "env", np.array([0.7]), box_1d(0.0, 1.0))
    np.testing.assert_allclose(e, [0.7], atol=1e-9)


def test_best_response_clamps_to_boundary():
    e = best_response(tracking_game(), "env", np.array([2.0]), box_1d(0.0, 1.0))
    np.testing.assert_allclose(e, [1.0], atol=1e-9)


def test_best_response_linear_coupling():
    game = coupling_game(1.0)
    e = best_response(game, "env", np.array([0.3]), box_1d(-1.0, 1.0))
    np.testing.assert_allclose(e, [0.3], atol=1e-9)


# ---------------------------------------------------------------------------
# Stackelberg
# ---------------------------------------------------------------------------


def test_stackelberg_zero_sum_coincides_with_nash():
    bench = zero_sum_instance()
    report = stackelberg_leader(bench.game, "learner", bench.learner_set, bench.env_set)
    nash = nash_report(bench.game, bench.learner_set, bench.env_set)
    np.testing.assert_allclose(report.joint.theta, nash.joint.theta, atol=1e-4)
    assert abs(report.loss_learner - nash.loss_learner) <= 1e-6


def test_stackelberg_singleton_leader_degenerates_to_follower_optimum():
    game = tracking_game()
    leader_set = box_1d(0.7, 0.7)
    report = stackelberg_leader(game, "learner", leader_set, box_1d(0.0, 1.0))
    np.testing.assert_allclose(report.joint.theta, [0.7])
    follower = best_response(game, "env", np.array([0.7]), box_1d(0.0, 1.0))
    np.testing.assert_allclose(report.joint.env, follower, atol=1e-9)


def test_stackelberg_env_leads_regression_game():
    game, learner_set, env_set = regression_stackelberg_game(np.array([1.0, 0.0]))
    report = stackelberg_leader(game, "env", env_set, learner_set, grid_resolution=101)
    assert report.regime == "stackelberg_follower"
    assert abs(report.joint.env[0] - 1.0) <= 1e-3
    assert abs(report.loss_learner - 0.5) <= 1e-3


def test_stackelberg_leader_advantage_over_nash():
    factory = stackelberg_scaling_factory()
    inputs = factory(box_1d(-1.0, 1.0))
    leader = stackelberg_leader(inputs.game, "learner", box_1d(-1.0, 1.0), inputs.env_set)
    nash = nash_report(inputs.game, box_1d(-1.0, 1.0), inputs.env_set)
    assert leader.loss_learner <= nash.loss_learner + 1e-6


def test_stackelberg_high_dim_flagged_uncertified():
    target = np.array([0.5, -0.25, 0.75])
    game = GameSpec(
        dim_learner=3,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * float((t - target) @ (t - target)),
        loss_env=lambda t, e: 0.5 * float(e @ e),
        grad_learner=lambda t, e: t - target,
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=1.0,
    )
    report = stackelberg_leader(game, "learner", Box(-np.ones(3), np.ones(3)), box_1d(-1, 1))
    assert not report.certified
    np.testing.assert_allclose(report.joint.theta, target, atol=1e-6)


# ---------------------------------------------------------------------------
# PSGD
# ---------------------------------------------------------------------------


def test_psgd_decoupled_reaches_origin():
    game = decoupled_quadratic(sigma=0.0)
    x0 = JointAction(np.array([1.0]), np.array([1.0]))
    trace = psgd_nash(game, BOX2, BOX2, x0, 1000, np.random.default_rng(0))
    assert float(np.linalg.norm(trace.averaged_point.concat())) <= 1e-2


def test_psgd_coupled_linear_system_solution():
    bench = coupled_quadratic(sigma=0.0)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    trace = psgd_nash(bench.game, bench.learner_set, bench.env_set, x0, 20_000, np.random.default_rng(1))
    np.testing.assert_allclose(trace.averaged_point.theta, [0.0], atol=1e-3)
    np.testing.assert_allclose(trace.averaged_point.env, [1.0], atol=1e-3)


def test_psgd_rejects_bad_horizon():
    game = decoupled_quadratic()
    x0 = JointAction(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError):
        psgd_nash(game, BOX2, BOX2, x0, 0, np.random.default_rng(0))


def test_psgd_deterministic_given_seed():
    bench = coupled_quadratic(sigma=0.3)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    a = psgd_nash(bench.game, bench.learner_set, bench.env_set, x0, 500, np.random.default_rng(7))
    b = psgd_nash(bench.game, bench.learner_set, bench.env_set, x0, 500, np.random.default_rng(7))
    np.testing.assert_array_equal(a.averaged_point.concat(), b.averaged_point.concat())


def test_psgd_averaging_weights_sum_to_one_exactly():
    for horizon in [1, 2, 3, 17, 100, 10_000]:
        total = sum(Fraction(t, horizon * (horizon + 1) // 2) for t in range(1, horizon + 1))
        assert total == 1


def test_psgd_noiseless_error_decay():
    bench = coupled_quadratic(sigma=0.0)
    x0 = JointAction(np.array([2.0]), np.array([-2.0]))
    star = bench.nash.concat()
    errors = {}
    for horizon in [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]:
        trace = psgd_nash(bench.game, bench.learner_set, bench.env_set, x0, horizon, np.random.default_rng(2))
        errors[horizon] = float(np.linalg.norm(trace.averaged_point.concat() - star))
    horizons = sorted(errors)
    for a, b in zip(horizons, horizons[1:]):
        assert errors[b] <= errors[a] + 1e-12
    # at least c / sqrt(T): quadrupling T must at least halve the error
    assert errors[4096] <= errors[1024] / 2.0 * 1.001


def test_psgd_residual_small_at_large_horizon():
    bench = coupled_quadratic(sigma=0.1)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    trace = psgd_nash(bench.game, bench.learner_set, bench.env_set, x0, 10_000, np.random.default_rng(3))
    res = nash_residual(bench.game, trace.averaged_point, bench.learner_set, bench.env_set)
    assert res <= 1e-2


# ---------------------------------------------------------------------------
# Nash residual
# ---------------------------------------------------------------------------


def test_residual_zero_at_nash():
    game = decoupled_quadratic()
    assert nash_residual(game, JointAction(np.zeros(1), np.zeros(1)), BOX2, BOX2) <= 1e-10


def test_residual_off_equilibrium_by_hand():
    game = decoupled_quadratic()
    res = nash_residual(game, JointAction(np.array([1.0]), np.array([1.0])), BOX2, BOX2)
    assert abs(res - math.sqrt(2.0)) <= 1e-12


def test_residual_zero_at_clamped_nash():
    # learner pushed to the boundary: minimum of f_l sits outside the box
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * (t[0] - 3.0) ** 2,
        loss_env=lambda t, e: 0.5 * e[0] ** 2,
        grad_learner=lambda t, e: np.array([t[0] - 3.0]),
        grad_env=lambda t, e: np.array([e[0]]),
        mu=1.0,
        lipschitz=1.0,
    )
    x, _ = solve_nash(game, BOX2, BOX2, tol=1e-9)
    np.testing.assert_allclose(x.theta, [2.0], atol=1e-8)
    assert nash_residual(game, x, BOX2, BOX2) <= 1e-8


# ---------------------------------------------------------------------------
# Pareto improvement search
# ---------------------------------------------------------------------------


def test_pareto_zero_sum_nash_has_no_improvement():
    bench = zero_sum_instance()
    assert pareto_improvement_search(bench.game, bench.nash, bench.learner_set, bench.env_set) is None


def test_pareto_coupled_game_finds_witness():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2 + t[0] * e[0],
        loss_env=lambda t, e: 0.5 * e[0] ** 2 + t[0] * e[0],
        grad_learner=lambda t, e: np.array([t[0] + e[0]]),
        grad_env=lambda t, e: np.array([e[0] + t[0]]),
        mu=1.0,
        lipschitz=2.0,
    )
    box = box_1d(-1.0, 1.0)
    witness = pareto_improvement_search(game, JointAction(np.zeros(1), np.zeros(1)), box, box)
    assert witness is not None
    assert game.loss_learner(witness.theta, witness.env) < -1e-9
    assert game.loss_env(witness.theta, witness.env) <= 1e-12


def test_pareto_none_at_joint_minimum():
    game = quadratic_target_game([0.0])
    x = JointAction(np.zeros(1), np.zeros(1))
    assert pareto_improvement_search(game, x, box_1d(-1, 1), box_1d(-1, 1)) is None


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------


def test_oracles_agree_on_contractive_game():
    game = coupling_game(0.5)
    box = box_1d(-1.0, 1.0)
    exact, _ = solve_nash(game, box, box, tol=1e-11)
    grid_point, regret = grid_nash(game, box, box, resolution=101)
    spacing = 2.0 / 100
    x0 = JointAction(np.array([0.7]), np.array([-0.7]))
    br_point, _ = best_response_dynamics(game, box, box, x0)
    trace = psgd_nash(game, box, box, x0, 20_000, np.random.default_rng(4))
    for candidate in (grid_point, br_point, trace.averaged_point):
        assert float(np.linalg.norm(candidate.concat() - exact.concat())) <= spacing
    assert regret <= 1e-9


# ---------------------------------------------------------------------------
# Scaling curves
# ---------------------------------------------------------------------------


def test_scaling_curve_stationary_monotone():
    curve = scaling_curve(
        stationary_scaling_factory(np.array([2.0, 0.0])),
        nested_box_ladder([0.2, 0.4, 0.6, 0.8, 1.0], dim=2),
        "stationary",
    )
    losses = [rep.loss_learner for _, rep in curve]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_scaling_curve_stackelberg_monotone():
    curve = scaling_curve(
        stackelberg_scaling_factory(),
        nested_box_ladder([0.2, 0.4, 0.6, 0.8, 1.0], dim=1),
        "stackelberg_leader",
    )
    losses = [rep.loss_learner for _, rep in curve]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_scaling_curve_nash_restriction_improves():
    # ladder: the certified restricted set, then the full class
    bench = restriction_instance()
    from gamescale.restriction import certify_restriction

    cert = certify_restriction(bench.game, bench.learner_set, bench.env_set)
    ladder = ModelClassLadder([cert.restricted_set, bench.learner_set])
    from gamescale.equilibrium import RegimeInputs

    curve = scaling_curve(
        lambda s: RegimeInputs(game=bench.game, env_set=bench.env_set),
        ladder,
        "nash",
    )
    restricted_loss = curve[0][1].loss_learner
    full_loss = curve[1][1].loss_learner
    assert restricted_loss < full_loss - 1e-4


def test_scaling_curve_single_class_trivial():
    curve = scaling_curve(
        stationary_scaling_factory(np.array([2.0, 0.0])),
        nested_box_ladder([0.5], dim=2),
        "stationary",
    )
    assert len(curve) == 1
