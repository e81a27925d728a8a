"""Best-response Jacobians, composed gradients, and restriction certificates."""

import math

import numpy as np
import pytest

import gamescale.restriction
from gamescale.instances import restriction_instance, zero_sum_instance
from gamescale.cli import certificate_record
from gamescale.core import GameSpec, central_difference
from gamescale.equilibrium import best_response
from gamescale.restriction import (
    BR_SOLVE_TOL,
    HypothesisNotSatisfiedError,
    RestrictionStageError,
    br_jacobian,
    certify_restriction,
    choose_direction,
    construct_restriction,
    delta_search,
    fbar_gradient,
)
from gamescale.sets import Box, ConvergenceError, Halfspace, box_1d
from oracles import composed_loss

ENV_BOX = box_1d(-3.0, 3.0)


def env_br(game, theta, env_set):
    """BR(theta) at the pipeline's tolerance, as certify_restriction passes it."""
    return best_response(game, "env", theta, env_set, tol=BR_SOLVE_TOL)


def linear_tracking_game(a_matrix):
    a_matrix = np.asarray(a_matrix, dtype=float)
    d_env, d_learner = a_matrix.shape
    return GameSpec(
        dim_learner=d_learner,
        dim_env=d_env,
        loss_learner=lambda t, e: 0.5 * float(t @ t) + float(t @ (a_matrix.T @ e)),
        loss_env=lambda t, e: 0.5 * float((e - a_matrix @ t) @ (e - a_matrix @ t)),
        grad_learner=lambda t, e: t + a_matrix.T @ e,
        grad_env=lambda t, e: e - a_matrix @ t,
        mu=0.5,
        lipschitz=2.0,
    )


# ---------------------------------------------------------------------------
# Best-response Jacobian
# ---------------------------------------------------------------------------


def test_br_jacobian_linear_tracking_matrix():
    a = np.array([[1.0, 0.5], [-0.25, 0.75]])
    game = linear_tracking_game(a)
    env_set = Box(-3.0 * np.ones(2), 3.0 * np.ones(2))
    theta = np.array([0.3, -0.2])
    jac = br_jacobian(game, theta, env_set, env_br(game, theta, env_set))
    np.testing.assert_allclose(jac, a, atol=1e-6)


def test_br_jacobian_zero_when_env_ignores_learner():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2,
        loss_env=lambda t, e: 0.5 * (e[0] - 0.4) ** 2,
        grad_learner=lambda t, e: np.array([t[0]]),
        grad_env=lambda t, e: np.array([e[0] - 0.4]),
        mu=1.0,
        lipschitz=1.0,
    )
    jac = br_jacobian(game, np.array([0.7]), ENV_BOX, env_br(game, np.array([0.7]), ENV_BOX))
    np.testing.assert_allclose(jac, [[0.0]], atol=1e-6)


def test_br_jacobian_scalar_coupling():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2,
        loss_env=lambda t, e: 0.5 * e[0] ** 2 - t[0] * e[0],
        grad_learner=lambda t, e: np.array([t[0]]),
        grad_env=lambda t, e: np.array([e[0] - t[0]]),
        mu=1.0,
        lipschitz=2.0,
    )
    jac = br_jacobian(game, np.array([0.5]), ENV_BOX, env_br(game, np.array([0.5]), ENV_BOX))
    np.testing.assert_allclose(jac, [[1.0]], atol=1e-6)


def test_br_jacobian_flags_boundary_response():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2,
        loss_env=lambda t, e: 0.5 * (e[0] - 10.0) ** 2,
        grad_learner=lambda t, e: np.array([t[0]]),
        grad_env=lambda t, e: np.array([e[0] - 10.0]),
        mu=1.0,
        lipschitz=1.0,
    )
    with pytest.raises(RestrictionStageError, match=r"^\[br_jacobian\]"):
        br_jacobian(game, np.array([0.0]), ENV_BOX, env_br(game, np.array([0.0]), ENV_BOX))


# ---------------------------------------------------------------------------
# Composed gradient
# ---------------------------------------------------------------------------


def test_fbar_reduces_to_own_gradient_without_cross_term():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * (t[0] - 1.5) ** 2,
        loss_env=lambda t, e: 0.5 * e[0] ** 2 - t[0] * e[0],
        grad_learner=lambda t, e: np.array([t[0] - 1.5]),
        grad_env=lambda t, e: np.array([e[0] - t[0]]),
        mu=1.0,
        lipschitz=2.0,
    )
    grad = fbar_gradient(game, np.array([0.25]), ENV_BOX, env_br(game, np.array([0.25]), ENV_BOX))
    np.testing.assert_allclose(grad, [0.25 - 1.5], atol=1e-6)


def test_fbar_composed_scalar_by_hand():
    # f_l = theta^2/2 + theta e, f_e = (e - theta)^2/2: BR = theta,
    # fbar = 3 theta^2 / 2, so the gradient at 1 is 3
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2 + t[0] * e[0],
        loss_env=lambda t, e: 0.5 * (e[0] - t[0]) ** 2,
        grad_learner=lambda t, e: np.array([t[0] + e[0]]),
        grad_env=lambda t, e: np.array([e[0] - t[0]]),
        mu=1.0,
        lipschitz=2.0,
    )
    grad = fbar_gradient(game, np.array([1.0]), ENV_BOX, env_br(game, np.array([1.0]), ENV_BOX))
    np.testing.assert_allclose(grad, [3.0], atol=1e-5)


def test_fbar_matches_finite_difference_oracle_on_random_games():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(100):
        a = float(rng.uniform(0.5, 2.0))
        b = float(rng.uniform(-1.0, 1.0))
        c = float(rng.uniform(0.2, 1.5))
        w = float(rng.uniform(-1.0, 1.0))
        game = GameSpec(
            dim_learner=1,
            dim_env=1,
            loss_learner=lambda t, e, a=a, b=b: 0.5 * a * t[0] ** 2 + b * t[0] * e[0] + 0.3 * e[0],
            loss_env=lambda t, e, c=c, w=w: 0.5 * c * (e[0] - w * t[0]) ** 2,
            grad_learner=lambda t, e, a=a, b=b: np.array([a * t[0] + b * e[0]]),
            grad_env=lambda t, e, c=c, w=w: np.array([c * (e[0] - w * t[0])]),
            mu=0.1,
            lipschitz=5.0,
        )
        theta = np.array([float(rng.uniform(-0.5, 0.5))])
        grad = fbar_gradient(game, theta, ENV_BOX, env_br(game, theta, ENV_BOX))
        oracle = central_difference(lambda t: composed_loss(game, t, ENV_BOX), theta, step=1e-4)
        scale = max(1.0, float(np.linalg.norm(oracle)))
        assert float(np.linalg.norm(grad - oracle)) <= 1e-4 * scale
        checked += 1
    assert checked == 100


# ---------------------------------------------------------------------------
# Direction and step
# ---------------------------------------------------------------------------


def test_choose_direction_normalizes():
    v = choose_direction(np.array([3.0, 4.0]))
    np.testing.assert_allclose(v, [0.6, 0.8])
    grad = np.array([3.0, 4.0])
    assert float(v @ grad) == pytest.approx(5.0)


def test_choose_direction_rejects_zero():
    with pytest.raises(RestrictionStageError, match=r"^\[direction\]"):
        choose_direction(np.zeros(2))


def test_choose_direction_rejects_a_nan_norm():
    with pytest.raises(RestrictionStageError, match=r"^\[direction\] composed gradient vanishes"):
        choose_direction(np.array([np.nan, 1.0]))


def affine_composed_game():
    # f_e independent of theta pins BR at 0.4; f_l is affine in theta there
    return GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: t[0] + e[0] ** 2,
        loss_env=lambda t, e: 0.5 * (e[0] - 0.4) ** 2,
        grad_learner=lambda t, e: np.array([1.0]),
        grad_env=lambda t, e: np.array([e[0] - 0.4]),
        mu=0.5,
        lipschitz=1.0,
    )


def test_delta_search_accepts_unit_step_on_affine_loss():
    game = affine_composed_game()
    reference = composed_loss(game, np.array([0.0]), ENV_BOX)
    delta, response = delta_search(
        game, np.array([0.0]), np.array([1.0]), ENV_BOX, box_1d(-2.0, 2.0), reference
    )
    assert delta == 1.0
    assert response.tobytes() == env_br(game, np.array([-1.0]), ENV_BOX).tobytes()


def test_delta_search_quadratic_instance():
    bench = restriction_instance()
    # composed loss is 2 theta^2 + theta: descent from 0 along +1 needs delta < 1/2
    reference = composed_loss(bench.game, np.array([0.0]), bench.env_set)
    delta, response = delta_search(
        bench.game, np.array([0.0]), np.array([1.0]), bench.env_set, bench.learner_set, reference
    )
    assert delta == 0.25
    assert response.tobytes() == env_br(bench.game, np.array([-delta]), bench.env_set).tobytes()
    assert composed_loss(bench.game, np.array([-delta]), bench.env_set) < 0.0


def test_delta_search_zero_slope_exhausts():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 1.0 + e[0] ** 2,
        loss_env=lambda t, e: 0.5 * e[0] ** 2,
        grad_learner=lambda t, e: np.array([0.0]),
        grad_env=lambda t, e: np.array([e[0]]),
        mu=0.5,
        lipschitz=1.0,
    )
    reference = composed_loss(game, np.array([0.0]), ENV_BOX)
    with pytest.raises(ConvergenceError):
        delta_search(game, np.array([0.0]), np.array([1.0]), ENV_BOX, box_1d(-2.0, 2.0), reference)


# ---------------------------------------------------------------------------
# Restricted-set construction
# ---------------------------------------------------------------------------


def test_construct_restriction_membership():
    bench = restriction_instance()
    theta_star = np.array([0.0])
    theta_prime = np.array([-0.25])
    v = np.array([1.0])
    e_prime = best_response(bench.game, "env", theta_prime, bench.env_set, tol=BR_SOLVE_TOL)
    restricted = construct_restriction(bench.game, theta_prime, e_prime, v, bench.learner_set)
    assert float(np.linalg.norm(theta_prime - restricted.project(theta_prime))) <= 1e-10
    assert float(np.linalg.norm(theta_star - restricted.project(theta_star))) > 1e-6


def test_construct_restriction_first_order_condition():
    bench = restriction_instance()
    theta_prime = np.array([-0.25])
    v = np.array([1.0])
    e_prime = best_response(bench.game, "env", theta_prime, bench.env_set, tol=1e-12)
    restricted = construct_restriction(bench.game, theta_prime, e_prime, v, bench.learner_set)
    grad = bench.game.grad_l(theta_prime, e_prime)
    moved = restricted.project(theta_prime - grad)
    assert float(np.linalg.norm(moved - theta_prime)) <= 1e-9


def test_construct_restriction_axis_aligned_matches_hand_qp():
    # 2-D learner, v along the first axis: the cut is a box-slab intersection
    game = GameSpec(
        dim_learner=2,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * float(t @ t) + e[0] * t[0],
        loss_env=lambda t, e: 0.5 * (e[0] - t[0]) ** 2,
        grad_learner=lambda t, e: t + np.array([e[0], 0.0]),
        grad_env=lambda t, e: np.array([e[0] - t[0]]),
        mu=1.0,
        lipschitz=2.0,
    )
    learner_set = Box(-np.ones(2), np.ones(2))
    theta_prime = np.array([-0.5, 0.0])
    v = np.array([1.0, 0.0])
    e_prime = best_response(game, "env", theta_prime, ENV_BOX, tol=BR_SOLVE_TOL)
    restricted = construct_restriction(game, theta_prime, e_prime, v, learner_set)
    # grad at theta' is (-1, 0): both halfspaces reduce to {theta_0 <= -0.5},
    # so the restricted set is the slab [-1, -0.5] x [-1, 1]
    for point, expected in [
        (np.array([0.7, 0.3]), np.array([-0.5, 0.3])),
        (np.array([-0.9, -2.0]), np.array([-0.9, -1.0])),
        (np.array([-0.5, 0.2]), np.array([-0.5, 0.2])),
    ]:
        np.testing.assert_allclose(restricted.project(point), expected, atol=1e-9)


# ---------------------------------------------------------------------------
# Full certificates
# ---------------------------------------------------------------------------


def test_certificate_on_shipped_instance():
    bench = restriction_instance()
    cert = certify_restriction(bench.game, bench.learner_set, bench.env_set)
    assert cert.improvement > 1e-4
    assert cert.restricted_residual <= 1e-6
    assert cert.restricted_loss < cert.original_loss - 1e-8
    # theta' in the cut, theta* excluded
    theta_star = cert.original_nash.theta
    theta_prime = cert.restricted_point.theta
    assert float(np.linalg.norm(theta_prime - cert.restricted_set.project(theta_prime))) <= 1e-9
    assert float(np.linalg.norm(theta_star - cert.restricted_set.project(theta_star))) > 1e-6
    # the cut is a strict subset of the original class
    assert bench.learner_set.contains(theta_prime)


def test_certificate_improvement_respects_taylor_bound():
    bench = restriction_instance()
    cert = certify_restriction(bench.game, bench.learner_set, bench.env_set)
    theta_star = cert.original_nash.theta
    grad = fbar_gradient(
        bench.game, theta_star, bench.env_set, env_br(bench.game, theta_star, bench.env_set)
    )
    first_order = cert.delta * float(grad @ cert.direction)
    composed_hessian_bound = 4.0  # fbar(theta) = 2 theta^2 + theta exactly
    bound = first_order - 0.5 * composed_hessian_bound * cert.delta**2
    assert cert.improvement >= bound - 1e-6


def test_zero_sum_control_reports_hypothesis_not_satisfied():
    bench = zero_sum_instance()
    with pytest.raises(HypothesisNotSatisfiedError):
        certify_restriction(bench.game, bench.learner_set, bench.env_set)


def test_boundary_nash_rejected_with_stage_tag():
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * (t[0] - 3.0) ** 2 + 0.1 * e[0],
        loss_env=lambda t, e: 0.5 * e[0] ** 2,
        grad_learner=lambda t, e: np.array([t[0] - 3.0]),
        grad_env=lambda t, e: np.array([e[0]]),
        mu=1.0,
        lipschitz=1.0,
    )
    with pytest.raises(RestrictionStageError) as err:
        certify_restriction(game, box_1d(-2.0, 2.0), box_1d(-2.0, 2.0))
    assert err.value.stage == "interior_check"


def test_weakly_monotone_game_rejected_at_audit():
    # the shipped instance with both losses halved has modulus 0.5, below the declared mu
    bench = restriction_instance()
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * bench.game.loss_learner(t, e),
        loss_env=lambda t, e: 0.5 * bench.game.loss_env(t, e),
        grad_learner=lambda t, e: 0.5 * bench.game.grad_l(t, e),
        grad_env=lambda t, e: 0.5 * bench.game.grad_e(t, e),
        mu=1.0,
        lipschitz=1.0,
    )
    with pytest.raises(RestrictionStageError) as err:
        certify_restriction(game, bench.learner_set, bench.env_set)
    assert err.value.stage == "monotonicity_audit"
    assert "5.000e-01" in str(err.value)


def test_point_region_fails_at_audit_stage():
    # every sampled pair coincides; the audit once redrew them without end
    game = restriction_instance().game
    with pytest.raises(RestrictionStageError) as err:
        certify_restriction(game, box_1d(0.5, 0.5), box_1d(1.0, 1.0))
    assert err.value.stage == "monotonicity_audit"
    assert "1280 pairs drawn, 0 of them" in str(err.value)


def _raising(error: type):
    def fail(*args, **kwargs):
        raise error("step failed")

    return fail


def _delta_search_then_zero_loss(game, *args):
    """The real step; then every learner loss reads 0, so no improvement is left to verify."""
    found = delta_search(game, *args)
    game.loss_learner = lambda t, e: 0.0
    return found


# each case replaces one step of the pipeline (a gamescale.restriction name, or
# an oracle of the game) and expects the stage tag, the cause's type and the message
STAGE_FAILURES = {
    "solve_nash-nash_solve": (
        "solve_nash", _raising(ConvergenceError), "nash_solve", ConvergenceError, "step failed"),
    "delta_search-delta_search": (
        "delta_search", _raising(ConvergenceError), "delta_search", ConvergenceError, "step failed"),
    "nan_gradient-monotonicity_audit": (
        "grad_learner", lambda t, e: np.full(np.shape(t), np.nan), "monotonicity_audit", FloatingPointError,
        "non-finite gradient components"),
    # it once read as a zero-sum outcome: no candidate beats a NaN reference
    "nan_learner_loss-pareto_check": (
        "loss_learner", lambda t, e: np.nan * t.T[0], "pareto_check", FloatingPointError,
        "loss_learner is not finite at x"),
    "nan_env_loss-pareto_check": (
        "loss_env", lambda t, e: np.nan * e.T[0], "pareto_check", FloatingPointError, "loss_env is not finite at x"),
    "pareto_improvement_search-pareto_check": (
        "pareto_improvement_search", _raising(ValueError), "pareto_check", ValueError, "step failed"),
    "best_response-br_jacobian": (
        "best_response", _raising(ConvergenceError), "br_jacobian", ConvergenceError, "step failed"),
    "fbar_gradient-br_jacobian": (
        "fbar_gradient", _raising(FloatingPointError), "br_jacobian", FloatingPointError, "step failed"),
    "construct_restriction-construction": (
        "construct_restriction", _raising(ValueError), "construction", ValueError, "step failed"),
    "nash_residual-verification": (
        "nash_residual", _raising(ConvergenceError), "verification", ConvergenceError, "step failed"),
    "theta_prime_cut_off-verification": (
        "construct_restriction", lambda game, theta, e, v, learner_set: Halfspace(v, float(v @ theta) - 1.0),
        "verification", type(None), "theta' fell outside the restricted set"),
    "theta_star_kept-verification": (
        "construct_restriction", lambda game, theta, e, v, learner_set: learner_set, "verification", type(None),
        "theta* was not removed by the restriction"),
    "not_nash-verification": (
        "nash_residual", lambda *args: 1.0, "verification", type(None),
        "restricted point is not a Nash point (residual 1.000e+00)"),
    "no_improvement-verification": (
        "delta_search", _delta_search_then_zero_loss, "verification", type(None),
        "restricted equilibrium did not improve the loss"),
}


@pytest.mark.parametrize("step, replacement, stage, cause, message", STAGE_FAILURES.values(), ids=STAGE_FAILURES)
def test_solver_failure_is_tagged_with_its_stage(monkeypatch, step, replacement, stage, cause, message):
    bench = restriction_instance()
    target = bench.game if hasattr(bench.game, step) else gamescale.restriction
    monkeypatch.setattr(target, step, replacement)
    with pytest.raises(RestrictionStageError) as err:
        certify_restriction(bench.game, bench.learner_set, bench.env_set)
    assert err.value.stage == stage
    assert str(err.value) == f"[{stage}] {message}"
    assert type(err.value.__cause__) is cause


def test_certificate_record_round_trips():
    bench = restriction_instance()
    cert = certify_restriction(bench.game, bench.learner_set, bench.env_set)
    record = certificate_record(cert)
    assert float(record["delta"]) == cert.delta
    assert float(record["improvement"]) == cert.improvement
    theta = [float(v) for v in record["restricted_theta"].split(",")]
    np.testing.assert_allclose(theta, cert.restricted_point.theta)
    assert math.isclose(float(record["restricted_loss"]), cert.restricted_loss)
