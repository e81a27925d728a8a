"""Strategic regression closed forms against hand values and MC oracles."""

import numpy as np
import pytest

from gamescale.regression import (
    RegressionInstance,
    compare_model_classes,
    large_model_best_theta,
    large_model_closed_form,
    large_model_env_objective,
    large_model_equilibrium,
    large_model_learner_loss,
    small_model_best_theta,
    small_model_env_objective,
    small_model_equilibrium,
    small_model_loss,
)
from oracles import mc_env_prediction, mc_gaussian_integrals, mc_least_squares, mc_model_loss

INSTANCE = RegressionInstance(np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# Small model
# ---------------------------------------------------------------------------


def test_small_theta_no_shift_recovers_beta():
    np.testing.assert_allclose(small_model_best_theta(INSTANCE, 0.0), INSTANCE.beta)


def test_small_theta_unit_shift_halves_beta():
    np.testing.assert_allclose(small_model_best_theta(INSTANCE, 1.0), 0.5 * INSTANCE.beta)


def test_small_theta_matches_monte_carlo_least_squares():
    theta_hat, se = mc_least_squares(INSTANCE, 1.0, 200_000, np.random.default_rng(0), with_bump=False)
    closed = small_model_best_theta(INSTANCE, 1.0)
    assert np.all(np.abs(theta_hat - closed) <= 3 * se)


def test_small_equilibrium_unit_beta():
    outcome = small_model_equilibrium(INSTANCE)
    assert abs(outcome.k_star - 1.0) <= 1e-5
    assert outcome.learner_loss == pytest.approx(0.5, abs=1e-9)


def test_small_equilibrium_scales_with_beta_norm():
    outcome = small_model_equilibrium(RegressionInstance(np.array([3.0, 4.0])))
    assert outcome.learner_loss == pytest.approx(12.5, abs=1e-7)


def test_small_env_objective_maximized_at_one():
    # calculus oracle: the derivative of k/(1+k^2) changes sign at k = 1
    ks = np.linspace(0.5, 1.5, 101)
    vals = [small_model_env_objective(INSTANCE, float(k)) for k in ks]
    assert np.argmax(vals) == 50
    derivative = lambda k: (1 - k * k) / (1 + k * k) ** 2
    assert derivative(0.9) > 0 > derivative(1.1)


def test_small_loss_closed_form_expression():
    for k in (0.0, 0.7, 2.5):
        assert small_model_loss(INSTANCE, k) == pytest.approx(k * k / (1 + k * k), abs=1e-12)


# ---------------------------------------------------------------------------
# Large model closed forms
# ---------------------------------------------------------------------------


def test_closed_form_at_zero_shift():
    cf = large_model_closed_form(INSTANCE, 0.0)
    assert cf.m == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert cf.y == pytest.approx(0.2, rel=1e-12)
    assert cf.z == pytest.approx(-(cf.m**2) / cf.y, rel=1e-12)
    assert cf.c == pytest.approx(1.0, rel=1e-12)
    assert cf.p == 0.0
    assert large_model_learner_loss(INSTANCE, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_large_shift_asymptotics():
    cf5 = large_model_closed_form(INSTANCE, 5.0)
    cf10 = large_model_closed_form(INSTANCE, 10.0)
    assert cf10.m < cf5.m < 1e-4
    assert cf10.c < cf5.c < 0.05
    theta1, _ = large_model_best_theta(INSTANCE, 10.0)
    assert float(np.linalg.norm(theta1)) < 0.02
    # the bump coefficient's objective contribution m*p vanishes even though
    # the coefficient itself blows up as the feature decouples from the data
    assert abs(cf10.m * cf10.p) < abs(cf5.m * cf5.p) < 1e-3


def test_gaussian_integrals_match_monte_carlo():
    rng = np.random.default_rng(1)
    for d, k in [(2, 0.5), (3, 1.0)]:
        inst = RegressionInstance(np.ones(d))
        cf = large_model_closed_form(inst, k)
        est = mc_gaussian_integrals(inst, k, 400_000, rng)
        mean1, se1 = est["exp1"]
        mean2, se2 = est["exp2"]
        assert abs(mean1 - 3.0 * cf.m) <= 3 * se1
        assert abs(mean2 - cf.y) <= 3 * se2


def test_large_loss_values():
    assert large_model_learner_loss(INSTANCE, 3.4) == pytest.approx(0.778, abs=0.01)
    beta2 = RegressionInstance(np.array([3.0, 4.0]))
    assert large_model_learner_loss(beta2, 3.4) == pytest.approx(25 * 0.778, abs=0.25)


def test_large_loss_matches_monte_carlo():
    rng = np.random.default_rng(2)
    for k in (0.5, 1.0, 2.0, 5.0):
        theta1, theta2 = large_model_best_theta(INSTANCE, k)
        mean, se = mc_model_loss(INSTANCE, k, theta1, theta2, 400_000, rng)
        assert abs(mean - large_model_learner_loss(INSTANCE, k)) <= 3 * se


def test_large_coefficients_match_monte_carlo_least_squares():
    rng = np.random.default_rng(3)
    theta_hat, se = mc_least_squares(INSTANCE, 1.0, 400_000, rng, with_bump=True)
    theta1, theta2 = large_model_best_theta(INSTANCE, 1.0)
    closed = np.concatenate([theta1, [theta2]])
    assert np.all(np.abs(theta_hat - closed) <= 3 * se)


def test_env_objective_zero_at_origin():
    assert large_model_env_objective(INSTANCE, 0.0) == 0.0


def test_env_objective_argmax_location():
    outcome = large_model_equilibrium(INSTANCE)
    assert abs(outcome.k_star - 3.4) <= 0.1


def test_env_objective_matches_monte_carlo():
    rng = np.random.default_rng(4)
    for k in (0.5, 2.0):
        theta1, theta2 = large_model_best_theta(INSTANCE, k)
        mean, se = mc_env_prediction(INSTANCE, k, theta1, theta2, 400_000, rng)
        assert abs(mean - large_model_env_objective(INSTANCE, k)) <= 3 * se


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def test_comparison_reverse_scaling_and_pointwise_dominance():
    comp = compare_model_classes(INSTANCE)
    assert comp.small.learner_loss == pytest.approx(0.5, abs=1e-9)
    assert 0.76 <= comp.large.learner_loss <= 0.80
    assert comp.reverse_scaling
    assert comp.pointwise_dominance
    gap = comp.large.learner_loss - comp.small.learner_loss
    assert abs(gap - 0.28) <= 0.03


def test_degenerate_k_range_no_manipulation():
    inst = RegressionInstance(np.array([1.0, 0.0]), k_range=(0.0, 0.0))
    comp = compare_model_classes(inst)
    assert comp.small.learner_loss == pytest.approx(0.0, abs=1e-12)
    assert comp.large.learner_loss == pytest.approx(0.0, abs=1e-12)
    assert not comp.reverse_scaling


def test_losses_scale_exactly_with_beta_norm_squared():
    a = RegressionInstance(np.array([1.0, 2.0]))
    b = RegressionInstance(np.array([2.0, 4.0]))
    for k in (0.5, 1.7, 3.4):
        assert large_model_learner_loss(b, k) == pytest.approx(
            4.0 * large_model_learner_loss(a, k), rel=1e-12
        )
        assert small_model_loss(b, k) == pytest.approx(
            4.0 * small_model_loss(a, k), rel=1e-12
        )


def test_instance_validation():
    with pytest.raises(ValueError):
        RegressionInstance(np.zeros(2))
    with pytest.raises(ValueError):
        RegressionInstance(np.array([1.0]), k_range=(1.0, -1.0))
