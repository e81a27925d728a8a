"""Strategic regression closed forms against hand values and MC oracles."""

import numpy as np
import pytest

from gamescale.regression import (
    K_RANGE,
    RegressionInstance,
    compare_model_classes,
    large_model_closed_form,
    large_model_env_objective,
    large_model_learner_loss,
    small_model_best_theta,
    small_model_env_objective,
    small_model_loss,
    stackelberg_outcome,
)
from oracles import (
    large_model_best_theta,
    mc_env_prediction,
    mc_gaussian_integrals,
    mc_least_squares,
    mc_model_loss,
    scalar_argmax_1d,
    scalar_large_closed_form,
    scalar_large_env_objective,
    scalar_large_learner_loss,
    scalar_shift,
    scalar_small_best_theta,
    scalar_small_env_objective,
    scalar_small_loss,
)

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
    outcome = stackelberg_outcome(INSTANCE, "small")
    assert abs(outcome.k_star - 1.0) <= 1e-5
    assert outcome.learner_loss == pytest.approx(0.5, abs=1e-9)


def test_small_equilibrium_scales_with_beta_norm():
    outcome = stackelberg_outcome(RegressionInstance(np.array([3.0, 4.0])), "small")
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
    outcome = stackelberg_outcome(INSTANCE, "large")
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
    # a population that can only choose k = 0 does not shift: both classes fit exactly
    inst = RegressionInstance(np.array([1.0, 0.0]))
    assert small_model_loss(inst, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert large_model_learner_loss(inst, 0.0) == pytest.approx(0.0, abs=1e-12)


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


@pytest.mark.parametrize(
    "beta, message",
    [
        (np.ones((2, 2)), "nonzero vector"),
        (np.ones(513), "at most MAX_DIM = 512 entries, got 513"),
        (np.array([1e200, 1e200]), "finite"),
        (np.array([np.nan, 1.0]), "finite"),
    ],
)
def test_bad_beta_rejected(beta, message):
    with pytest.raises(ValueError, match=message):
        RegressionInstance(beta)


def test_beta_at_the_cap_has_finite_losses():
    # the bump-class closed form is NaN from ~880 entries; the cap keeps it well clear
    instance = RegressionInstance(np.ones(512))
    ks = np.linspace(*K_RANGE, 81)
    for form in (small_model_loss, large_model_learner_loss, small_model_env_objective, large_model_env_objective):
        assert np.all(np.isfinite(form(instance, ks)))


# ---------------------------------------------------------------------------
# Array forms against the scalar references, bit for bit
# ---------------------------------------------------------------------------


def k_grid(step):
    lo, hi = K_RANGE
    return np.arange(lo, hi + 1e-12, step)


def scalar_values(scalar_form, instance, ks):
    return np.array([scalar_form(instance, float(k)) for k in ks])


def test_dominance_grid_matches_scalar_references_bit_for_bit():
    ks = k_grid(1e-3)
    # the grid holds k values whose q = theta*^T e has libm pow(q, 2) != q * q
    assert any(q**2 != q * q for q in small_model_env_objective(INSTANCE, ks).tolist())
    small = scalar_values(scalar_small_loss, INSTANCE, ks)
    large = scalar_values(scalar_large_learner_loss, INSTANCE, ks)
    assert small_model_loss(INSTANCE, ks).tobytes() == small.tobytes()
    assert large_model_learner_loss(INSTANCE, ks).tobytes() == large.tobytes()
    comp = compare_model_classes(INSTANCE)
    assert comp.pointwise_dominance == bool(np.all(large <= small + 1e-9))
    for outcome, env_objective in (
        (comp.small, scalar_small_env_objective),
        (comp.large, scalar_large_env_objective),
    ):
        assert outcome.k_star == scalar_argmax_1d(lambda k: env_objective(INSTANCE, k), *K_RANGE)
        assert type(outcome.learner_loss) is float and type(outcome.env_objective) is float


@pytest.mark.parametrize("beta", [(0.3, -1.7), (2.0, 1.0, 0.5), (1e-3,)])
def test_array_forms_match_scalar_references_bit_for_bit(beta):
    inst = RegressionInstance(np.array(beta))
    ks = k_grid(0.01)
    for array_form, scalar_form in (
        (RegressionInstance.shift, scalar_shift),
        (small_model_best_theta, scalar_small_best_theta),
        (small_model_loss, scalar_small_loss),
        (small_model_env_objective, scalar_small_env_objective),
        (large_model_learner_loss, scalar_large_learner_loss),
        (large_model_env_objective, scalar_large_env_objective),
    ):
        expected = scalar_values(scalar_form, inst, ks)
        assert array_form(inst, ks).tobytes() == expected.tobytes(), array_form.__name__
        assert np.asarray(array_form(inst, 2.5)).tobytes() == np.asarray(
            scalar_form(inst, 2.5)
        ).tobytes(), array_form.__name__
    cf = large_model_closed_form(inst, ks)
    fields = np.stack([cf.m, cf.y, cf.z, cf.c, cf.p], axis=1)
    assert fields.tobytes() == scalar_values(scalar_large_closed_form, inst, ks).tobytes()
