"""Bayes classifiers, the uniform-noise trigger, and the alpha threshold."""

import itertools

import numpy as np
import pytest

from gamescale.participation import (
    AssumptionViolatedError,
    DiscreteDistribution,
    FeatureMap,
    alpha_threshold,
    bayes_classifier,
    default_instance,
    env_response,
    equilibrium_pair,
    is_cellwise_optimal,
    mix,
    uniform_distribution,
    uses_protected_features,
    zero_one_loss,
)


def two_feature_instance(confidence: float):
    """feature_sizes (2, 2), coordinate 1 protected, 4 labels; restricted
    Bayes loss = 1 - confidence in every retained cell."""
    phi = FeatureMap((2, 2), retained=(0,))
    probs = np.zeros((4, 4))
    for cell in range(4):
        r = cell // 2
        cond = np.zeros(4)
        cond[r] = confidence
        cond[(r + 1) % 4] = 1.0 - confidence
        probs[cell] = cond / 4.0
    return DiscreteDistribution((2, 2), probs), phi


# ---------------------------------------------------------------------------
# Bayes classifier and loss
# ---------------------------------------------------------------------------


def test_point_mass_classified_exactly():
    probs = np.zeros((4, 3))
    probs[2, 1] = 1.0
    dist = DiscreteDistribution((2, 2), probs)
    clf = bayes_classifier(dist)
    assert clf[2] == 1
    assert zero_one_loss(clf, dist) == 0.0


def test_uniform_distribution_all_ties():
    dist = uniform_distribution((2, 2), 4)
    clf = bayes_classifier(dist)
    np.testing.assert_array_equal(clf, 0)
    assert zero_one_loss(clf, dist) == pytest.approx(1.0 - 1.0 / 4.0)


def test_bayes_matches_exhaustive_classifier_search():
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(8)).reshape(4, 2)
    dist = DiscreteDistribution((2, 2), probs)
    clf = bayes_classifier(dist)
    best = min(
        zero_one_loss(np.array(labels), dist)
        for labels in itertools.product(range(2), repeat=4)
    )
    assert zero_one_loss(clf, dist) == pytest.approx(best, abs=1e-15)


def test_restricted_bayes_pools_protected_cells():
    base, phi = default_instance()
    clf = bayes_classifier(base, phi)
    # constant across the protected bit
    assert np.array_equal(clf, clf[phi.representative])
    assert zero_one_loss(clf, base) == pytest.approx(0.15, abs=1e-12)
    # no retained coordinate: every cell pools into restricted cell 0
    nothing = FeatureMap(base.feature_sizes, retained=())
    assert nothing.n_restricted == 1
    np.testing.assert_array_equal(nothing.restricted_index, np.zeros(base.n_cells, dtype=int))
    np.testing.assert_array_equal(nothing.representative, np.zeros(base.n_cells, dtype=int))
    constant = bayes_classifier(base, nothing)
    assert np.all(constant == np.argmax(base.probs.sum(axis=0)))


def test_loss_matches_direct_enumeration():
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(12)).reshape(4, 3)
    dist = DiscreteDistribution((2, 2), probs)
    labels = np.array([2, 0, 1, 1])
    direct = sum(
        dist.probs[cell, y]
        for cell in range(4)
        for y in range(3)
        if y != labels[cell]
    )
    assert zero_one_loss(labels, dist) == pytest.approx(direct)


def test_cellwise_optimality_detects_improvement():
    base, phi = default_instance()
    clf = bayes_classifier(base)
    assert is_cellwise_optimal(clf, base)
    worse = clf.copy()
    worse[0] = (worse[0] + 1) % base.n_labels
    assert not is_cellwise_optimal(worse, base)
    restricted = bayes_classifier(base, phi)
    assert is_cellwise_optimal(restricted, base, phi)


# ---------------------------------------------------------------------------
# Environment response
# ---------------------------------------------------------------------------


def test_response_truthful_when_protected_unused():
    base, phi = default_instance()
    clf = bayes_classifier(base, phi)
    assert not uses_protected_features(clf, base, phi)
    response = env_response(clf, base, phi, alpha=0.8)
    np.testing.assert_array_equal(response.probs, base.probs)


def test_response_uniform_when_protected_used_at_full_alpha():
    base, phi = default_instance()
    clf = bayes_classifier(base)
    assert uses_protected_features(clf, base, phi)
    response = env_response(clf, base, phi, alpha=1.0)
    np.testing.assert_allclose(response.probs, 1.0 / 32.0)


def test_response_mixture_arithmetic():
    base, phi = default_instance()
    clf = bayes_classifier(base)
    response = env_response(clf, base, phi, alpha=0.3)
    np.testing.assert_allclose(response.probs, 0.3 / 32.0 + 0.7 * base.probs, atol=1e-15)


def test_protected_use_ignores_zero_mass_cells():
    # positive mass only where the protected bit is 0: no observable use
    probs = np.zeros((4, 2))
    probs[0, 0] = 0.5  # cells (x0, t): index = 2*x0 + t
    probs[2, 1] = 0.5
    dist = DiscreteDistribution((2, 2), probs)
    phi = FeatureMap((2, 2), retained=(0,))
    labels = np.array([0, 1, 1, 0])  # differs on the zero-mass t=1 cells only
    assert not uses_protected_features(labels, dist, phi)


# ---------------------------------------------------------------------------
# Equilibria
# ---------------------------------------------------------------------------


def test_restricted_equilibrium_truthful_fixed_point():
    base, phi = default_instance()
    outcome = equilibrium_pair("restricted", base, phi, alpha=0.7)
    assert outcome.certified
    assert outcome.loss == pytest.approx(0.15, abs=1e-12)


def test_full_equilibrium_alpha_zero_reduces_to_base_bayes():
    base, phi = default_instance()
    outcome = equilibrium_pair("full", base, phi, alpha=0.0)
    assert outcome.certified
    assert outcome.loss == pytest.approx(0.1225, abs=1e-12)


def test_full_equilibrium_alpha_one_uniform_floor():
    base, phi = default_instance()
    outcome = equilibrium_pair("full", base, phi, alpha=1.0)
    assert outcome.certified
    assert outcome.loss >= 1.0 - 1.0 / base.n_labels - 1e-12


def test_full_equilibrium_loss_decomposition():
    base, phi = default_instance()
    for alpha in (0.3, 0.6, 0.9):
        outcome = equilibrium_pair("full", base, phi, alpha)
        expected = (1 - alpha) * 0.1225 + alpha * 0.75
        assert outcome.loss == pytest.approx(expected, abs=1e-12)


def test_full_equilibrium_without_protected_use_not_certified():
    # labels follow the retained coordinate alone, so the full Bayes rule does
    # not trigger the noise: the population stays truthful, which is not the
    # mixed distribution the classifier was fitted to unless alpha = 0, however
    # small alpha is
    probs = np.array([[0.6, 0.4], [0.6, 0.4], [0.3, 0.7], [0.3, 0.7]]) / 4.0
    base = DiscreteDistribution((2, 2), probs)
    phi = FeatureMap((2, 2), retained=(0,))
    assert equilibrium_pair("full", base, phi, alpha=0.0).certified
    for alpha in (1e-9, 0.5):
        assert not equilibrium_pair("full", base, phi, alpha).certified


def test_proof_inequality_chain():
    base, phi = default_instance()
    full_bayes_loss = zero_one_loss(bayes_classifier(base), base)
    for alpha in np.linspace(0.0, 1.0, 11):
        outcome = equilibrium_pair("full", base, phi, float(alpha))
        floor = (1 - alpha) * full_bayes_loss + alpha * (1 - 1.0 / base.n_labels)
        assert outcome.loss >= floor - 1e-12


# ---------------------------------------------------------------------------
# Alpha threshold
# ---------------------------------------------------------------------------


def test_threshold_arithmetic():
    base, phi = two_feature_instance(confidence=0.9)
    assert alpha_threshold(base, phi) == pytest.approx(0.4, abs=1e-12)


def test_threshold_zero_for_separable_restriction():
    base, phi = two_feature_instance(confidence=1.0)
    assert alpha_threshold(base, phi) == pytest.approx(0.0, abs=1e-15)
    for alpha in (0.25, 0.75):
        full = equilibrium_pair("full", base, phi, alpha)
        restricted = equilibrium_pair("restricted", base, phi, alpha)
        # separable restricted problem: reverse scaling whenever the full
        # class actually triggers the noise, which here needs protected use
        assert restricted.loss == 0.0
        assert full.loss >= restricted.loss


def test_reverse_scaling_above_threshold():
    base, phi = default_instance()
    threshold = alpha_threshold(base, phi)
    assert threshold == pytest.approx(0.6, abs=1e-12)
    for alpha in np.linspace(threshold, 1.0, 20):
        full = equilibrium_pair("full", base, phi, float(alpha))
        restricted = equilibrium_pair("restricted", base, phi, float(alpha))
        assert full.certified and restricted.certified
        assert full.loss > restricted.loss


def test_threshold_requires_better_than_random():
    base, phi = two_feature_instance(confidence=0.7)  # restricted loss 0.3 >= 1/4
    with pytest.raises(AssumptionViolatedError):
        alpha_threshold(base, phi)


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution((2, 2), np.full((4, 2), 0.2))
    with pytest.raises(ValueError):
        DiscreteDistribution((2, 2), -np.full((4, 2), 1.0 / 8.0))
    bad = np.full((3, 2), 1.0 / 6.0)
    with pytest.raises(ValueError):
        DiscreteDistribution((2, 2), bad)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DiscreteDistribution((2,), [[0.5, np.nan], [0.25, 0.25]]), "nonnegative"),
        (lambda: FeatureMap((2, 2), retained=(2,)), "out of range"),
        (lambda: env_response(np.zeros(4, dtype=int), *two_feature_instance(0.9), 1.5), r"alpha must lie"),
        (lambda: equilibrium_pair("nobody", *two_feature_instance(0.9), 0.5), "unknown model class"),
    ],
)
def test_bad_participation_input_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_mix_weights():
    base, _ = default_instance()
    u = uniform_distribution(base.feature_sizes, base.n_labels)
    m = mix(u, base, 0.25)
    np.testing.assert_allclose(m.probs, 0.25 * u.probs + 0.75 * base.probs)
