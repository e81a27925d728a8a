"""Confidence radii, gap statistics, and successive elimination."""

import math

import numpy as np
import pytest

from gamescale.instances import selection_arms
from gamescale.selection import (
    confidence_radius,
    successive_elimination,
)
from oracles import suboptimality_gaps


# ---------------------------------------------------------------------------
# Confidence radius
# ---------------------------------------------------------------------------


def test_radius_unit_case():
    assert confidence_radius(1.0, 1.0, 1, math.exp(-1.0)) == pytest.approx(2.0, rel=1e-12)


def test_radius_halves_when_horizon_doubles():
    a = confidence_radius(1.5, 0.7, 100, 0.05)
    b = confidence_radius(1.5, 0.7, 200, 0.05)
    assert b == pytest.approx(a / 2.0, rel=1e-12)


def test_radius_plugged_in_value():
    got = confidence_radius(2.0, 1.0, 100, 0.1)
    assert got == pytest.approx((4.0 * math.log(10.0) + 8.0) / 100.0, rel=1e-12)
    assert got == pytest.approx(0.1721034, abs=1e-6)


def test_radius_validates_arguments():
    with pytest.raises(ValueError):
        confidence_radius(1.0, 1.0, 0, 0.1)
    with pytest.raises(ValueError):
        confidence_radius(1.0, 1.0, 10, 1.5)
    with pytest.raises(ValueError):
        confidence_radius(1.0, 1.0, 10, 0.0)


def test_radius_monotone_in_parameters():
    rng = np.random.default_rng(0)
    for _ in range(200):
        L = float(rng.uniform(0.1, 5.0))
        mu = float(rng.uniform(0.05, L))
        T = int(rng.integers(1, 10_000))
        delta = float(rng.uniform(1e-6, 0.999))
        base = confidence_radius(L, mu, T, delta)
        assert confidence_radius(L, mu, T + 1, delta) < base
        assert confidence_radius(L * 1.1, mu, T, delta) > base
        assert confidence_radius(L, mu, T, delta * 0.9) > base


# ---------------------------------------------------------------------------
# Suboptimality gaps
# ---------------------------------------------------------------------------


def test_gaps_basic():
    gaps, dstar = suboptimality_gaps([0.0, 0.5, 1.0])
    assert gaps == [0.0, 0.5, 1.0]
    assert dstar == 0.5


def test_gaps_all_equal_undefined():
    gaps, dstar = suboptimality_gaps([0.2, 0.2])
    assert gaps == [0.0, 0.0]
    assert dstar is None


def test_gaps_unsorted_input():
    gaps, dstar = suboptimality_gaps([1.0, 0.75, 0.9])
    assert gaps == pytest.approx([0.25, 0.0, 0.15])
    assert dstar == pytest.approx(0.15)


def test_gaps_empty_rejected():
    with pytest.raises(ValueError):
        suboptimality_gaps([])


# ---------------------------------------------------------------------------
# Successive elimination
# ---------------------------------------------------------------------------


def test_two_arms_identify_best_in_most_runs():
    arms, game, env_set = selection_arms([0.0, 0.5], sigma=0.5)
    wins = 0
    for s in range(50):
        report = successive_elimination(
            arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng([100, s])
        )
        if report.winner == 0:
            wins += 1
    assert wins >= 45


def test_identical_arms_inconclusive_at_budget():
    arms, game, env_set = selection_arms([0.3, 0.3, 0.3], sigma=0.5)
    report = successive_elimination(
        arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng(1), max_total_steps=5_000
    )
    assert report.inconclusive
    assert report.winner is None
    assert sorted(report.survivors) == [0, 1, 2]


def test_elimination_monotone_and_log_reconstructs_active_sets():
    arms, game, env_set = selection_arms([0.0, 0.25, 0.5, 1.0], sigma=0.5)
    report = successive_elimination(
        arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng(2)
    )
    assert report.winner == 0
    active = set(range(len(arms)))
    sizes = []
    epochs = sorted({r.epoch for r in report.evaluations})
    for epoch in epochs:
        rows = [r for r in report.evaluations if r.epoch == epoch]
        # every currently active arm was evaluated this epoch
        assert {r.arm for r in rows} == active
        active = {r.arm for r in rows if r.active_after}
        sizes.append(len(active))
        eliminated_now = {i for (ep, i, _) in report.elimination_log if ep == epoch}
        assert eliminated_now == {r.arm for r in rows if not r.active_after}
    assert sizes == sorted(sizes, reverse=True)
    assert report.total_steps == sum(r.horizon for r in report.evaluations)


def test_oracle_mode_identifies_after_first_epoch():
    arms, game, env_set = selection_arms([0.0, 0.5, 1.0], sigma=0.0)
    report = successive_elimination(
        arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng(3), scale=1e-12
    )
    assert report.winner == 0
    assert report.epochs == 1


def test_pulls_accumulate_and_arms_never_reactivate():
    arms, game, env_set = selection_arms([0.0, 1.0], sigma=0.5)
    report = successive_elimination(
        arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng(5)
    )
    loser = report.arms[1]
    assert not loser.active
    assert loser.pulls >= 16
    assert report.arms[0].pulls >= loser.pulls


def test_step_scaling_with_gap():
    steps = {}
    for gap in (0.25, 0.5, 1.0):
        arms, game, env_set = selection_arms([0.0, gap, 2 * gap, 4 * gap], sigma=0.5)
        totals = []
        for s in range(5):
            report = successive_elimination(
                arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng([6, s])
            )
            totals.append(report.total_steps)
        steps[gap] = float(np.mean(totals))
    # measured step ratios track the 1/gap prediction within a factor of 3
    for a, b in [(0.25, 1.0), (0.5, 1.0), (0.25, 0.5)]:
        measured = steps[a] / steps[b]
        predicted = b / a
        assert measured <= 3.0 * predicted
        assert measured >= predicted / 3.0


def test_horizon_past_float_range_is_past_the_budget():
    # the horizon alpha * 2^tau overflows a float at the first epoch for
    # alpha=1e308, which ends inconclusive like a budget stop; for
    # alpha=5e-324 it stays finite past tau=1024, where 2^tau alone does not
    arms, game, env_set = selection_arms([0.0, 1.0])
    for alpha, budget in ((1e308, 1_000_000), (5e-324, 2200)):
        report = successive_elimination(
            arms, game, env_set, delta=0.1, alpha=alpha, rng=np.random.default_rng(0),
            max_total_steps=budget,
        )
        assert report.inconclusive
        assert report.winner is None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: confidence_radius(0.0, 1.0, 10, 0.1), "positive and finite"),
        (lambda: confidence_radius(1.0, math.nan, 10, 0.1), "positive and finite"),
        (lambda: selection_arms([0.0, -1.0]), "finite and nonnegative"),
    ],
)
def test_bad_selection_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_invalid_parameters_rejected():
    arms, game, env_set = selection_arms([0.0, 0.5])
    with pytest.raises(ValueError):
        successive_elimination(arms, game, env_set, delta=1.5, alpha=8.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        successive_elimination(arms, game, env_set, delta=0.1, alpha=0.0, rng=np.random.default_rng(0))
