"""Confidence radii, gap statistics, and successive elimination."""

import dataclasses
import math
from itertools import groupby

import numpy as np
import pytest

from gamescale.core import GameSpec, Halfspace, Intersection
from gamescale import selection
from gamescale.instances import box_1d, selection_arms
from gamescale.selection import (
    confidence_radius,
    successive_elimination,
)
from oracles import sequential_elimination, suboptimality_gaps


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
    with pytest.raises(ValueError, match="need at least one arm"):
        successive_elimination([], game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        successive_elimination(arms, game, env_set, delta=1.5, alpha=8.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        successive_elimination(arms, game, env_set, delta=0.1, alpha=0.0, rng=np.random.default_rng(0))


@pytest.mark.parametrize("budget", [math.nan, math.inf, -1, 2.5, 1e6, "1000"])
def test_max_total_steps_must_be_a_nonnegative_integer(budget):
    # with a nan budget and two tied arms the selection ran without end
    arms, game, env_set = selection_arms([0.3, 0.3])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^max_total_steps must be a nonnegative integer, got "):
        successive_elimination(arms, game, env_set, delta=0.1, alpha=8.0, rng=rng, max_total_steps=budget)
    assert rng.bit_generator.seed_seq.n_children_spawned == 0


@pytest.mark.parametrize("budget", [0, np.int64(47)])
def test_a_budget_below_the_first_epoch_is_inconclusive(budget):
    arms, game, env_set = selection_arms([0.0, 1.0, 2.0])
    report = successive_elimination(arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng(0),
                                    max_total_steps=budget)
    assert report.inconclusive and report.epochs == 0 and report.total_steps == 0


# ---------------------------------------------------------------------------
# Pipelined epochs against one epoch at a time
# ---------------------------------------------------------------------------


def _report_fields(report) -> tuple:
    """Every field of a SelectionReport, floats by their bits and sets by identity."""
    h = lambda v: float(v).hex()
    return (
        report.winner, report.survivors, report.inconclusive, report.epochs, report.total_steps,
        [(epoch, arm, h(margin)) for epoch, arm, margin in report.elimination_log],
        [(r.epoch, r.horizon, r.arm, h(r.estimate), h(r.radius), r.active_after) for r in report.evaluations],
        h(report.delta),
        [(a.class_index, id(a.action_set), h(a.last_estimate), a.pulls, a.active) for a in report.arms],
    )


def _counted(game, calls: list):
    """game whose learner oracle appends one entry to calls per call (one per PSGD batch step)."""
    return dataclasses.replace(game, grad_learner=lambda t, e: calls.append(1) or game.grad_learner(t, e))


def _slow_game(grad_learner=lambda t, e: 0.5 * (t - 0.5)) -> GameSpec:
    """No noise and a learner gradient half as steep as mu says: x_t = 0.5 - 0.5 / (t + 1)
    from x_0 = 0, while no bound stops it."""
    return GameSpec(1, 1, lambda t, e: 0.25 * float((t - 0.5) @ (t - 0.5)), lambda t, e: 0.5 * float(e @ e),
                    1.0, 1.0, grad_learner, lambda t, e: e)


def _crossing_arms():
    """Two equal arms and one that ties them in epoch 1 only: [-1, 15/32] caps the iterates
    from x_16 = 0.5 - 0.5 / 17 on, past epoch 1's x_0 .. x_15, so its estimates agree with
    the free arms' for 16 steps and are worse for 32. With scale 1e-4, epoch 2 eliminates it."""
    return [box_1d(-1.0, 1.0), box_1d(-2.0, 2.0), box_1d(-1.0, 15 / 32)], _slow_game(), box_1d(-1.0, 1.0)


CROSSING = dict(delta=0.1, alpha=8.0, scale=1e-4, max_total_steps=1_500)


def _non_box_arms():
    arms, game, env_set = selection_arms([0.0, 0.5, 1.0], sigma=0.5)
    cut = [Intersection([arm, Halfspace(np.array([1.0]), float(arm.upper[0]) - 0.25)]) for arm in arms]
    return cut, game, env_set


NARROW = dict(delta=0.1, alpha=8.0, scale=1.0, max_total_steps=10_000_000)
# case -> (arms, game and env set; keyword arguments; seed; children spawned before; expected
# learner-oracle calls, one per PSGD batch step, pipelined and one epoch at a time)
SELECTIONS = {
    # select-narrow: eliminations after epochs 2, 3 and 11
    "narrow-seed0": (lambda: selection_arms([0.0, 0.005, 0.5, 1.0]), NARROW, [0], 0, (17_520, 32_752)),
    "narrow-seed3": (lambda: selection_arms([0.0, 0.005, 0.5, 1.0]), NARROW, [3], 0, None),
    "eliminates-in-epoch-1": (lambda: selection_arms([0.0, 0.5, 1.0], sigma=0.0),
                              dict(delta=0.1, alpha=8.0, scale=1e-12), [3], 0, (16, 16)),
    "identical-inconclusive": (lambda: selection_arms([0.3] * 3), dict(delta=0.1, alpha=8.0, max_total_steps=5_000),
                               [1], 0, None),
    # 4 * 16 steps fit, 4 * (16 + 32) do not: epoch 2 runs on epoch 1's two survivors
    "budget-refuses-epoch-2": (lambda: selection_arms([0.0, 1.0, 2.0, 4.0]),
                               dict(delta=0.1, alpha=8.0, max_total_steps=150), [2], 0, (48, 48)),
    # three equal arms; 3 * (16 + 32) steps fit, 3 * (16 + 32 + 64) do not: epoch 3 never starts
    "budget-refuses-epoch-3": (lambda: selection_arms([0.3] * 3), dict(delta=0.1, alpha=8.0, max_total_steps=300),
                               [1], 0, (48, 48)),
    # 3 * (16 + 32 + 64 + 128) steps fit, 3 * 256 more do not: epochs 3 and 4 start beside epoch 2
    # and epoch 5 never, so epoch 4 ends at batch step 16 + 128 and the budget stops epoch 5
    "budget-admits-two-ahead": (lambda: selection_arms([0.3] * 3), dict(delta=0.1, alpha=8.0, max_total_steps=1_000),
                                [1], 0, (144, 240)),
    # epochs 3 to 5 start beside epoch 2 on epoch 1's tie, and are dropped when epoch 2 eliminates
    "guess-fails-in-epoch-2": (_crossing_arms, CROSSING, [0], 0, (304, 496)),
    "equal-horizons": (lambda: selection_arms([0.0, 0.5, 1.0]), dict(delta=0.1, alpha=1e-3, max_total_steps=3_000),
                       [4], 0, None),
    "tiny-alpha": (lambda: selection_arms([0.0, 1.0]), dict(delta=0.1, alpha=5e-324, max_total_steps=2_200),
                   [0], 0, None),
    "spawned-before": (lambda: selection_arms([0.0, 0.25, 0.5, 1.0]), dict(delta=0.1, alpha=8.0), [7], 5, None),
    "non-box-arms": (_non_box_arms, dict(delta=0.1, alpha=8.0), [8], 2, None),
}


@pytest.mark.parametrize("case", SELECTIONS)
def test_pipelined_epochs_equal_one_epoch_at_a_time(case):
    build, kwargs, seed, spawned, steps = SELECTIONS[case]
    arms, game, env_set = build()
    rngs, reports, calls = [], [], ([], [])
    for select, log in zip((successive_elimination, sequential_elimination), calls):
        rng = np.random.default_rng(seed)
        rng.spawn(spawned)
        reports.append(select(arms, _counted(game, log), env_set, rng=rng, **kwargs))
        rngs.append(rng.bit_generator.seed_seq.n_children_spawned)
    assert _report_fields(reports[0]) == _report_fields(reports[1])
    assert rngs[0] == rngs[1]
    assert len(calls[0]) <= len(calls[1])
    if steps is not None:
        assert (len(calls[0]), len(calls[1])) == steps


@pytest.mark.parametrize("case, widths", [("budget-refuses-epoch-3", [3]), ("budget-admits-two-ahead", [3, 9, 6, 3])])
def test_the_budget_admits_only_part_of_the_lookahead(case, widths):
    # rows per batch step: an epoch the budget would not admit under the guess never joins,
    # though joining it would leave the report and the batch-step count as they are
    build, kwargs, seed, _, _ = SELECTIONS[case]
    arms, game, env_set = build()
    rows = []
    logged = dataclasses.replace(game, grad_learner=lambda t, e: rows.append(len(t)) or game.grad_learner(t, e))
    successive_elimination(arms, logged, env_set, rng=np.random.default_rng(seed), **kwargs)
    assert [n for n, _ in groupby(rows)] == widths


def test_nan_gradient_in_a_dropped_early_epoch_gives_the_sequential_report():
    # epochs 3 to 5 start beside epoch 2, which eliminates an arm, so they are dropped;
    # their rows (past the first three of a batch of 12) read a nan gradient
    arms, game, env_set = _crossing_arms()
    nan_rows = []

    def grad_learner(t, e):
        g = game.grad_learner(t, e)
        if len(t) != 12:
            return g
        nan_rows.append(len(t))
        return np.where(np.arange(len(t))[:, np.newaxis] >= 3, np.nan, g)

    nan_ahead = dataclasses.replace(game, grad_learner=grad_learner)
    rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    report = successive_elimination(arms, nan_ahead, env_set, rng=rng, **CROSSING)
    reference = sequential_elimination(arms, game, env_set, rng=reference_rng, **CROSSING)
    assert nan_rows and [epoch for epoch, _, _ in report.elimination_log] == [2]
    assert _report_fields(report) == _report_fields(reference)
    assert rng.bit_generator.seed_seq.n_children_spawned == reference_rng.bit_generator.seed_seq.n_children_spawned


def test_non_finite_estimate_raises_naming_the_arm():
    # the two far arms' averages lie at theta >= 1, where the loss is nan; before,
    # no arm with a nan estimate was ever eliminated and the budget ran out
    arms, game, env_set = selection_arms([0.0, 0.25, 0.5, 1.0], sigma=0.5)
    nan_far = dataclasses.replace(game, loss_learner=lambda t, e: math.nan if t[0] > 0.9 else game.loss_learner(t, e))
    rng = np.random.default_rng(0)
    with pytest.raises(FloatingPointError, match=r"^loss_learner is not finite at arm 2's average$"):
        successive_elimination(arms, nan_far, env_set, delta=0.1, alpha=8.0, rng=rng, max_total_steps=200_000)
    assert rng.bit_generator.seed_seq.n_children_spawned == 4  # epoch 1's children, spawned as before


def test_early_epoch_waits_while_the_batch_would_pass_max_runs(monkeypatch):
    # with room for 7 rows, the two near arms run two epochs ahead (6 rows), not three (8);
    # the four and three arms of epochs 1 to 3 run alone either way (no estimate, then a wide spread)
    monkeypatch.setattr(selection, "MAX_RUNS", 7)
    arms, game, env_set = selection_arms([0.0, 0.005, 0.5, 1.0])
    calls, rows = ([], []), []
    logged = dataclasses.replace(game, grad_learner=lambda t, e: rows.append(len(t)) or game.grad_learner(t, e))
    reports = [select(arms, _counted(g, log), env_set, rng=np.random.default_rng([0]), **NARROW)
               for select, g, log in zip((successive_elimination, sequential_elimination), (logged, game), calls)]
    assert _report_fields(reports[0]) == _report_fields(reports[1])
    assert [epoch for epoch, _, _ in reports[0].elimination_log] == [2, 3, 11]
    assert [n for n, _ in groupby(rows)] == [4, 3, 6, 4, 2]
    assert (len(calls[0]), len(calls[1])) == (18_800, 32_752)


def test_an_elimination_drops_every_epoch_started_early():
    # epoch 1 runs alone; epochs 3 to 5 start beside epoch 2 (12 rows) on epoch 1's tie, and
    # epoch 2's elimination drops all three; epoch 3 starts on the two equal arms with epochs 4
    # and 5 beside it (6 rows), as far as the budget goes
    arms, game, env_set = _crossing_arms()
    rows = []
    logged = dataclasses.replace(game, grad_learner=lambda t, e: rows.append(len(t)) or game.grad_learner(t, e))
    rngs = np.random.default_rng([0]), np.random.default_rng([0])
    report = successive_elimination(arms, logged, env_set, rng=rngs[0], **CROSSING)
    reference = sequential_elimination(arms, game, env_set, rng=rngs[1], **CROSSING)
    assert [epoch for epoch, _, _ in report.elimination_log] == [2] and report.survivors == [0, 1]
    assert _report_fields(report) == _report_fields(reference)
    assert [r.bit_generator.seed_seq.n_children_spawned for r in rngs] == [3 * 2 + 2 * 3] * 2
    assert [n for n, _ in groupby(rows)] == [3, 12, 6, 4, 2]
    assert rows.count(12) == 32 and rows.count(6) == 64  # epochs 2 and 3


def test_no_epoch_starts_behind_one_the_spread_says_eliminates():
    # no noise, so every epoch's estimates are the losses 0 and 0.3: 2 U(T, delta') is 0.41 at
    # epoch 3 and 0.22 at epoch 4, which eliminates; epochs 3 and 4 start beside epoch 2, not 5
    arms, game, env_set = selection_arms([0.0, 0.3], sigma=0.0)
    rows = []
    logged = dataclasses.replace(game, grad_learner=lambda t, e: rows.append(len(t)) or game.grad_learner(t, e))
    rngs = np.random.default_rng(5), np.random.default_rng(5)
    report = successive_elimination(arms, logged, env_set, delta=0.1, alpha=8.0, rng=rngs[0])
    reference = sequential_elimination(arms, game, env_set, delta=0.1, alpha=8.0, rng=rngs[1])
    assert [epoch for epoch, _, _ in report.elimination_log] == [4]
    assert _report_fields(report) == _report_fields(reference)
    assert [n for n, _ in groupby(rows)] == [2, 6, 4, 2]


def test_batches_raising_beside_an_early_epoch_give_the_sequential_report():
    # three arms, then two, so a batch holds more rows than three exactly when an early
    # epoch is in it: every such batch raises, and each epoch runs again alone
    arms, game, env_set = _crossing_arms()
    rows = []

    def grad_learner(t, e):
        rows.append(len(t))
        if len(t) > 3:
            raise ValueError("more rows than arms")
        return game.grad_learner(t, e)

    rngs = np.random.default_rng(4), np.random.default_rng(4)
    report = successive_elimination(arms, dataclasses.replace(game, grad_learner=grad_learner), env_set,
                                    rng=rngs[0], **CROSSING)
    reference = sequential_elimination(arms, game, env_set, rng=rngs[1], **CROSSING)
    assert [epoch for epoch, _, _ in report.elimination_log] == [2]  # epoch 2 followed its failed early batch
    assert _report_fields(report) == _report_fields(reference)
    assert [r.bit_generator.seed_seq.n_children_spawned for r in rngs] == [12, 12]
    assert [n for n, _ in groupby(rows)] == [3, 12, 3, 6, 2, 4, 2]  # epochs 4 and 5 run alone in turn


def test_nan_gradient_in_a_confirmed_early_epoch_raises_as_one_epoch_at_a_time():
    # x_t = 0.5 - 0.5 / (t + 1), so the gradient is nan from x_41 on, which epoch 3 (64 steps),
    # not epoch 2 (32), reaches; epoch 3 starts beside epoch 2, is kept (equal arms), and fails
    # beside epochs 4 to 6
    def game(nan_rows: list) -> GameSpec:
        def grad_learner(t, e):
            near = np.abs(t - 0.5) < 0.012
            if near.any():
                nan_rows.append(len(t))
            return np.where(near, np.nan, 0.5 * (t - 0.5))

        return _slow_game(grad_learner)

    arms, env_set = [box_1d(-1.0, 1.0), box_1d(-2.0, 2.0)], box_1d(-1.0, 1.0)
    rngs, nan_rows, errors = (np.random.default_rng(0), np.random.default_rng(0)), ([], []), []
    for select, rng, log in zip((successive_elimination, sequential_elimination), rngs, nan_rows):
        with pytest.raises(FloatingPointError) as error:
            select(arms, game(log), env_set, delta=0.1, alpha=8.0, rng=rng)
        errors.append(str(error.value))
    assert sorted(set(nan_rows[0])) == [2, 8] and nan_rows[0][0] == 8  # beside epochs 4 to 6, then alone
    assert set(nan_rows[1]) == {2}
    assert errors[0] == errors[1]
    assert [r.bit_generator.seed_seq.n_children_spawned for r in rngs] == [6, 6]


def test_a_batch_holding_three_epochs_ahead_raises_and_each_epoch_runs_alone():
    # two equal arms: a batch of 8 rows (an epoch with three epochs beside it) raises and no
    # other does, so epochs 2 to 4 run again alone on their own streams; from epoch 5 on the
    # budget admits at most two epochs ahead
    arms, game, env_set = selection_arms([0.3, 0.3])
    rows = []

    def grad_learner(t, e):
        rows.append(len(t))
        if len(t) == 8:
            raise ValueError("three epochs ahead")
        return game.grad_learner(t, e)

    kwargs = dict(delta=0.1, alpha=8.0, max_total_steps=5_000)
    rngs = np.random.default_rng(9), np.random.default_rng(9)
    report = successive_elimination(arms, dataclasses.replace(game, grad_learner=grad_learner), env_set,
                                    rng=rngs[0], **kwargs)
    reference = sequential_elimination(arms, game, env_set, rng=rngs[1], **kwargs)
    assert _report_fields(report) == _report_fields(reference) and report.epochs == 7
    assert [r.bit_generator.seed_seq.n_children_spawned for r in rngs] == [2 * 7] * 2
    assert [n for n, _ in groupby(rows)] == [2, 8, 2, 8, 2, 8, 2, 6, 4, 2]
