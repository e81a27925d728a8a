"""Acceptance suite: one test per shipped criterion, tolerances as stated.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import csv
import time

import numpy as np

from gamescale.instances import (
    coupled_quadratic,
    nested_box_ladder,
    restriction_instance,
    selection_arms,
    stackelberg_scaling_game,
    stationary_scaling_game,
    zero_sum_instance,
)
from gamescale.cli import main
from gamescale.core import JointAction
from gamescale.equilibrium import psgd_nash, scaling_curve
from gamescale.markov import build_chain_game, env_best_response_mdp, payoff_sweep
from gamescale.participation import alpha_threshold, default_instance, equilibrium_pair
from gamescale.regression import (
    RegressionInstance,
    large_model_closed_form,
    large_model_env_objective,
    large_model_learner_loss,
    small_model_best_theta,
    small_model_loss,
)
from gamescale.restriction import HypothesisNotSatisfiedError, certify_restriction
from gamescale.selection import successive_elimination
from oracles import (
    large_model_best_theta,
    mc_env_prediction,
    mc_gaussian_integrals,
    mc_least_squares,
    mc_model_loss,
    rollout_value,
)


def report(num: int, ok: bool, detail: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def test_criterion_1_regression_equilibria(tmp_path):
    started = time.monotonic()
    out = tmp_path / "regression"
    code = main(["regression", "--out-dir", str(out)])
    with (out / "regression_equilibrium.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    by_class = {r["model_class"]: r for r in rows}
    small_loss = float(by_class["small"]["learner_loss"])
    large_loss = float(by_class["large"]["learner_loss"])
    k_star = float(by_class["large"]["k_star"])
    ok = (
        code == 0
        and abs(small_loss - 0.5) <= 1e-9
        and abs(k_star - 3.4) <= 0.1
        and 0.76 <= large_loss <= 0.80
    )
    report(
        1,
        ok,
        f"small loss {small_loss:.10f}, large k* {k_star:.4f}, large loss {large_loss:.4f}",
        started,
        budget=5.0,
    )


def test_criterion_2_closed_forms_match_monte_carlo():
    started = time.monotonic()
    n = 1_000_000
    failures = []
    for idx, (d, k) in enumerate([(2, 0.5), (2, 1.0), (2, 2.0), (3, 1.5), (4, 1.0)]):
        rng = np.random.default_rng([20, idx])
        inst = RegressionInstance(np.ones(d))
        cf = large_model_closed_form(inst, k)
        integrals = mc_gaussian_integrals(inst, k, n, rng)
        mean1, se1 = integrals["exp1"]
        mean2, se2 = integrals["exp2"]
        if abs(mean1 - 3.0 * cf.m) > 3 * se1:
            failures.append(f"m at d={d} k={k}")
        if abs(mean2 - cf.y) > 3 * se2:
            failures.append(f"y at d={d} k={k}")
        theta_hat, se_theta = mc_least_squares(inst, k, n, rng, with_bump=True)
        theta1, theta2 = large_model_best_theta(inst, k)
        closed = np.concatenate([theta1, [theta2]])
        if np.any(np.abs(theta_hat - closed) > 3 * se_theta):
            failures.append(f"(c, p) coefficients at d={d} k={k}")
        loss_mean, loss_se = mc_model_loss(inst, k, theta1, theta2, n, rng)
        if abs(loss_mean - large_model_learner_loss(inst, k)) > 3 * loss_se:
            failures.append(f"large loss at d={d} k={k}")
        small_theta = small_model_best_theta(inst, k)
        small_mean, small_se = mc_model_loss(inst, k, small_theta, 0.0, n, rng)
        if abs(small_mean - small_model_loss(inst, k)) > 3 * small_se:
            failures.append(f"small loss at d={d} k={k}")
        env_mean, env_se = mc_env_prediction(inst, k, theta1, theta2, n, rng)
        if abs(env_mean - large_model_env_objective(inst, k)) > 3 * env_se:
            failures.append(f"env objective at d={d} k={k}")
    report(
        2,
        not failures,
        "all closed forms within 3 standard errors of Monte-Carlo oracles"
        if not failures
        else f"failed: {failures}",
        started,
        budget=120.0,
    )


def test_criterion_3_psgd_rate():
    started = time.monotonic()
    bench = coupled_quadratic(sigma=0.3)
    game = bench.game
    means = {}
    for horizon in (512, 4096):
        rngs = [np.random.default_rng([30, horizon, s]) for s in range(20)]
        x0 = JointAction(np.zeros(1), np.zeros(1))
        averages = psgd_nash(game, [bench.learner_set] * 20, bench.env_set, x0, horizon, rngs)
        gaps = [
            abs(float(game.loss_learner(avg.theta, avg.env)) - bench.nash_learner_loss)
            for avg in averages
        ]
        means[horizon] = float(np.mean(gaps))
    ok = means[4096] <= 0.5 * means[512]
    report(
        3,
        ok,
        f"mean gap T=512: {means[512]:.3e}, T=4096: {means[4096]:.3e}, "
        f"ratio {means[4096] / means[512]:.3f} (need <= 0.5)",
        started,
        budget=30.0,
    )


def test_criterion_4_successive_elimination():
    started = time.monotonic()
    arms, game, env_set = selection_arms([0.0, 0.25, 0.5, 1.0], sigma=0.5)
    wins = 0
    for s in range(50):
        rep = successive_elimination(
            arms, game, env_set, delta=0.1, alpha=8.0, rng=np.random.default_rng([40, s]), scale=1.0
        )
        if rep.winner == 0:
            wins += 1
    steps = {}
    for gap in (0.25, 0.5, 1.0):
        gap_arms, game, env_set = selection_arms([0.0, gap, 2 * gap, 4 * gap], sigma=0.5)
        totals = [
            successive_elimination(
                gap_arms, game, env_set, delta=0.1, alpha=8.0,
                rng=np.random.default_rng([41, int(gap * 100), s]), scale=1.0,
            ).total_steps
            for s in range(10)
        ]
        steps[gap] = float(np.mean(totals))
    scaling_ok = True
    for a, b in [(0.25, 1.0), (0.5, 1.0), (0.25, 0.5)]:
        measured = steps[a] / steps[b]
        predicted = b / a
        if not (predicted / 3.0 <= measured <= 3.0 * predicted):
            scaling_ok = False
    ok = wins >= 45 and scaling_ok
    report(
        4,
        ok,
        f"winner correct in {wins}/50 runs (need >= 45); "
        f"steps by gap {steps} scale ~ 1/gap within factor 3: {scaling_ok}",
        started,
        budget=300.0,
    )


def test_criterion_5_restriction_certificate():
    started = time.monotonic()
    bench = restriction_instance()
    cert = certify_restriction(bench.game, bench.learner_set, bench.env_set)
    control = zero_sum_instance()
    control_ok = False
    try:
        certify_restriction(control.game, control.learner_set, control.env_set)
    except HypothesisNotSatisfiedError:
        control_ok = True
    ok = cert.improvement > 1e-4 and cert.restricted_residual <= 1e-6 and control_ok
    report(
        5,
        ok,
        f"improvement {cert.improvement:.6f} (> 1e-4), residual {cert.restricted_residual:.2e} "
        f"(<= 1e-6), zero-sum control raised hypothesis-not-satisfied: {control_ok}",
        started,
        budget=10.0,
    )


def test_criterion_6_markov_reverse_scaling():
    started = time.monotonic()
    game = build_chain_game(50, gamma_l=0.9)
    restricted, unrestricted = payoff_sweep(game, [0.55, 1.0]).learner_value
    absorbs = payoff_sweep(game, np.linspace(0.5, 1.0, 200)).absorbing_state
    monotone = all(a >= b for a, b in zip(absorbs, absorbs[1:]))
    mc_mean, mc_se = rollout_value(
        game, 0.55, env_best_response_mdp(game, 0.55)[0], episodes=100_000, horizon=500,
        rng=np.random.default_rng(60),
    )
    mc_ok = abs(mc_mean - restricted) <= 3 * mc_se
    ok = restricted > unrestricted and monotone and mc_ok
    report(
        6,
        ok,
        f"value(0.55)={restricted:.3f} > value(1.0)={unrestricted:.3f}; "
        f"absorbing index non-increasing: {monotone}; DP vs MC within 3 SE: {mc_ok}",
        started,
        budget=60.0,
    )


def test_criterion_7_participation_reverse_scaling():
    started = time.monotonic()
    base, phi = default_instance()
    threshold = alpha_threshold(base, phi)
    all_ok = True
    for alpha in np.linspace(0.6, 1.0, 20):
        full = equilibrium_pair("full", base, phi, float(alpha))
        restricted = equilibrium_pair("restricted", base, phi, float(alpha))
        if not (
            full.certified
            and restricted.certified
            and full.loss > restricted.loss
        ):
            all_ok = False
    report(
        7,
        all_ok,
        f"threshold {threshold:.3f}; full loss > restricted loss with passing "
        f"certificates at all 20 sampled alphas in [0.6, 1.0]",
        started,
        budget=5.0,
    )


def test_criterion_8_monotone_regimes():
    started = time.monotonic()
    radii = [0.2, 0.4, 0.6, 0.8, 1.0]
    stationary = scaling_curve(
        stationary_scaling_game(np.array([2.0, 0.0])),
        nested_box_ladder(radii, dim=2),
        "stationary",
    )
    game, env_set = stackelberg_scaling_game()
    stackelberg = scaling_curve(
        game,
        nested_box_ladder(radii, dim=1),
        "stackelberg_leader",
        env_set=env_set,
    )
    results = {}
    for name, curve in [("stationary", stationary), ("stackelberg_leader", stackelberg)]:
        losses = [rep.loss_learner for _, rep in curve]
        results[name] = all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))
    ok = all(results.values())
    report(
        8,
        ok,
        f"non-increasing learner losses (tol 1e-9): {results}",
        started,
        budget=30.0,
    )
