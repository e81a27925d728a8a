"""Equilibrium solvers: the four regimes, PSGD averaging, and the oracles."""

import dataclasses
import functools
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from gamescale.instances import (
    coupled_quadratic,
    decoupled_quadratic,
    nested_box_ladder,
    restriction_instance,
    selection_arms,
    stackelberg_scaling_game,
    stationary_scaling_game,
    zero_sum_instance,
)
from gamescale.core import (
    GameSpec,
    JointAction,
    ModelClassLadder,
    gradient_noise,
    gradient_operator,
)
from gamescale import equilibrium, grid, psgd
from gamescale.descent import _projected_descent, _single_point_checked, natural_residuals
from gamescale.equilibrium import (
    best_response,
    best_responses,
    grid_points,
    nash_residual,
    pareto_improvement_search,
    psgd_nash,
    scaling_curve,
    solve_nash,
    stackelberg_leader,
)
from gamescale.psgd import NOISE_BLOCK, NOISE_CELLS
from gamescale.sets import Box, ConvergenceError, Halfspace, Intersection, Product, box_1d
from oracles import (
    per_class_scaling_curve,
    best_response_dynamics,
    gradient_bad_at,
    grid_nash,
    non_finite_game,
    random_affine_game,
    regression_stackelberg_game,
    scalar_pareto_search,
    single_point_descent,
    single_point_only,
    single_run_psgd,
    two_projection_descent,
)
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


def stationary_report(game: GameSpec, model_class) -> equilibrium.EquilibriumReport:
    """The stationary report of one class, against the zero environment action."""
    return scaling_curve(game, ModelClassLadder([model_class]), "stationary")[0][1]


def test_stationary_interior_minimum():
    game = quadratic_target_game([0.0, 0.0])
    report = stationary_report(game, Box(-np.ones(2), np.ones(2)))
    np.testing.assert_allclose(report.joint.theta, [0.0, 0.0], atol=1e-8)
    assert abs(report.loss_learner) <= 1e-12


def test_stationary_clamped_minimum():
    game = quadratic_target_game([2.0, 0.0])
    report = stationary_report(game, Box(-np.ones(2), np.ones(2)))
    np.testing.assert_allclose(report.joint.theta, [1.0, 0.0], atol=1e-8)
    assert abs(report.loss_learner - 0.5) <= 1e-10


def test_stationary_nested_classes_monotone():
    game = quadratic_target_game([2.0, 0.0])
    small = stationary_report(game, Box(-0.5 * np.ones(2), 0.5 * np.ones(2)))
    large = stationary_report(game, Box(-np.ones(2), np.ones(2)))
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


@pytest.mark.parametrize(
    "game, learner_ref, env_ref",
    [
        (restriction_instance().game, lambda t, e: t[0] + e[0], lambda t, e: e[0] - t[0]),
        (zero_sum_instance().game, lambda t, e: t[0] + e[0], lambda t, e: e[0] - t[0]),
        (stackelberg_scaling_game()[0], lambda t, e: t[0] - 2.0 + e[0], lambda t, e: e[0] - t[0]),
    ],
    ids=["restriction", "zero_sum", "stackelberg_scaling"],
)
def test_broadcast_oracles_equal_their_single_point_values_bitwise(game, learner_ref, env_ref):
    rng = np.random.default_rng(67)
    theta, env = rng.uniform(-4.0, 4.0, (2, 9, 1))
    for oracle, ref in ((game.grad_learner, learner_ref), (game.grad_env, env_ref)):
        singles = [oracle(t, e) for t, e in zip(theta, env)]
        assert all(g.shape == (1,) for g in singles)
        # the scalar expression the oracle had before it broadcast
        scalars = np.array([[ref(t, e)] for t, e in zip(theta, env)])
        assert np.array(singles).tobytes() == scalars.tobytes()
        batch = oracle(theta, env)
        assert batch.shape == (9, 1)
        assert batch.tobytes() == np.array(singles).tobytes()


def wrong_broadcast_game():
    """The env-leads regression game's learner side (dim 2), written for
    single points: on a batch it takes row 0's shift ee for every row, so a
    batch of 2 rows still gives shape (2, 2), and its coupling term
    (t @ ee) ee is right at the origin only."""
    beta = np.array([0.6, -0.8])

    def grad_learner(t, e):
        ee = e[0] * beta
        return 2.0 * (t - beta) + 2.0 * (t @ ee) * ee

    return GameSpec(
        dim_learner=2,
        dim_env=1,
        loss_learner=lambda t, e: 0.0,
        loss_env=lambda t, e: 0.0,
        grad_learner=grad_learner,
        grad_env=lambda t, e: np.zeros(1),
        mu=1.0,
        lipschitz=2.0 * (1.0 + 2.0**2),
    )


def with_oracles(game, wrap):
    """game with each of its gradient oracles passed through wrap."""
    oracles = {k: getattr(game, k) for k in ("grad_learner", "grad_env")}
    return GameSpec(
        dim_learner=game.dim_learner,
        dim_env=game.dim_env,
        loss_learner=game.loss_learner,
        loss_env=game.loss_env,
        mu=game.mu,
        lipschitz=game.lipschitz,
        **{k: None if f is None else wrap(f) for k, f in oracles.items()},
    )


UNIT = box_1d(0.0, 1.0)
TRACKED = np.linspace(-0.5, 1.5, 7)[:, np.newaxis]
# name -> (game, player, own set, opponent actions)
PER_ROW_CASES = {
    # grad_env indexes e[0] and t[0]: a batch returns row 0 alone, shape (1, 1)
    "row0_oracle": lambda: (tracking_game(), "env", UNIT, TRACKED),
    # no oracles: central differences of the losses
    "no_oracle": lambda: (with_oracles(tracking_game(), lambda f: None), "env", UNIT, TRACKED),
    "wrong_broadcast": lambda: (
        wrong_broadcast_game(),
        "learner",
        Box(-2.0 * np.ones(2), 2.0 * np.ones(2)),
        np.array([[-2.0], [1.5]]),
    ),
    # e - t[0] on a batch takes row 0's opponent action for every row, shape
    # (B, 1); from the origin every row then stops at iteration 1, where only
    # the first should
    "row0_stops_at_origin": lambda: (
        with_oracles(tracking_game(), lambda f: lambda t, e: e - t[0]),
        "env",
        UNIT,
        np.array([[-1.0], [0.5], [0.8]]),
    ),
    # a float at a point and shape (B, 1) on a batch: the check at iteration 2
    # stacks the floats as shape (B,), which it takes in dimension 1
    "float_per_point": lambda: (
        with_oracles(tracking_game(), lambda f: lambda t, e: e - t if np.ndim(t) == 2 else float(e[0] - t[0])),
        "env",
        UNIT,
        TRACKED,
    ),
    # the float_per_point oracle on 300 rows: the check stacks them in two chunks
    "float_per_point_two_chunks": lambda: (
        with_oracles(tracking_game(), lambda f: lambda t, e: e - t if np.ndim(t) == 2 else float(e[0] - t[0])),
        "env",
        UNIT,
        np.linspace(-0.5, 1.5, 300)[:, np.newaxis],
    ),
    # broadcasts correctly, so the batch path is kept; it must give the same bits
    "broadcast": lambda: (
        restriction_instance().game, "env", box_1d(-2.0, 2.0), np.linspace(-3.0, 3.0, 13)[:, None]
    ),
}


@pytest.mark.parametrize("case", sorted(PER_ROW_CASES))
def test_best_responses_equal_per_row_results_bitwise(case):
    game, player, own_set, opponents = PER_ROW_CASES[case]()
    reference = with_oracles(game, single_point_only)
    got = best_responses(game, player, opponents, own_set, 1e-9)
    expected = best_responses(reference, player, opponents, own_set, 1e-9)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()


def test_wrong_broadcast_oracle_passes_the_shape_check_but_not_the_values():
    # the wrong_broadcast case above tests the fallback only if the batch call
    # is right at the origin and wrong away from it
    game, opponents = wrong_broadcast_game(), np.array([[-2.0], [1.5]])
    for t in (np.zeros((2, 2)), np.array([[0.3, -0.2], [0.1, 0.4]])):
        got = game.grad_learner(t, opponents)
        assert got.shape == (2, 2)
        expected = np.array([game.grad_learner(ti, oi) for ti, oi in zip(t, opponents)])
        assert np.array_equal(got, expected) == (not t.any())


def test_best_responses_reject_a_matrix_valued_point_oracle():
    # right on a batch, shape (1, 1) at a point: the check at iteration 2 finds
    # shape (B, 1, 1), and the per-row rerun raises as one point does
    grad = lambda t, e: e - t if np.ndim(t) == 2 else np.array([[e[0] - t[0]]])
    game = with_oracles(tracking_game(), lambda f: grad)
    with pytest.raises(ValueError, match=r"expected a vector, got shape \(1, 1\)"):
        best_responses(game, "env", TRACKED, UNIT, 1e-9)


def test_best_responses_reject_a_wrong_shape_past_the_first_check_chunk():
    # the check stacks 256 rows at a time; row 290's point oracle gives shape (1, 1)
    opponents = np.linspace(0.2, 0.8, 300)[:, np.newaxis]

    def grad(t, e):
        return np.array([[e[0] - t[0]]]) if np.ndim(t) == 1 and t[0] == opponents[290, 0] else e - t

    game = with_oracles(tracking_game(), lambda f: grad)
    with pytest.raises(ValueError, match=r"expected a vector, got shape \(1, 1\)"):
        best_responses(game, "env", opponents, UNIT, 1e-9)
    healthy = with_oracles(tracking_game(), lambda f: lambda t, e: e - t)
    _, iters, _ = best_responses(healthy, "env", opponents, UNIT, 1e-9)
    assert iters.min() > 1  # so row 290 is row 290 of the check at iteration 2


@pytest.mark.parametrize("sets", [2, 5])
def test_best_responses_reject_a_set_list_of_another_length_than_the_rows(sets):
    # 2 sets for 3 rows raised IndexError in the projector; 5 dropped two sets
    with pytest.raises(ValueError, match=rf"^{sets} own sets for 3 opponent rows$"):
        best_responses(tracking_game(), "env", np.zeros((3, 1)), [UNIT] * sets, 1e-9)


@pytest.mark.parametrize("player", ["learner", "env"])
def test_best_responses_check_makes_one_oracle_call_per_row(player):
    calls = []

    def grad(t, e):
        calls.append(np.ndim(t))
        return e - t if player == "env" else t - e

    game = with_oracles(tracking_game(), lambda f: grad)
    opponents = np.linspace(-0.5, 1.5, 7)[:, np.newaxis] + 0.1
    points, iters, _ = best_responses(game, player, opponents, UNIT, 1e-9)
    assert 0 < np.count_nonzero(iters == 1) < len(opponents)
    assert calls.count(1) == len(opponents)  # each row once: at iteration 2, or at 1 where it stopped
    assert calls.count(2) == iters.max()


def test_best_responses_raise_the_single_point_oracles_error():
    def grad_env(t, e):
        raise ZeroDivisionError("oracle failure")

    game = with_oracles(tracking_game(), lambda f: grad_env)
    with pytest.raises(ZeroDivisionError):
        best_responses(game, "env", np.zeros((3, 1)), box_1d(0.0, 1.0), 1e-9)


# ---------------------------------------------------------------------------
# Projected descent: adaptive step, one projection per iteration
# ---------------------------------------------------------------------------


def own_loss_game(dim, grad, lipschitz, mu):
    """A game whose learner gradient is `grad`; only the learner's side is used."""
    return GameSpec(
        dim_learner=dim,
        dim_env=1,
        loss_learner=lambda t, e: 0.0,
        loss_env=lambda t, e: 0.0,
        grad_learner=lambda t, e: grad(t),
        grad_env=lambda t, e: np.zeros(1),
        mu=mu,
        lipschitz=lipschitz,
    )


def random_convex_losses(rng):
    """Strongly convex quadratics on [-1, 1]^d with L = 10, L/mu up to 200 and
    minimizers inside and outside the box, then one softplus loss plus a ridge
    term. In half the quadratics L is ten times the largest curvature, as on
    the env-leads regression game, so the adaptive step grows past 1."""
    out = []
    for case in range(24):
        d = 1 + case % 4
        spread = (1.0, 20.0, 200.0)[case % 3]
        eig = 10.0 * np.geomspace(1.0 / spread, 1.0, d)
        if case >= 12 and spread < 200.0:
            eig /= 10.0
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hessian = q @ np.diag(eig) @ q.T
        center = rng.uniform(-2.0, 2.0, d)
        out.append((d, lambda t, h=hessian, c=center: h @ (t - c), 10.0, float(eig.min())))
    a = rng.standard_normal((5, 3))
    b = rng.standard_normal(5)
    c = rng.uniform(-2.0, 2.0, 3)
    # softplus'(z) = sigmoid(z), written with tanh so no exp overflows
    grad = lambda t: a.T @ (0.5 * (1.0 + np.tanh(0.5 * (a @ t + b)))) + 0.1 * (t - c)
    out.append((3, grad, float(np.linalg.norm(a, 2) ** 2) / 4.0 + 0.1, 0.1))
    return out


def test_adaptive_best_response_matches_fixed_step_reference():
    rng = np.random.default_rng(61)
    on_face = interior = 0
    for d, grad, lipschitz, mu in random_convex_losses(rng):
        box = Box(-np.ones(d), np.ones(d))
        iterates = []
        recording = single_point_only(lambda t, grad=grad: iterates.append(t.copy()) or grad(t))
        game = own_loss_game(d, recording, lipschitz, mu)
        reference, _, _ = two_projection_descent(
            grad, box, np.zeros(d), 1.0 / lipschitz, 1e-13, 1_000_000
        )
        x = best_response(game, "learner", np.zeros(1), box, tol=1e-9)
        assert float(np.linalg.norm(x - reference)) <= 1e-7
        # the skip never delays the stop: it is the first iterate with residual <= tol
        residuals = natural_residuals(np.array(iterates), box.project_rows, np.array([grad(p) for p in iterates]))
        np.testing.assert_array_equal(iterates[-1], x)
        assert residuals[-1] <= 1e-9 < min(residuals[:-1], default=math.inf)
        if np.any(np.abs(reference) >= 1.0 - 1e-12):
            on_face += 1
        else:
            interior += 1
    assert on_face >= 5 and interior >= 5


def test_adaptive_step_on_linear_loss_stays_finite():
    # the gradient never changes, so the curvature estimate is undefined
    for c, expected in (([1.0, -2.0], [-1.0, 1.0]), ([0.5, 0.0], [-1.0, 0.0])):
        game = own_loss_game(2, lambda t, c=np.array(c): c, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = best_response(game, "learner", np.zeros(1), Box(-np.ones(2), np.ones(2)))
        assert np.all(np.isfinite(x))
        np.testing.assert_array_equal(x, expected)


@pytest.mark.parametrize(
    "feasible",
    [
        Box(-np.ones(3), np.array([1.0, 0.5, 2.0])),
        Halfspace(np.array([1.0, -2.0, 0.5]), 0.3),
        Intersection([Box(-np.ones(3), np.ones(3)), Halfspace(np.ones(3), 0.5)]),
    ],
    ids=["box", "halfspace", "intersection"],
)
def test_projection_step_monotonicity(feasible):
    # what the residual skip relies on: |x - P(x - t g)| is nondecreasing in t
    # and |x - P(x - t g)| / t nonincreasing, on both sides of t = 1
    rng = np.random.default_rng(62)
    steps = [0.01, 0.3, 0.9, 1.0, 1.7, 5.0, 40.0]
    # Dykstra stops on a 1e-12 move, which does not bound its error by 1e-12
    atol = 1e-9 if isinstance(feasible, Intersection) else 1e-12
    for _ in range(100):
        x = feasible.project(rng.uniform(-1.5, 1.5, 3))
        g = rng.standard_normal(3) * rng.choice([0.01, 1.0, 10.0])
        moves = [float(np.linalg.norm(x - feasible.project(x - t * g))) for t in steps]
        for (s, m_s), (t, m_t) in zip(zip(steps, moves), zip(steps[1:], moves[1:])):
            assert m_s <= m_t + atol
            assert m_t / t <= m_s / s + atol / s
        unit = moves[steps.index(1.0)]
        assert all(min(1.0, 1.0 / t) * m <= unit + atol for t, m in zip(steps, moves))


def by_row(grads):
    """The grad(x, rows) callable of _projected_descent that evaluates row i's
    own single-point gradient grads[i] at each active row."""
    return lambda x, rows: np.array([grads[i](xi) for i, xi in zip(rows.tolist(), x)])


def test_fixed_step_descent_matches_two_projection_loop_bitwise():
    rng = np.random.default_rng(63)
    for case in range(12):
        d = 1 + case % 3
        s = rng.standard_normal((2 * d, 2 * d)) / (2 * d)
        k = rng.standard_normal((2 * d, 2 * d)) / (2 * d)
        m = s @ s.T + np.eye(2 * d) + (k - k.T)
        q = rng.uniform(-3.0, 3.0, 2 * d)
        feasible = Product(Box(-np.ones(d), np.ones(d)), Box(-np.ones(d), 2.0 * np.ones(d)))
        lipschitz = float(np.linalg.norm(m, 2))
        mu = float(np.linalg.eigvalsh(0.5 * (m + m.T)).min())
        field = lambda z, m=m, q=q: m @ z + q
        step = mu / lipschitz**2
        (x,), (iters,), (residual,) = _projected_descent(
            by_row([field]), feasible, np.zeros((1, 2 * d)), step, False, 1e-10, 500_000
        )
        ref_x, ref_iters, ref_residual = two_projection_descent(
            field, feasible, np.zeros(2 * d), step, 1e-10, 500_000
        )
        assert x.tobytes() == ref_x.tobytes()
        assert (iters, residual) == (ref_iters, ref_residual)


@pytest.mark.parametrize("adaptive", [True, False])
def test_projected_descent_raises_at_iteration_cap(adaptive):
    hessian = np.diag([1.0, 200.0])
    grad = lambda t: hessian @ (t - np.array([0.5, -0.25]))
    box = Box(-np.ones(2), np.ones(2))
    with pytest.raises(ConvergenceError):
        _projected_descent(by_row([grad]), box, np.zeros((1, 2)), 1.0 / 200.0, adaptive, 1e-9, 3)


def random_quadratic_rows(rng, d, rows):
    """Gradients of strongly convex quadratics with curvature in [0.05, 10]
    and minimizers inside and outside [-1, 1]^d, one per row."""
    grads = []
    for _ in range(rows):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hessian = q @ np.diag(rng.uniform(0.05, 10.0, d)) @ q.T
        center = rng.uniform(-2.0, 2.0, d)
        grads.append(lambda t, h=hessian, c=center: h @ (t - c))
    return grads


BATCH_SETS = {
    "box": lambda rng, d: Box(-np.ones(d), np.ones(d)),
    "halfspace": lambda rng, d: Halfspace(rng.standard_normal(d), rng.uniform(0.0, 1.0)),
    "intersection": lambda rng, d: Intersection(
        [Box(-np.ones(d), np.ones(d)), Halfspace(rng.standard_normal(d), rng.uniform(0.0, 1.0))]
    ),
}


@pytest.mark.parametrize("adaptive", [True, False])
@pytest.mark.parametrize("kind", sorted(BATCH_SETS))
def test_batched_descent_matches_single_point_loop_bitwise(kind, adaptive):
    # Box rows are clipped as one array, the other sets project row by row
    rng = np.random.default_rng(66)
    for d in range(1, 5):
        feasible = BATCH_SETS[kind](rng, d)
        grads = random_quadratic_rows(rng, d, 12)
        x0 = rng.uniform(-1.5, 1.5, (12, d))
        x, iters, residuals = _projected_descent(
            by_row(grads), feasible, x0, 0.1, adaptive, 1e-9, 200_000
        )
        for i, grad in enumerate(grads):
            ref_x, ref_iters, ref_residual = single_point_descent(
                grad, feasible, x0[i], 0.1, adaptive, 1e-9, 200_000
            )
            assert x[i].tobytes() == ref_x.tobytes()
            assert (iters[i], residuals[i]) == (ref_iters, ref_residual)
        assert len(set(iters.tolist())) >= 6  # rows leave the batch at different iterations


def test_batched_descent_raises_when_one_row_hits_cap():
    box = Box(-np.ones(2), np.ones(2))
    # step 1/200 solves the curvature-200 rows in one step; the slow row needs ~4,000
    easy = [lambda t, c=np.array(c): 200.0 * (t - c) for c in ([0.5, 0.2], [3.0, -0.1])]
    slow = lambda t: np.diag([1.0, 200.0]) @ (t - np.array([0.5, -0.25]))
    x0 = np.zeros((3, 2))
    _, iters, _ = _projected_descent(by_row(easy), box, x0[:2], 1.0 / 200.0, False, 1e-9, 1_000)
    assert iters.max() <= 3
    with pytest.raises(ConvergenceError):
        _projected_descent(
            by_row([easy[0], slow, easy[1]]), box, x0, 1.0 / 200.0, False, 1e-9, 1_000
        )


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_gradient_raises_at_once_through_best_response(value):
    # the descent checks each gradient before it steps: one oracle call, no per-row rerun
    calls = []
    started = time.perf_counter()
    with pytest.raises(FloatingPointError, match="non-finite gradient components"):
        best_response(non_finite_game(value, calls), "learner", np.zeros(1), box_1d(-1.0, 1.0))
    assert time.perf_counter() - started < 0.05
    assert len(calls) == 1


@pytest.mark.parametrize("regime", equilibrium.REGIMES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_gradient_raises_at_once_through_scaling_curve(regime, value):
    calls = []
    started = time.perf_counter()
    with pytest.raises(FloatingPointError, match="non-finite gradient components"):
        ladder = nested_box_ladder([0.5, 1.0])
        scaling_curve(non_finite_game(value, calls), ladder, regime, env_set=box_1d(-1.0, 1.0))
    assert time.perf_counter() - started < 0.05
    assert len(calls) <= 2


def test_batch_solve_that_does_not_converge_raises_without_a_per_row_rerun():
    hessian = np.diag([1.0, 200.0])
    grad = lambda t: hessian @ (t - np.array([0.5, -0.25]))
    calls = []

    def counted(x, rows):
        calls.append(len(rows))
        return by_row([grad])(x, rows)

    box = Box(-np.ones(2), np.ones(2))
    solve = lambda g: _projected_descent(g, box, np.zeros((1, 2)), 1.0 / 200.0, False, 1e-9, 50)
    with pytest.raises(ConvergenceError):
        _single_point_checked(solve, counted, counted)
    assert len(calls) <= 50 + 1  # the batch at each iteration, the per-row check once


# ---------------------------------------------------------------------------
# Grid points
# ---------------------------------------------------------------------------


GRID_CASES = {
    "box": (Box(np.array([-1.0, -0.5]), np.array([1.0, 2.0])), None),
    "zoomed_sub_box": (
        Box(np.array([-1.0, -0.5]), np.array([1.0, 2.0])),
        Box(np.array([-0.3, 0.1]), np.array([0.2, 0.4])),
    ),
    "halfspace_cut": (
        Intersection([Box(-np.ones(2), np.ones(2)), Halfspace(np.array([1.0, 2.0]), 0.3)]),
        None,
    ),
    "halfspace_cut_zoomed": (
        Intersection([Box(-np.ones(2), np.ones(2)), Halfspace(np.array([1.0, 2.0]), 0.3)]),
        Box(np.array([-0.2, 0.0]), np.array([0.6, 0.5])),
    ),
}


@pytest.mark.parametrize("case", sorted(GRID_CASES))
def test_grid_points_match_per_point_contains_filter(case):
    feasible, box = GRID_CASES[case]
    mesh_box = box if box is not None else feasible.bounding_box()
    mesh = grid_points(mesh_box, 11)
    assert mesh.shape == (11**2, 2)  # a box keeps its whole mesh
    expected = np.array([p for p in mesh if feasible.contains(p, tol=1e-9)])
    kept = grid_points(feasible, 11, box)
    assert kept.tobytes() == expected.tobytes()
    if isinstance(feasible, Intersection):
        assert 0 < kept.shape[0] < mesh.shape[0]


# ---------------------------------------------------------------------------
# Stackelberg
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "leader, dim_leader, dim_follower, resolution",
    [("learner", 1, 2, 101), ("env", 1, 2, 101), ("learner", 2, 1, 21), ("learner", 3, 1, 101)],
)
def test_stackelberg_follower_is_best_response_bitwise(leader, dim_leader, dim_follower, resolution):
    # grid leaders (dimension <= 2) and the pattern-search leader (3) keep the
    # follower response they found, which must be the one-point solve bit for bit
    rng = np.random.default_rng(70 + dim_leader)
    dl, de = (dim_leader, dim_follower) if leader == "learner" else (dim_follower, dim_leader)
    game, _ = random_affine_game(rng, dl, de)
    learner_set, env_set = Box(-np.ones(dl), np.ones(dl)), Box(-np.ones(de), np.ones(de))
    if leader == "learner":
        report = stackelberg_leader(game, "learner", learner_set, env_set, grid_resolution=resolution)
        expected = best_response(game, "env", report.joint.theta, env_set)
        follower_action = report.joint.env
    else:
        report = stackelberg_leader(game, "env", env_set, learner_set, grid_resolution=resolution)
        expected = best_response(game, "learner", report.joint.env, learner_set)
        follower_action = report.joint.theta
    assert report.certified == (dim_leader <= 2)
    assert follower_action.tobytes() == expected.tobytes()


def test_stackelberg_zero_sum_coincides_with_nash():
    bench = zero_sum_instance()
    report = stackelberg_leader(bench.game, "learner", bench.learner_set, bench.env_set)
    nash, _ = solve_nash(bench.game, bench.learner_set, bench.env_set, tol=1e-10)
    np.testing.assert_allclose(report.joint.theta, nash.theta, atol=1e-4)
    assert abs(report.loss_learner - float(bench.game.loss_learner(nash.theta, nash.env))) <= 1e-6


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
    game, env_set = stackelberg_scaling_game()
    leader = stackelberg_leader(game, "learner", box_1d(-1.0, 1.0), env_set)
    nash, _ = solve_nash(game, box_1d(-1.0, 1.0), env_set, tol=1e-10)
    assert leader.loss_learner <= float(game.loss_learner(nash.theta, nash.env)) + 1e-6


def test_stackelberg_grid_tie_goes_to_lexicographically_first_point():
    # the leader loss -(t0 - t1)^2 is lowest at (-1, 1) and (1, -1), equal bit
    # for bit; the grid lists (-1, 1) first
    game = GameSpec(
        dim_learner=2,
        dim_env=1,
        loss_learner=lambda t, e: -((t[0] - t[1]) ** 2) + 0.5 * e[0] ** 2,
        loss_env=lambda t, e: 0.5 * e[0] ** 2,
        grad_learner=lambda t, e: np.array([-2.0 * (t[0] - t[1]), 2.0 * (t[0] - t[1])]),
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=4.0,
    )
    report = stackelberg_leader(game, "learner", Box(-np.ones(2), np.ones(2)), box_1d(-1.0, 1.0))
    assert report.certified
    np.testing.assert_array_equal(report.joint.theta, [-1.0, 1.0])


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
    (avg,) = psgd_nash(game, [BOX2], BOX2, x0, 1000, [np.random.default_rng(0)])
    assert float(np.linalg.norm(avg.concat())) <= 1e-2


def test_psgd_coupled_linear_system_solution():
    bench = coupled_quadratic(sigma=0.0)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    (avg,) = psgd_nash(
        bench.game, [bench.learner_set], bench.env_set, x0, 20_000, [np.random.default_rng(1)]
    )
    np.testing.assert_allclose(avg.theta, [0.0], atol=1e-3)
    np.testing.assert_allclose(avg.env, [1.0], atol=1e-3)


@pytest.mark.parametrize("horizon", [0, math.inf, math.nan, 2.5, 4.0, -3, "8"])
def test_psgd_rejects_bad_horizon(horizon):
    # before any step: inf ran without end, nan leaked StopIteration and 2.5 failed slicing a buffer
    calls = []
    game = gradient_bad_at(decoupled_quadratic(), 0, 0.0, calls)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match=r"^horizon must be an integer >= 1, got "):
        psgd_nash(game, [BOX2], BOX2, x0, horizon, [np.random.default_rng(0)])
    assert calls == []


def test_psgd_batch_rejects_an_empty_cohort_and_a_run_with_no_cohort():
    batch = psgd.PSGDBatch(decoupled_quadratic(), BOX2, JointAction(np.zeros(1), np.zeros(1)))
    with pytest.raises(ValueError, match="^a cohort needs at least one run$"):
        batch.join([], 8, [])
    with pytest.raises(ValueError, match="^no cohort to run: join one first$"):
        batch.run()
    cohort = batch.join([BOX2], 8, [np.random.default_rng(0)])
    batch.drop(cohort)
    with pytest.raises(ValueError, match="^no cohort to run: join one first$"):
        batch.run()


def test_psgd_deterministic_given_seed():
    bench = coupled_quadratic(sigma=0.3)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    sets = [bench.learner_set]
    (a,) = psgd_nash(bench.game, sets, bench.env_set, x0, 500, [np.random.default_rng(7)])
    (b,) = psgd_nash(bench.game, sets, bench.env_set, x0, 500, [np.random.default_rng(7)])
    np.testing.assert_array_equal(a.concat(), b.concat())


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
        (avg,) = psgd_nash(
            bench.game, [bench.learner_set], bench.env_set, x0, horizon, [np.random.default_rng(2)]
        )
        errors[horizon] = float(np.linalg.norm(avg.concat() - star))
    horizons = sorted(errors)
    for a, b in zip(horizons, horizons[1:]):
        assert errors[b] <= errors[a] + 1e-12
    # at least c / sqrt(T): quadrupling T must at least halve the error
    assert errors[4096] <= errors[1024] / 2.0 * 1.001


def test_psgd_residual_small_at_large_horizon():
    bench = coupled_quadratic(sigma=0.1)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    (avg,) = psgd_nash(
        bench.game, [bench.learner_set], bench.env_set, x0, 10_000, [np.random.default_rng(3)]
    )
    res = nash_residual(bench.game, avg, bench.learner_set, bench.env_set)
    assert res <= 1e-2


def _bits(point: JointAction) -> bytes:
    return point.concat().tobytes()


@pytest.mark.parametrize("horizon", [1, 2, 17, 512, 2 * NOISE_BLOCK + 3])
def test_psgd_batch_rows_equal_single_runs_bitwise(horizon):
    bench = coupled_quadratic(sigma=0.3)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    seeds = [[30, horizon, s] for s in range(20)]
    batch = psgd_nash(
        bench.game, [bench.learner_set] * 20, bench.env_set, x0, horizon,
        [np.random.default_rng(seed) for seed in seeds],
    )
    for seed, row in zip(seeds, batch):
        alone = single_run_psgd(
            bench.game, bench.learner_set, bench.env_set, x0, horizon, np.random.default_rng(seed)
        )
        assert _bits(row) == _bits(alone)


def _block(rows: int) -> int:
    """Steps in a full noise block of a batch of rows."""
    return max(NOISE_BLOCK, NOISE_CELLS // rows)


@pytest.mark.parametrize("blocks, extra", [(1, 0), (2, 3)])  # ending on a block's end; into a partial third block
@pytest.mark.parametrize("n_arms", [1, 2, 3, 4])
def test_psgd_batch_of_selection_arms_equals_single_runs_bitwise(n_arms, blocks, extra):
    horizon = blocks * _block(n_arms) + extra
    arms, game, env_set = selection_arms([0.0, 0.25, 0.5, 1.0], sigma=0.5)
    sets = arms[:n_arms]
    x0 = JointAction(np.zeros(1), np.zeros(1))
    batch = psgd_nash(game, sets, env_set, x0, horizon, np.random.default_rng([5, n_arms]).spawn(n_arms))
    streams = np.random.default_rng([5, n_arms]).spawn(n_arms)
    for arm, stream, row in zip(sets, streams, batch):
        assert _bits(row) == _bits(single_run_psgd(game, arm, env_set, x0, horizon, stream))


@pytest.mark.parametrize("non_box", [False, True], ids=["box", "intersection"])
def test_psgd_batch_rows_that_join_late_and_end_mid_block_equal_single_runs_bitwise(monkeypatch, non_box):
    # a (2 rows, 400 steps) and b (3 rows, 37) join at once; b ends mid-block, c (2 rows, 300)
    # joins at a's step 37 and ends at a's step 337, then a ends: with a four-row batch's blocks
    # of 256 steps, blocks end at a's steps 37, 293, 337 and 400
    arms, game, env_set = selection_arms([0.0, 0.25, 0.5, 1.0], sigma=0.5)
    if non_box:
        arms = [Intersection([arm, Halfspace(np.array([1.0]), float(arm.upper[0]) - 0.25)]) for arm in arms]
    x0 = JointAction(np.zeros(1), np.zeros(1))
    blocks = []
    monkeypatch.setattr(psgd, "gradient_noise", lambda *args: blocks.append(len(args[-1])) or gradient_noise(*args))
    batch = psgd.PSGDBatch(game, env_set, x0)
    plan = {"a": (arms[:2], 400, [40, 41]), "b": (arms[1:], 37, [42, 43, 44]), "c": (arms[::3], 300, [45, 46])}
    join = lambda name: batch.join(plan[name][0], plan[name][1], [np.random.default_rng(s) for s in plan[name][2]])
    cohorts = {join("a"): "a", join("b"): "b"}
    finished = [batch.run()]
    cohorts[join("c")] = "c"
    finished += [batch.run(), batch.run()]
    assert [cohorts[c] for c, _ in finished] == ["b", "c", "a"] and not batch.cohorts
    assert _block(4) == 256 and blocks == [37, 256, 44, 63]
    for cohort, averages in finished:
        sets, horizon, seeds = plan[cohorts[cohort]]
        for arm, seed, row in zip(sets, seeds, averages):
            alone = single_run_psgd(game, arm, env_set, x0, horizon, np.random.default_rng(seed))
            assert row.tobytes() == alone.concat().tobytes()


# within one noise block, ending on and just past its boundary, and into a partial third block,
# for a block of NOISE_BLOCK steps and for the three-row batches' longer one
BLOCK_EDGES = [40, NOISE_BLOCK - 1, NOISE_BLOCK, NOISE_BLOCK + 1, 2 * NOISE_BLOCK + 3,
               _block(3), _block(3) + 1, 2 * _block(3) + 3]


@pytest.mark.parametrize("horizon", BLOCK_EDGES)
def test_psgd_batch_with_non_box_sets_equals_single_runs_bitwise(horizon):
    # an Intersection learner row sends the learner block row by row, and the
    # Intersection environment set projects each row on its own
    bench = coupled_quadratic(sigma=0.3)
    cut = Intersection([box_1d(-2.0, 2.0), Halfspace(np.array([1.0]), -0.25)])
    env_set = Intersection([box_1d(-2.0, 2.0), Halfspace(np.array([1.0]), 0.75)])
    sets = [cut, bench.learner_set, cut]
    x0 = JointAction(np.array([1.0]), np.array([1.0]))
    batch = psgd_nash(bench.game, sets, env_set, x0, horizon, [np.random.default_rng(i) for i in range(3)])
    for i, (learner_set, row) in enumerate(zip(sets, batch)):
        alone = single_run_psgd(bench.game, learner_set, env_set, x0, horizon, np.random.default_rng(i))
        assert _bits(row) == _bits(alone)
    assert batch[0].theta[0] <= -0.25 + 1e-12


@pytest.mark.parametrize("horizon", BLOCK_EDGES)
@pytest.mark.parametrize("mixed", ["box_learners_intersection_env", "one_intersection_learner"])
def test_psgd_batch_with_mixed_sets_equals_single_runs_bitwise(mixed, horizon):
    # any non-Box set sends the whole batch down the row-by-row path, Box rows too
    bench = coupled_quadratic(sigma=0.3)
    if mixed == "box_learners_intersection_env":
        sets = [bench.learner_set, box_1d(-0.5, 0.5), bench.learner_set]
        env_set = Intersection([box_1d(-2.0, 2.0), Halfspace(np.array([1.0]), 0.75)])
    else:
        cut = Intersection([box_1d(-2.0, 2.0), Halfspace(np.array([1.0]), -0.25)])
        sets = [bench.learner_set, cut, box_1d(-0.5, 0.5)]
        env_set = box_1d(-0.5, 0.5)
    x0 = JointAction(np.array([1.0]), np.array([1.0]))
    batch = psgd_nash(
        bench.game, sets, env_set, x0, horizon, [np.random.default_rng([32, i]) for i in range(3)]
    )
    for i, (learner_set, row) in enumerate(zip(sets, batch)):
        alone = single_run_psgd(
            bench.game, learner_set, env_set, x0, horizon, np.random.default_rng([32, i])
        )
        assert _bits(row) == _bits(alone)


def test_psgd_oracle_rows_have_the_one_point_gradient_bits():
    # each batch oracle call's row i is gradient_operator at row i's joint point
    game = coupling_game(0.5, sigma=0.3)
    calls = []

    def logged(oracle):
        def grad(t, e):
            calls.append((np.hstack([t, e]), oracle(t, e)))
            return calls[-1][1]

        return grad

    batched = dataclasses.replace(game, grad_learner=logged(game.grad_learner), grad_env=logged(game.grad_env))
    x0 = JointAction(np.array([1.5]), np.array([-0.5]))
    psgd_nash(batched, [BOX2] * 6, BOX2, x0, 5, np.random.default_rng(5).spawn(6))
    assert len(calls) == 10
    for (points, g_learner), (same, g_env) in zip(calls[::2], calls[1::2]):
        assert points.shape == (6, 2) and points.tobytes() == same.tobytes()
        for point, row in zip(points, np.hstack([g_learner, g_env])):
            assert row.tobytes() == gradient_operator(game, point).tobytes()
    assert len({row.tobytes() for row in calls[-1][0]}) == 6  # the noise set the rows apart


@pytest.mark.parametrize(
    "grad_learner",
    [
        lambda t, e: np.array([t[0] + e[0]]),  # row 0 as a (1, 1) array
        lambda t, e: t[0] + e[0],  # row 0 as a (1,) array
        lambda t, e: float(t[0, 0] + e[0, 0]),  # row 0 as a float
        lambda t, e: t[:, 0] + e[:, 0],  # every row, but flattened to (B,)
    ],
    ids=["row0-array", "row0-vector", "row0-float", "flat"],
)
def test_psgd_rejects_an_oracle_result_of_the_wrong_shape(grad_learner):
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.0,
        loss_env=lambda t, e: 0.0,
        grad_learner=grad_learner,
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=1.0,
    )
    x0 = JointAction(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match=r"grad_learner returned shape .* expected \(3, 1\)"):
        psgd_nash(game, [BOX2] * 3, BOX2, x0, 4, np.random.default_rng(0).spawn(3))


@pytest.mark.parametrize("missing", ["grad_learner", "grad_env"])
def test_psgd_names_the_missing_oracle(missing):
    oracles = {"grad_learner": lambda t, e: t, "grad_env": lambda t, e: e}
    del oracles[missing]
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2,
        loss_env=lambda t, e: 0.5 * e[0] ** 2,
        mu=1.0,
        lipschitz=1.0,
        **oracles,
    )
    x0 = JointAction(np.zeros(1), np.zeros(1))
    with pytest.raises(ValueError, match=f"no {missing} oracle"):
        psgd_nash(game, [BOX2] * 2, BOX2, x0, 4, np.random.default_rng(0).spawn(2))


def test_psgd_rejects_a_non_finite_gradient_row():
    # row 1's box starts it where its gradient is inf; row 0 stays finite
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.0,
        loss_env=lambda t, e: 0.0,
        grad_learner=lambda t, e: np.where(t > 1.0, np.inf, t),
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=1.0,
    )
    x0 = JointAction(np.zeros(1), np.zeros(1))
    unit = box_1d(-1.0, 1.0)
    psgd_nash(game, [unit] * 2, unit, x0, 8, np.random.default_rng(0).spawn(2))
    with pytest.raises(FloatingPointError, match="non-finite gradient components"):
        psgd_nash(game, [unit, box_1d(2.0, 3.0)], unit, x0, 8, np.random.default_rng(0).spawn(2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("sets", ["box", "intersection"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bad_step", [30, 2 * _block(2) + 3])  # mid-block; last of a partial third block
def test_psgd_non_finite_gradient_at_one_step_raises(bad_step, value, sets):
    # the steps stepped after the bad gradient, on nan or clipped iterates, add no warning
    bench = coupled_quadratic(sigma=0.3)
    calls = []
    game = gradient_bad_at(bench.game, bad_step, value, calls)
    env_set = bench.env_set
    if sets == "intersection":
        env_set = Intersection([box_1d(-2.0, 2.0), Halfspace(np.array([1.0]), 0.75)])
    x0 = JointAction(np.zeros(1), np.zeros(1))
    horizon = 2 * _block(2) + 3
    with pytest.raises(FloatingPointError, match="^non-finite gradient components$"):
        psgd_nash(game, [bench.learner_set] * 2, env_set, x0, horizon, np.random.default_rng(4).spawn(2))
    # an all-Box batch raises at the end of the bad step's block, any other at the step
    block_end = min(-(-bad_step // _block(2)) * _block(2), horizon)
    assert len(calls) == (block_end if sets == "box" else bad_step)


@pytest.mark.parametrize("bad_step, block_end", [(30, NOISE_BLOCK), (NOISE_BLOCK + 1, 2 * NOISE_BLOCK)])
def test_psgd_wide_box_batch_checks_gradients_every_noise_block(bad_step, block_end):
    # 20 rows take blocks of NOISE_BLOCK steps: NOISE_CELLS // 20 is fewer
    bench = coupled_quadratic(sigma=0.3)
    calls = []
    game = gradient_bad_at(bench.game, bad_step, math.nan, calls)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    assert _block(20) == NOISE_BLOCK
    with pytest.raises(FloatingPointError, match="^non-finite gradient components$"):
        psgd_nash(game, [bench.learner_set] * 20, bench.env_set, x0, 3 * NOISE_BLOCK,
                  np.random.default_rng(4).spawn(20))
    assert len(calls) == block_end


# every value is also a bound somewhere, so rows land exactly on bounds too
EDGE_VALUES = [-math.inf, -1.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1.5, math.inf]
EDGE_BOUNDS = [
    (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0.0, 0.0), (-math.inf, math.inf),
    (-math.inf, -math.inf), (math.inf, math.inf), (-math.inf, -0.0), (0.0, math.inf),
    (-1.0, 1.0), (-5e-324, 5e-324), (5e-324, 1.5),
]


def test_box_projections_have_np_clip_bits_at_edge_values():
    # All-Box PSGD batches project with maximum then minimum in place, and so
    # do Box.project and Box.project_rows; each must give np.clip's bits. The
    # first gradient call sees the projected start, x0 tiled.
    d = len(EDGE_VALUES)
    seen = []
    game = GameSpec(
        dim_learner=d, dim_env=d, loss_learner=lambda t, e: 0.0, loss_env=lambda t, e: 0.0,
        grad_learner=lambda t, e: seen.append(np.hstack([t, e])) or np.zeros_like(t),
        grad_env=lambda t, e: np.zeros_like(e), mu=1.0, lipschitz=1.0,
    )
    x0 = JointAction(np.array(EDGE_VALUES), np.array(EDGE_VALUES))
    n = len(EDGE_BOUNDS)
    learner_sets = [
        Box(*(np.array([EDGE_BOUNDS[(i + j) % n][side] for j in range(d)]) for side in (0, 1)))
        for i in range(n)
    ]
    for lo, hi in EDGE_BOUNDS:
        env_set = Box(np.full(d, lo), np.full(d, hi))
        seen.clear()
        psgd_nash(game, learner_sets, env_set, x0, 1, [np.random.default_rng(0)] * n)
        clip = lambda s, x: np.clip(x, s.lower, s.upper)
        clipped = np.array([np.concatenate([clip(s, x0.theta), clip(env_set, x0.env)]) for s in learner_sets])
        assert seen[0].tobytes() == clipped.tobytes()
        for s in (*learner_sets, env_set):
            assert s.project(x0.theta).tobytes() == clip(s, x0.theta).tobytes()
            rows = np.array([x0.theta, x0.env[::-1]])
            assert s.project_rows(rows).tobytes() == clip(s, rows).tobytes()


@pytest.mark.parametrize("block", [1, 7, NOISE_BLOCK])
def test_psgd_bits_do_not_depend_on_the_noise_block(monkeypatch, block):
    # 40 steps: 40 blocks of 1, five of 7 and a partial one, or one block
    bench = coupled_quadratic(sigma=0.3)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    monkeypatch.setattr(psgd, "NOISE_BLOCK", block)
    monkeypatch.setattr(psgd, "NOISE_CELLS", 3 * block)  # three rows, so blocks of NOISE_BLOCK steps
    blocks = []
    monkeypatch.setattr(psgd, "gradient_noise", lambda *args: blocks.append(len(args[-1])) or gradient_noise(*args))
    batch = psgd_nash(
        bench.game, [bench.learner_set] * 3, bench.env_set, x0, 40,
        [np.random.default_rng([31, s]) for s in range(3)],
    )
    assert blocks == [block] * (40 // block) + [40 % block] * (40 % block > 0)
    for s, row in enumerate(batch):
        alone = single_run_psgd(
            bench.game, bench.learner_set, bench.env_set, x0, 40, np.random.default_rng([31, s])
        )
        assert _bits(row) == _bits(alone)


class LoggedNormal:
    """Generator wrapper that logs each standard_normal size; with zero_first,
    its first direction (the first row of its first draw) is all zeros."""

    def __init__(self, rng: np.random.Generator, zero_first: bool = False):
        self.rng = rng
        self.zero_first = zero_first
        self.sizes: list = []

    def standard_normal(self, size):
        draw = self.rng.standard_normal(size)
        if self.zero_first and not self.sizes:
            draw.reshape(-1, draw.shape[-1])[0] = 0.0
        self.sizes.append(size)
        return draw


class ZeroFirstNormal:
    """Generator whose spawned direction child draws an all-zero first
    direction; its redraw child logs each draw."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def spawn(self, n: int):
        direction, magnitude, redraw = self.rng.spawn(n)
        self.redraw = LoggedNormal(redraw)
        return [LoggedNormal(direction, zero_first=True), magnitude, self.redraw]


def test_psgd_redraws_a_zero_noise_direction_in_the_single_run_order():
    bench = coupled_quadratic(sigma=0.3)
    x0 = JointAction(np.zeros(1), np.zeros(1))
    stub = ZeroFirstNormal(9)
    batch = psgd_nash(
        bench.game, [bench.learner_set] * 2, bench.env_set, x0, 5, [np.random.default_rng(8), stub]
    )
    reference = ZeroFirstNormal(9)
    alone = single_run_psgd(bench.game, bench.learner_set, bench.env_set, x0, 5, reference)
    assert _bits(batch[1]) == _bits(alone)
    # one redraw of dimension 2, from the redraw child, in both
    assert stub.redraw.sizes == reference.redraw.sizes == [2]
    other = single_run_psgd(
        bench.game, bench.learner_set, bench.env_set, x0, 5, np.random.default_rng(8)
    )
    assert _bits(batch[0]) == _bits(other)
    # the stub took effect: its redrawn first direction is not the plain run's
    plain = single_run_psgd(
        bench.game, bench.learner_set, bench.env_set, x0, 5, np.random.default_rng(9)
    )
    assert _bits(alone) != _bits(plain)


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


def test_residual_zero_at_closed_form_nash_of_random_affine_games():
    rng = np.random.default_rng(71)
    for _ in range(20):
        dl, de = (int(n) for n in rng.integers(1, 4, size=2))
        game, x_star = random_affine_game(rng, dl, de)
        learner_set, env_set = Box(-np.ones(dl), np.ones(dl)), Box(-np.ones(de), np.ones(de))
        nash = JointAction.from_concat(x_star, dl)
        assert nash_residual(game, nash, learner_set, env_set) <= 1e-12
        off = JointAction.from_concat(x_star + 0.1 * rng.standard_normal(dl + de), dl)
        assert nash_residual(game, off, learner_set, env_set) > 1e-3
        solved, _ = solve_nash(game, learner_set, env_set, tol=1e-10)
        np.testing.assert_allclose(solved.concat(), x_star, atol=1e-8)


# ---------------------------------------------------------------------------
# Pareto improvement search
# ---------------------------------------------------------------------------


def test_pareto_zero_sum_nash_has_no_improvement():
    bench = zero_sum_instance()
    assert pareto_improvement_search(bench.game, bench.nash, bench.learner_set, bench.env_set) is None


def pareto_coupled_game() -> GameSpec:
    """Losses written for single points: on a batch, t[0] is row 0, shape (1,)."""
    return GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t[0] ** 2 + t[0] * e[0],
        loss_env=lambda t, e: 0.5 * e[0] ** 2 + t[0] * e[0],
        grad_learner=lambda t, e: np.array([t[0] + e[0]]),
        grad_env=lambda t, e: np.array([e[0] + t[0]]),
        mu=1.0,
        lipschitz=2.0,
    )


def test_pareto_coupled_game_finds_witness():
    game = pareto_coupled_game()
    box = box_1d(-1.0, 1.0)
    witness = pareto_improvement_search(game, JointAction(np.zeros(1), np.zeros(1)), box, box)
    assert witness is not None
    assert game.loss_learner(witness.theta, witness.env) < -1e-9
    assert game.loss_env(witness.theta, witness.env) <= 1e-12


def test_pareto_none_at_joint_minimum():
    game = quadratic_target_game([0.0])
    x = JointAction(np.zeros(1), np.zeros(1))
    assert pareto_improvement_search(game, x, box_1d(-1, 1), box_1d(-1, 1)) is None


def witness_bytes(witness):
    return None if witness is None else (witness.theta.tobytes(), witness.env.tobytes())


def checked_witness(game, x, learner_set, env_set):
    """The search's witness, asserted equal to the one-pair-at-a-time
    oracle's byte for byte, and whether the search kept to its batch path
    (for a 1-dim learner): one loss_env batch call per learner grid point and
    no rerun, which would go back to the first grid point's single calls."""
    log = []  # (batch call, first theta coordinate) of each loss_env call

    def loss_env(t, e):
        log.append((np.ndim(t) == 2, float(np.asarray(t).flat[0])))
        return game.loss_env(t, e)

    spied = dataclasses.replace(game, loss_env=loss_env)
    witness = pareto_improvement_search(spied, x, learner_set, env_set)
    assert witness_bytes(witness) == witness_bytes(scalar_pareto_search(game, x, learner_set, env_set))
    thetas = [t for _, t in log[1:]]  # after the reference point's call
    batched = sum(batch for batch, _ in log) == len(grid_points(learner_set, 201)) and thetas == sorted(thetas)
    return witness, batched


PARETO_POINTS = [(0.0, 0.0), (0.3, -0.2), (1.1, 0.4), (-1.5, 1.98), (2.0, -2.0)]


@pytest.mark.parametrize("instance", [restriction_instance, zero_sum_instance])
def test_shipped_restrict_losses_have_single_point_bits_on_every_grid_pair(instance):
    bench = instance()
    theta_pts, env_pts = grid_points(bench.learner_set, 201), grid_points(bench.env_set, 201)
    for loss in (bench.game.loss_learner, bench.game.loss_env):
        for t in theta_pts:
            batch = loss(np.broadcast_to(t, env_pts.shape), env_pts)
            assert batch.tobytes() == np.array([loss(t, e) for e in env_pts]).tobytes()


@pytest.mark.parametrize("point", PARETO_POINTS)
@pytest.mark.parametrize("instance", [restriction_instance, zero_sum_instance])
def test_pareto_search_matches_scalar_oracle_on_shipped_instances(instance, point):
    bench = instance()
    x = JointAction(np.array([point[0]]), np.array([point[1]]))
    assert checked_witness(bench.game, x, bench.learner_set, bench.env_set)[1]  # the losses broadcast


@pytest.mark.parametrize("point", PARETO_POINTS[:3])
def test_pareto_search_matches_scalar_oracle_on_single_point_losses(point):
    box = box_1d(-1.0, 1.0)
    x = JointAction(np.array([point[0]]), np.array([point[1]]))
    assert not checked_witness(pareto_coupled_game(), x, box, box)[1]


def random_quadratic_game(rng: np.random.Generator) -> GameSpec:
    """f = a t^2 + b t e + c e^2 + d t + g e per player with random
    coefficients; the losses broadcast over rows with the single-point bits.
    They square by multiplying: a numpy float64's ** 2 calls pow, which rounds
    differently from an array's ** 2 (a product) on ~0.1% of inputs."""
    cl, ce = rng.normal(size=5), rng.normal(size=5)
    quad = lambda c: lambda t, e: (
        c[0] * t.T[0] * t.T[0] + c[1] * t.T[0] * e.T[0] + c[2] * e.T[0] * e.T[0] + c[3] * t.T[0] + c[4] * e.T[0]
    )
    return GameSpec(dim_learner=1, dim_env=1, loss_learner=quad(cl), loss_env=quad(ce), mu=1.0, lipschitz=1.0)


@dataclasses.dataclass(eq=False)
class LooseInterval(Box):
    """An interval whose bounding box is `width` times as wide, so about
    201 / width of the search's 201 grid points fall in it and the
    one-pair-at-a-time oracle stays cheap."""

    width: float = 1.0

    def bounding_box(self) -> Box:
        mid, half = (self.lower + self.upper) / 2, self.width * (self.upper - self.lower) / 2
        return Box(mid - half, mid + half)


def random_loose_interval(rng: np.random.Generator) -> LooseInterval:
    lo, hi = np.sort(rng.uniform(-2.0, 2.0, 2))
    return LooseInterval(np.array([lo]), np.array([hi]), rng.uniform(4.0, 20.0))


def test_pareto_search_matches_scalar_oracle_on_random_quadratics():
    rng = np.random.default_rng(18)
    found = 0
    for k in range(50):
        game = random_quadratic_game(rng)
        learner_set, env_set = random_loose_interval(rng), random_loose_interval(rng)
        theta_pts, env_pts = grid_points(learner_set, 201), grid_points(env_set, 201)
        if k % 3 == 0:  # a grid point: ties with the reference's own values
            t, e = rng.choice(theta_pts), rng.choice(env_pts)
        elif k % 3 == 1:
            t, e = learner_set.sample(rng), env_set.sample(rng)
        else:  # the learner's best grid point: no witness, after ties at the reference
            losses = [[game.loss_learner(t, e) for e in env_pts] for t in theta_pts]
            i, j = np.unravel_index(np.argmin(losses), (len(theta_pts), len(env_pts)))
            t, e = theta_pts[i], env_pts[j]
        witness, batched = checked_witness(game, JointAction(t, e), learner_set, env_set)
        assert batched
        found += witness is not None
    assert 15 <= found <= 40


@pytest.mark.parametrize("below", ["ulp_above", "nan"])
@pytest.mark.parametrize("f_e_ref", [0.0, 0.37, -5.25])
def test_pareto_search_keeps_the_scalar_rule_at_ties_and_on_the_threshold(f_e_ref, below):
    """Along each learner row the learner loss falls by less than 1e-15 in
    total, so the rule keeps the row's first admissible pair, not its argmin.
    The env loss sits exactly on f_e_ref + 1e-12 for e in [-0.5, 0); below
    -0.5 it is one ulp above that, which the rule skips, or NaN, which it
    does not. So the witness is (1, -0.5) or (1, -1)."""
    on = f_e_ref + 1e-12
    far = float(np.nextafter(on, np.inf)) if below == "ulp_above" else math.nan

    def loss_env(t, e):
        e0 = e.T[0]
        return np.where(e0 < -0.5, far, np.where(e0 < 0.0, on, f_e_ref)) + 0.0 * t.T[0]

    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: -0.25 * t.T[0] - 3e-16 * e.T[0],
        loss_env=loss_env,
        mu=1.0,
        lipschitz=1.0,
    )
    box = LooseInterval(-np.ones(1), np.ones(1), 5.0)  # grid step 0.05
    x = JointAction(np.array([-1.0]), np.array([0.0]))
    witness, batched = checked_witness(game, x, box, box)
    assert batched
    assert (float(witness.theta[0]), float(witness.env[0])) == (1.0, -0.5 if below == "ulp_above" else -1.0)


def row0_ulp_off(loss):
    def f(t, e):
        v = loss(t, e)
        if np.ndim(t) == 2:
            v = v.copy()
            v[0] = np.nextafter(v[0], np.inf)
        return v

    return f


@pytest.mark.parametrize(
    "broken",
    [
        "raises",
        lambda base: lambda t, e: 0.5 * (e[0] - t[0]) ** 2,  # row 0 only, shape (1,)
        lambda base: lambda t, e: base(t, e).sum() if t.ndim == 2 else base(t, e),  # a 0-d scalar
        row0_ulp_off,
    ],
    ids=["raises", "row0", "scalar", "ulp"],
)
def test_pareto_search_reruns_one_pair_at_a_time_on_a_broken_batch(broken):
    if broken == "raises":  # float(... @ ...) of a batch raises
        game = quadratic_target_game([0.3])
        sets = (box_1d(-1.0, 1.0), box_1d(-1.0, 1.0))
        x = JointAction(np.array([-0.5]), np.array([0.0]))
    else:
        bench = restriction_instance()
        game = dataclasses.replace(bench.game, loss_env=broken(bench.game.loss_env))
        sets = (bench.learner_set, bench.env_set)
        x = JointAction(np.array([0.3]), np.array([-0.2]))
    witness, batched = checked_witness(game, x, *sets)
    assert witness is not None and not batched


@pytest.mark.parametrize("point", PARETO_POINTS)
def test_pareto_search_scans_one_pair_at_a_time_from_the_first_failed_batch(point):
    # the batch call raises only for learner points past 0, halfway through the grid;
    # witnesses at (1.1, 0.4) and (-1.5, 1.98) lie past 0, found by the scan alone
    bench = restriction_instance()
    log = []  # (batch call, first theta coordinate) of each loss_env call

    def loss_env(t, e):
        log.append((np.ndim(t) == 2, float(np.asarray(t).flat[0])))
        if np.ndim(t) == 2 and t[0, 0] > 0.0:
            raise ValueError("no batch past 0")
        return bench.game.loss_env(t, e)

    x = JointAction(np.array([point[0]]), np.array([point[1]]))
    game = dataclasses.replace(bench.game, loss_env=loss_env)
    witness = pareto_improvement_search(game, x, bench.learner_set, bench.env_set)
    assert witness_bytes(witness) == witness_bytes(scalar_pareto_search(bench.game, x, bench.learner_set, bench.env_set))
    theta_pts = grid_points(bench.learner_set, 201)[:, 0]
    first_failed = float(theta_pts[theta_pts > 0.0][0])
    # one batch call per learner point up to the first that fails, none after it, and one pass
    assert [t for batch, t in log if batch] == [*theta_pts[theta_pts <= 0.0].tolist(), first_failed]
    thetas = [t for _, t in log[1:]]  # after the reference point's call
    assert thetas == sorted(thetas)


# [5e-5, 1e-4] of [0, 1]: between two points of the 101-point grid
BETWEEN_GRID_POINTS = Intersection([box_1d(0.0, 1.0), Halfspace([1.0], 1e-4), Halfspace([-1.0], -5e-5)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda game: best_responses(game, "nobody", np.zeros((1, 1)), box_1d(-1, 1), 1e-8), "unknown player"),
        (lambda game: stackelberg_leader(game, "nobody", box_1d(-1, 1), box_1d(-1, 1)), "unknown leader"),
        (lambda game: stackelberg_leader(game, "learner", BETWEEN_GRID_POINTS, box_1d(-1, 1)), "empty grid"),
        (lambda game: psgd_nash(game, [box_1d(-1, 1)], box_1d(-1, 1), JointAction([0.0], [0.0]), 8, []),
         "1 learner sets for 0 generators"),
        (lambda game: scaling_curve(game, ModelClassLadder([box_1d(-1, 1)]), "nobody"), "unknown regime"),
        # a loss that raises on a batch and on single points too: the single-point rerun raises
        (lambda game: pareto_improvement_search(
            dataclasses.replace(game, loss_env=lambda t, e: math.sqrt(e.item(0))),
            JointAction([0.0], [0.25]), box_1d(-1, 1), box_1d(-1, 1)), "math domain error"),
    ],
)
def test_bad_solver_input_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call(quadratic_target_game([0.0]))


@pytest.mark.parametrize("name", ["loss_learner", "loss_env"])
def test_pareto_search_with_a_non_finite_reference_raises(name):
    game = dataclasses.replace(quadratic_target_game([0.3]), **{name: lambda t, e: math.nan})
    with pytest.raises(FloatingPointError, match=f"{name} is not finite at x"):
        pareto_improvement_search(game, JointAction([0.0], [0.0]), box_1d(-1, 1), box_1d(-1, 1))


def test_pareto_search_rejects_joint_dimension_above_4():
    game = quadratic_target_game([0.0, 0.0, 0.0])
    x = JointAction(np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError, match="joint dimension <= 4"):
        pareto_improvement_search(game, x, Box(-np.ones(3), np.ones(3)), Box(-np.ones(2), np.ones(2)))


def test_pareto_search_rejects_more_than_20_million_pairs():
    game = quadratic_target_game([0.0, 0.0])
    square = Box(-np.ones(2), np.ones(2))  # 201^2 grid points, 201^4 pairs
    with pytest.raises(ValueError, match="grid too large"):
        pareto_improvement_search(game, JointAction(np.zeros(2), np.zeros(2)), square, square)


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
    (avg,) = psgd_nash(game, [box], box, x0, 20_000, [np.random.default_rng(4)])
    for candidate in (grid_point, br_point, avg):
        assert float(np.linalg.norm(candidate.concat() - exact.concat())) <= spacing
    assert regret <= 1e-9


# ---------------------------------------------------------------------------
# Scaling curves
# ---------------------------------------------------------------------------


def test_scaling_curve_stationary_monotone():
    curve = scaling_curve(
        stationary_scaling_game(np.array([2.0, 0.0])),
        nested_box_ladder([0.2, 0.4, 0.6, 0.8, 1.0], dim=2),
        "stationary",
    )
    losses = [rep.loss_learner for _, rep in curve]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_scaling_curve_stackelberg_monotone():
    game, env_set = stackelberg_scaling_game()
    curve = scaling_curve(
        game,
        nested_box_ladder([0.2, 0.4, 0.6, 0.8, 1.0], dim=1),
        "stackelberg_leader",
        env_set=env_set,
    )
    losses = [rep.loss_learner for _, rep in curve]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))


def test_scaling_curve_nash_restriction_improves():
    # ladder: the certified restricted set, then the full class
    bench = restriction_instance()
    from gamescale.restriction import certify_restriction

    cert = certify_restriction(bench.game, bench.learner_set, bench.env_set)
    ladder = ModelClassLadder([cert.restricted_set, bench.learner_set])
    curve = scaling_curve(bench.game, ladder, "nash", env_set=bench.env_set)
    restricted_loss = curve[0][1].loss_learner
    full_loss = curve[1][1].loss_learner
    assert restricted_loss < full_loss - 1e-4


def tilted_tracking_game(dim):
    """f_l = |theta - c|^2 / 2 + e (a . theta), f_e = (e - a . theta)^2 / 2 on a
    dim-dimensional learner: the coupling is skew, so mu = 1. The gradients
    broadcast over rows with the single-point bits (a . theta summed in one
    order); the losses take single points only."""
    c, a = np.linspace(0.8, -0.4, dim), np.linspace(0.5, -0.3, dim)
    dot = lambda t: sum(t[..., j : j + 1] * a[j] for j in range(dim))  # shape (1,) or (B, 1)
    return GameSpec(
        dim_learner=dim,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * float((t - c) @ (t - c)) + float(e[0]) * float(a @ t),
        loss_env=lambda t, e: 0.5 * (float(e[0]) - float(a @ t)) ** 2,
        grad_learner=lambda t, e: t - c + e * a,
        grad_env=lambda t, e: e - dot(t),
        mu=1.0,
        lipschitz=math.sqrt(1.0 + float(a @ a)),
    )


def restricted_ladder():
    """The certified restricted set (an Intersection) below the full class."""
    bench = restriction_instance()
    from gamescale.restriction import certify_restriction

    cert = certify_restriction(bench.game, bench.learner_set, bench.env_set)
    return bench.game, ModelClassLadder([cert.restricted_set, bench.learner_set]), bench.env_set


BENCH_RADII = [0.05 * i for i in range(1, 21)]  # the ladder workload's --radii
ALL_REGIMES = ("stationary", "stackelberg_leader", "stackelberg_follower", "nash")


def bench_ladder():
    game, env_set = stackelberg_scaling_game()
    return game, nested_box_ladder(BENCH_RADII), env_set, ALL_REGIMES


# name -> (game, ladder, env set, regimes)
CURVE_CASES = {
    "bench_radii": bench_ladder,
    "bench_radii_stationary": lambda: (
        stationary_scaling_game(np.array([2.0, 0.0])), nested_box_ladder(BENCH_RADII, dim=2), None, ("stationary",)
    ),
    "intersection": lambda: (*restricted_ladder(), ALL_REGIMES),
    # oracles that refuse batches: every solve reruns one point at a time
    "single_point_only": lambda: (
        with_oracles(random_affine_game(np.random.default_rng(90), 1, 1)[0], single_point_only),
        nested_box_ladder([0.3, 1.0]),
        box_1d(-1.0, 1.0),
        ALL_REGIMES,
    ),
    "leader_2d": lambda: (tilted_tracking_game(2), nested_box_ladder([0.3, 1.0], dim=2), box_1d(-1.0, 1.0), ALL_REGIMES),
    "leader_3d_pattern": lambda: (
        tilted_tracking_game(3), nested_box_ladder([0.4, 1.0], dim=3), box_1d(-1.0, 1.0), ALL_REGIMES
    ),
}
# BLOCK_CELLS 1 gives blocks of one class, 10**9 one block of all classes. A 2-D
# leader's grid has 101^2 rows, over BLOCK_CELLS: only the one block of all differs
BLOCKS = {"default_block": None, "one_class": 1, "all_classes": 10**9}
CURVE_RUNS = [
    (case, block) for case in sorted(CURVE_CASES) for block in BLOCKS
    if case not in ("leader_2d", "leader_3d_pattern") or block == "all_classes"
]


def report_bits(report):
    return (
        report.regime, report.joint.theta.tobytes(), report.joint.env.tobytes(), report.loss_learner.hex(),
        report.loss_env.hex(), report.nash_residual.hex(), report.iterations, report.certified,
    )


@functools.lru_cache(maxsize=None)
def per_class_curve_bits(case, regime):
    """The per-class loop's reports; one class is one block at any BLOCK_CELLS."""
    game, ladder, env_set, _ = CURVE_CASES[case]()
    return [(k, report_bits(r)) for k, r in per_class_scaling_curve(game, ladder, regime, env_set)]


@pytest.mark.parametrize("case, block", CURVE_RUNS)
def test_scaling_curve_equals_per_class_loop_bitwise(monkeypatch, case, block):
    if BLOCKS[block] is not None:
        monkeypatch.setattr(grid, "BLOCK_CELLS", BLOCKS[block])
    game, ladder, env_set, regimes = CURVE_CASES[case]()
    for regime in regimes:
        got = scaling_curve(game, ladder, regime, env_set)
        assert [(k, report_bits(r)) for k, r in got] == per_class_curve_bits(case, regime)
        if regime == "stackelberg_leader":
            assert all(r.certified == (ladder[0].dimension <= 2) for _, r in got)


@pytest.mark.parametrize("regime", ["stackelberg_leader", "stackelberg_follower"])
def test_ladder_zoom_round_is_one_descent(monkeypatch, regime):
    # 20 classes of 101 one-dimensional grid rows fit one block of BLOCK_CELLS
    calls = []

    def spy(grad, sets, x0, *args):
        calls.append(len(x0))
        return _projected_descent(grad, sets, x0, *args)

    monkeypatch.setattr(equilibrium, "_projected_descent", spy)
    game, ladder, env_set, _ = bench_ladder()
    scaling_curve(game, ladder, regime, env_set)
    assert len(ladder) == 20 and calls == [20 * 101] * 3


@pytest.mark.parametrize("regime", ["nash", "stackelberg_leader", "stackelberg_follower"])
def test_scaling_curve_without_env_set_names_it_before_any_solve(monkeypatch, regime):
    # these regimes once failed deep inside with an AttributeError on None
    def solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    for name in ("best_responses", "_nash_rows", "_stackelberg"):
        monkeypatch.setattr(equilibrium, name, solve)
    game, _ = stackelberg_scaling_game()
    with pytest.raises(ValueError, match="env_set"):
        scaling_curve(game, nested_box_ladder([0.5, 1.0]), regime)


def test_scaling_curve_single_class_trivial():
    curve = scaling_curve(
        stationary_scaling_game(np.array([2.0, 0.0])),
        nested_box_ladder([0.5], dim=2),
        "stationary",
    )
    assert len(curve) == 1
