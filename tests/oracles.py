"""Reference oracles used only by the test suite.

Brute-force or independent computations that cross-check the library's
solvers: Dykstra's projection without skipped sweeps, fixed-step projected
descent with a residual at every iterate, single-point adaptive projected
descent, an oracle wrapper that refuses batches (the per-row reference of a
best-response solve), the scaling curve one class at a time, a single
averaged PSGD run, PSGD noise with uniform magnitude draws, a game whose learner
gradient turns non-finite at one PSGD step and one whose learner gradient is
never finite, a sampling check (box
corners included) that a ladder's classes are nested, per-arm suboptimality
gaps, successive elimination one epoch at a time, random strongly monotone affine games with a known Nash point, an
exhaustive-grid Nash, the Pareto grid search one pair at a time, the
Stackelberg grid search with one leader-loss call per grid row, the
monotonicity audit with one region.sample call per point,
alternating best responses, the restriction pipeline's composed loss
f_l(theta, BR(theta)), a finite-difference gradient check, the
strategic-regression game as a generic Stackelberg instance, the large regression class's best-response coefficients, scalar
references of the regression closed forms and grid argmax, Monte-Carlo
estimates of the regression game's integrals, losses, predictions and
least-squares fits, exact chain-game learner values for arbitrary per-state
policies, scalar references of the chain game's backward pass, calibration
check and forward walk, value iteration on the chain's environment MDP, the
chain game's absorbing state and per-cap dominance check for one policy, the
dominance check by re-walking the chain once per deviation, a
Monte-Carlo rollout of the learner value, the per-cell CSV writer that
a float-array table's rows are held to, and a loss oracle with an injected
fault and a call budget.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
from typing import Optional, Sequence

import numpy as np

from gamescale.core import (
    GameSpec,
    JointAction,
    ModelClassLadder,
    central_difference,
    gradient_operator,
)
from gamescale.equilibrium import (
    EquilibriumReport,
    best_response,
    best_responses,
    grid_points,
    nash_residual,
    psgd_nash,
    solve_nash,
    stackelberg_leader,
)
from gamescale.grid import _blocks
from gamescale.markov import CalibrationError, MarkovChainGame
from gamescale.regression import RegressionInstance, large_model_closed_form
from gamescale.restriction import BR_SOLVE_TOL
from gamescale.selection import ArmState, EpochRecord, SelectionReport, confidence_radius
from gamescale.sets import ActionSet, Box, ConvergenceError, Intersection, Product, box_1d
from gamescale.tables import OutputError, fmt_value


def two_projection_descent(grad, feasible: ActionSet, x0, step: float, tol: float, max_iters: int):
    """Fixed-step projected descent that evaluates the unit-step natural
    residual (a second projection) at every iterate; the library's loop must
    return the same point, iteration count and residual bit for bit."""
    x = feasible.project(np.asarray(x0, dtype=float))
    for it in range(1, max_iters + 1):
        g = grad(x)
        residual = float(np.linalg.norm(x - feasible.project(x - g)))
        if residual <= tol:
            return x, it, residual
        x = feasible.project(x - step * g)
    raise ConvergenceError(f"projected descent: residual > {tol} after {max_iters} iterations")


def single_point_descent(
    grad, feasible: ActionSet, x0, step: float, adaptive: bool, tol: float, max_iters: int
):
    """One point's projected descent, the library's loop before it took rows:
    the same step rule (Malitsky & Mishchenko when adaptive) and the same stop
    test, written with Python floats; every row of the batched loop must end
    on the same point, iteration count and residual bit for bit."""
    x = feasible.project(np.asarray(x0, dtype=float))
    lam, theta = step, math.inf
    for it in range(1, max_iters + 1):
        g = grad(x)
        if adaptive and it > 1:
            dg = float(np.linalg.norm(g - g_prev))
            curvature_step = math.sqrt(dx2) / (2.0 * dg) if dg > 0.0 else step
            lam, lam_prev = min(math.sqrt(1.0 + theta) * lam, curvature_step), lam
            theta = lam / lam_prev
        x_next = feasible.project(x - lam * g)
        d = x - x_next
        dx2 = float(d @ d)
        if min(1.0, 1.0 / lam) * math.sqrt(dx2) <= tol * (1.0 + 1e-9):
            residual = float(np.linalg.norm(x - feasible.project(x - g)))
            if residual <= tol:
                return x, it, residual
        x, g_prev = x_next, g
    raise ConvergenceError(f"projected descent: residual > {tol} after {max_iters} iterations")


def single_point_only(grad):
    """The oracle grad, refusing batch (2-D) arguments. A best-response solve
    on such an oracle always takes the per-row path, so it is the per-row
    reference of the same solve on grad."""

    def oracle(*args):
        if any(np.ndim(a) != 1 for a in args):
            raise ValueError(f"single points only, got shapes {[np.shape(a) for a in args]}")
        return grad(*args)

    return oracle


def per_class_scaling_curve(
    game: GameSpec, ladder: ModelClassLadder, regime: str, env_set: Optional[ActionSet] = None
) -> list[tuple[int, EquilibriumReport]]:
    """scaling_curve one class at a time, each through the one-class solver of
    its regime (a one-row best response against the zero environment action,
    stackelberg_leader, or solve_nash with nash_residual); the batched curve
    must equal it bit for bit."""

    def report(joint: JointAction, residual: float, iterations: int) -> EquilibriumReport:
        losses = (float(loss(joint.theta, joint.env)) for loss in (game.loss_learner, game.loss_env))
        return EquilibriumReport(regime, joint, *losses, float(residual), int(iterations))

    out = []
    for k, cls in enumerate(ladder):
        if regime == "stationary":
            env = np.zeros(game.dim_env)
            theta, iters, residual = best_responses(game, "learner", env[np.newaxis], cls, 1e-8)
            out.append((k, report(JointAction(theta[0], env), residual[0], iters[0])))
        elif regime == "stackelberg_leader":
            out.append((k, stackelberg_leader(game, "learner", cls, env_set)))
        elif regime == "stackelberg_follower":
            out.append((k, stackelberg_leader(game, "env", env_set, cls)))
        else:
            joint, iters = solve_nash(game, cls, env_set, tol=1e-9)
            out.append((k, report(joint, nash_residual(game, joint, cls, env_set), iters)))
    return out


def plain_dykstra(region: Intersection, point: np.ndarray, max_sweeps: int = 1_000_000) -> np.ndarray:
    """Dykstra's projection sweep by sweep, with the library's stop test and no jumps."""
    x = np.asarray(point, dtype=float).copy()
    corrections = [np.zeros_like(x) for _ in region.members]
    for _ in range(max_sweeps):
        moved = 0.0
        for i, member in enumerate(region.members):
            y = member.project(x + corrections[i])
            corrections[i] = x + corrections[i] - y
            moved += float(np.linalg.norm(y - x))
            x = y
        if moved < 1e-12 * max(1.0, float(np.linalg.norm(x))):
            return x
    raise ConvergenceError("plain Dykstra hit its sweep cap")


def check_nested(ladder: ModelClassLadder, rng: np.random.Generator) -> bool:
    """Sampling check of Theta_i <= Theta_{i+1}: sampled points (and box
    vertices, when enumerable) of the smaller class must project onto the
    larger one with zero displacement."""
    for small, large in zip(ladder.classes, ladder.classes[1:]):
        points = [small.sample(rng) for _ in range(64)]
        if isinstance(small, Box) and 2 ** small.dimension <= 1024:
            corners = np.meshgrid(*zip(small.lower, small.upper), indexing="ij")
            points.extend(np.stack(corners, axis=-1).reshape(-1, small.dimension))
        for p in points:
            if not large.contains(p, 1e-9):
                return False
    return True


def suboptimality_gaps(losses: Sequence[float]) -> tuple[list[float], Optional[float]]:
    """Per-arm gaps to the best loss and the smallest nonzero gap.

    Returns (gaps, None) when all losses coincide, in which case the minimum
    gap is undefined and no separation-based bound applies.
    """
    if len(losses) == 0:
        raise ValueError("need at least one loss")
    best = min(losses)
    gaps = [x - best for x in losses]
    nonzero = [g for g in gaps if g > 0.0]
    return gaps, (min(nonzero) if nonzero else None)


def sequential_elimination(
    arms: Sequence[ActionSet] | ModelClassLadder,
    game: GameSpec,
    env_set: ActionSet,
    delta: float,
    alpha: float,
    rng: np.random.Generator,
    scale: float = 1.0,
    max_total_steps: int = 1_000_000,
) -> SelectionReport:
    """successive_elimination one epoch at a time: each epoch's active arms run
    as one psgd_nash batch on rng.spawn's children, after the last epoch ended
    (the loop before epochs were pipelined, with the non-finite estimate check);
    the reference that the pipelined epochs must equal field by field."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    sets = list(arms)
    n = len(sets)
    states = [ArmState(i, s) for i, s in enumerate(sets)]
    x0 = JointAction(np.zeros(game.dim_learner), np.zeros(game.dim_env))

    total_steps = 0
    epochs = 0
    eliminations: list[tuple[int, int, float]] = []
    records: list[EpochRecord] = []
    inconclusive = False
    tau = 1
    while sum(s.active for s in states) > 1:
        active = [s for s in states if s.active]
        try:
            # ldexp scales by 2^tau exactly; a horizon past the float range is past any budget
            horizon = math.ceil(math.ldexp(alpha, tau))
        except OverflowError:
            horizon = math.inf
        if total_steps + len(active) * horizon > max_total_steps:
            inconclusive = True
            break
        delta_prime = delta / (2.0 * n * horizon * horizon)
        radius = confidence_radius(game.lipschitz, game.mu, horizon, delta_prime, scale)
        averages = psgd_nash(
            game, [s.action_set for s in active], env_set, x0, horizon, rng.spawn(len(active))
        )
        for state, avg in zip(active, averages):
            state.last_estimate = float(game.loss_learner(avg.theta, avg.env))
            if not math.isfinite(state.last_estimate):
                raise FloatingPointError(f"loss_learner is not finite at arm {state.class_index}'s average")
            state.pulls += horizon
        total_steps += len(active) * horizon
        epochs = tau

        best_ucb = min(s.last_estimate for s in active) + radius
        for state in active:
            lcb = state.last_estimate - radius
            if lcb > best_ucb:
                state.active = False
                eliminations.append((tau, state.class_index, lcb - best_ucb))
        for state in active:
            records.append(
                EpochRecord(tau, horizon, state.class_index, state.last_estimate, radius, state.active)
            )
        tau += 1

    survivors = [s.class_index for s in states if s.active]
    return SelectionReport(
        winner=survivors[0] if len(survivors) == 1 else None,
        survivors=survivors,
        inconclusive=inconclusive,
        epochs=epochs,
        total_steps=total_steps,
        elimination_log=eliminations,
        evaluations=records,
        delta=delta,
        arms=states,
    )


def grid_nash(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    resolution: int = 101,
) -> tuple[JointAction, float]:
    """Exhaustive-grid Nash oracle via the mutual best-response check.

    Returns the grid cell minimizing the sum of both players' best-response
    regrets on the grid, together with that regret (zero iff the cell is an
    exact mutual best response among grid points).
    """
    theta_pts = grid_points(learner_set, resolution)
    env_pts = grid_points(env_set, resolution)
    losses_l = np.array([[game.loss_learner(t, e) for e in env_pts] for t in theta_pts])
    losses_e = np.array([[game.loss_env(t, e) for e in env_pts] for t in theta_pts])
    regret_l = losses_l - losses_l.min(axis=0, keepdims=True)
    regret_e = losses_e - losses_e.min(axis=1, keepdims=True)
    total = regret_l + regret_e
    i, j = np.unravel_index(int(np.argmin(total)), total.shape)
    return JointAction(theta_pts[i], env_pts[j]), float(total[i, j])


def scalar_pareto_search(
    game: GameSpec,
    x: JointAction,
    learner_set: ActionSet,
    env_set: ActionSet,
) -> Optional[JointAction]:
    """The Pareto grid search one pair at a time, with single-point loss calls
    in a double loop: the reference whose witness the batched
    pareto_improvement_search must return byte for byte."""
    joint_dim = learner_set.dimension + env_set.dimension
    if joint_dim > 4:
        raise ValueError("exhaustive grid limited to joint dimension <= 4")
    theta_pts = grid_points(learner_set, 201)
    env_pts = grid_points(env_set, 201)
    if theta_pts.shape[0] * env_pts.shape[0] > 20_000_000:
        raise ValueError("grid too large; lower the resolution")
    f_l_ref = float(game.loss_learner(x.theta, x.env))
    f_e_ref = float(game.loss_env(x.theta, x.env))
    best: Optional[JointAction] = None
    best_val = f_l_ref - 1e-9
    for t in theta_pts:
        for e in env_pts:
            if float(game.loss_env(t, e)) > f_e_ref + 1e-12:
                continue
            v = float(game.loss_learner(t, e))
            if v < best_val - 1e-15:
                best_val = v
                best = JointAction(t, e)
    return best


def per_row_stackelberg(
    game: GameSpec, leader: str, leader_sets: list, follower_sets: list, resolution: int
) -> list[EquilibriumReport]:
    """The Stackelberg grid search of leader sets of dimension <= 2 with one
    leader-loss call per grid row and the scan row by row: the same blocks of
    whole problems, follower responses, tie rule and zoom. The library, which
    reads the leader loss one batch call per block, must give the same
    reports bit for bit."""
    leads = leader == "learner"
    follower, regime = ("env", "stackelberg_leader") if leads else ("learner", "stackelberg_follower")
    leader_loss = game.loss_learner if leads else lambda a, f: game.loss_env(f, a)

    def objective(grids: list, problems: list) -> tuple[np.ndarray, np.ndarray]:
        actions = np.concatenate(grids)
        sets = [follower_sets[k] for k, g in zip(problems, grids) for _ in g]
        responses = best_responses(game, follower, actions, sets, 1e-9)[0]
        return np.array([float(leader_loss(a, f)) for a, f in zip(actions, responses)]), responses

    outer = [f.bounding_box() for f in leader_sets]
    boxes, live = list(outer), list(range(len(leader_sets)))
    best = [[None, None, math.inf, 0] for _ in leader_sets]  # point, row, value, evaluations
    for _ in range(3):
        grids = [grid_points(leader_sets[k], resolution, boxes[k]) for k in live]
        live, grids = [k for k, g in zip(live, grids) if len(g)], [g for g in grids if len(g)]
        for block in _blocks([len(g) * follower_sets[0].dimension for g in grids]):
            values, rows = objective(grids[block], live[block])
            pairs = zip(rows, values)
            for k, pts in zip(live[block], grids[block]):
                b = best[k]
                for p, (r, v) in zip(pts, pairs):
                    if v < b[2] - 1e-15:
                        b[:3] = p, r, float(v)
                b[3] += pts.shape[0]
                spacing = (boxes[k].upper - boxes[k].lower) / max(resolution - 1, 1)
                boxes[k] = Box(np.maximum(outer[k].lower, b[0] - spacing), np.minimum(outer[k].upper, b[0] + spacing))
    reports = []
    for (point, row, _, evals), leader_set, follower_set in zip(best, leader_sets, follower_sets):
        joint = JointAction(point, row) if leads else JointAction(row, point)
        sets = (leader_set, follower_set) if leads else (follower_set, leader_set)
        losses = (float(loss(joint.theta, joint.env)) for loss in (game.loss_learner, game.loss_env))
        reports.append(EquilibriumReport(regime, joint, *losses, nash_residual(game, joint, *sets), evals))
    return reports


def loop_monotonicity_audit(game: GameSpec, region: ActionSet, samples: int, rng: np.random.Generator) -> float:
    """monotonicity_audit with one region.sample call per point, pair by pair:
    the library, which draws the pairs a chunk at a time, must return the same
    quotient bits, raise at the same draw and leave rng in the same state."""
    min_q = math.inf
    done = drawn = 0
    while done < samples:
        if drawn == 10 * samples:
            raise ValueError(f"{drawn} pairs drawn, {done} of them more than 1e-9 apart; the region is too small")
        drawn += 1
        a = region.sample(rng)
        b = region.sample(rng)
        diff = a - b
        nsq = float(diff @ diff)
        if nsq < 1e-18:
            continue
        q = (gradient_operator(game, a) - gradient_operator(game, b)) @ diff / nsq
        if q < min_q or math.isnan(q):
            min_q = q
        done += 1
    return min_q


def single_run_psgd(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    x0: JointAction,
    horizon: int,
    rng: np.random.Generator,
) -> JointAction:
    """One averaged PSGD run, one point at a time: the reference that each row
    of the batched psgd_nash must equal bit for bit. It spawns the direction,
    magnitude and redraw children from rng once; each step draws the noise
    direction from the direction child (redrawn from the redraw child while
    its norm is below 1e-12) and then its uniform magnitude from the
    magnitude child."""
    joint_set = Product(learner_set, env_set)
    x = joint_set.project(x0.concat())
    acc = np.zeros_like(x)
    high = min(1.0, math.sqrt(3.0) * game.noise_bound)
    direction_rng, magnitude_rng, redraw_rng = rng.spawn(3)
    for t in range(1, horizon + 1):
        acc += t * x
        base = gradient_operator(game, x)
        direction = direction_rng.standard_normal(x.shape[0])
        norm = float(np.linalg.norm(direction))
        while norm < 1e-12:
            direction = redraw_rng.standard_normal(x.shape[0])
            norm = float(np.linalg.norm(direction))
        magnitude = magnitude_rng.uniform(0.0, high)
        fhat = base + (magnitude / norm) * direction
        eta = 2.0 / (game.mu * (t + 1))
        x = joint_set.project(x - eta * fhat)
    averaged = acc * (2.0 / (horizon * (horizon + 1)))
    return JointAction.from_concat(averaged, game.dim_learner)


def uniform_gradient_noise(streams: Sequence, noise_bound: float, steps: int, dim: int) -> np.ndarray:
    """PSGD noise, (steps, B, dim), one run and one step at a time, each run's
    magnitudes drawn as uniform(0.0, high, steps) from its magnitude child: the
    reference that core.gradient_noise must equal bit for bit. A direction of
    norm below 1e-12 is redrawn from the run's redraw child."""
    high = min(1.0, math.sqrt(3.0) * noise_bound)
    out = np.empty((steps, len(streams), dim))
    for i, (direction_rng, magnitude_rng, redraw_rng) in enumerate(streams):
        directions = direction_rng.standard_normal((steps, dim))
        magnitudes = magnitude_rng.uniform(0.0, high, steps)
        for t in range(steps):
            direction = directions[t]
            norm = float(np.linalg.norm(direction))
            while norm < 1e-12:
                direction = redraw_rng.standard_normal(dim)
                norm = float(np.linalg.norm(direction))
            out[t, i] = (magnitudes[t] / norm) * direction
    return out


def gradient_bad_at(game: GameSpec, bad_step: int, value: float, calls: list) -> GameSpec:
    """game whose learner gradient is value in every row at batch step bad_step
    (1-based); calls logs one entry per learner oracle call."""

    def grad_learner(t, e):
        calls.append(len(calls) + 1)
        g = game.grad_learner(t, e)
        return np.full_like(g, value) if len(calls) == bad_step else g

    return dataclasses.replace(game, grad_learner=grad_learner)


def non_finite_game(value: float, calls: list) -> GameSpec:
    """A game whose learner gradient is value everywhere; calls gets the shape of
    each learner-oracle call's points."""

    def grad(t, e):
        calls.append(np.shape(t))
        return np.full(np.shape(t), value)

    return GameSpec(
        dim_learner=1, dim_env=1, loss_learner=lambda t, e: 0.0, loss_env=lambda t, e: float(e @ e),
        grad_learner=grad, grad_env=lambda t, e: 2.0 * e, mu=1.0, lipschitz=2.0,
    )


def best_response_dynamics(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    x0: JointAction,
    tol: float = 1e-10,
    max_rounds: int = 1_000,
) -> tuple[JointAction, int]:
    """Alternating exact best responses; converges when the BR map contracts."""
    theta, env = learner_set.project(x0.theta), env_set.project(x0.env)
    for rounds in range(1, max_rounds + 1):
        theta_new = best_response(game, "learner", env, learner_set, tol=min(tol, 1e-10))
        env_new = best_response(game, "env", theta_new, env_set, tol=min(tol, 1e-10))
        move = float(np.linalg.norm(theta_new - theta) + np.linalg.norm(env_new - env))
        theta, env = theta_new, env_new
        if move <= tol:
            return JointAction(theta, env), rounds
    raise ConvergenceError("best-response dynamics did not converge (map may not contract)")


def composed_loss(game: GameSpec, theta: np.ndarray, env_set: ActionSet) -> float:
    """Learner loss along the environment's best response: f_l(theta, BR(theta)),
    BR solved at the restriction pipeline's tolerance."""
    e = best_response(game, "env", theta, env_set, tol=BR_SOLVE_TOL)
    return float(game.loss_learner(theta, e))


def random_affine_game(rng: np.random.Generator, dim_learner: int, dim_env: int):
    """Strongly monotone affine game F(x) = A x + b with its Nash point.

    A = P + K with P symmetric positive definite and K skew, nonzero only in
    the off-diagonal blocks, so each player's loss is a convex quadratic in its
    own action and <F(x) - F(y), x - y> = (x - y)^T P (x - y). b puts the Nash
    point x* = -A^{-1} b inside (-0.5, 0.5)^d, interior to the [-1, 1] boxes.
    Returns the game and x* stacked as (theta; env).
    """
    d, dl = dim_learner + dim_env, dim_learner
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    p = q @ np.diag(rng.uniform(0.5, 3.0, d)) @ q.T
    p = 0.5 * (p + p.T)
    k = np.zeros((d, d))
    k[:dl, dl:] = rng.uniform(-1.0, 1.0, (dl, dim_env))
    k[dl:, :dl] = -k[:dl, dl:].T
    a = p + k
    x_star = rng.uniform(-0.5, 0.5, d)
    b = -a @ x_star
    att, ate, aet, aee = a[:dl, :dl], a[:dl, dl:], a[dl:, :dl], a[dl:, dl:]
    game = GameSpec(
        dim_learner=dim_learner,
        dim_env=dim_env,
        loss_learner=lambda t, e: float(0.5 * t @ att @ t + t @ ate @ e + b[:dl] @ t),
        loss_env=lambda t, e: float(0.5 * e @ aee @ e + e @ aet @ t + b[dl:] @ e),
        grad_learner=lambda t, e: att @ t + ate @ e + b[:dl],
        grad_env=lambda t, e: aet @ t + aee @ e + b[dl:],
        mu=float(np.linalg.eigvalsh(p)[0]),
        lipschitz=float(np.linalg.norm(a, 2)),
    )
    return game, x_star


def check_gradients(
    game: GameSpec,
    region: ActionSet,
    rng: np.random.Generator,
    samples: int = 16,
    step: float = 1e-5,
    rel_tol: float = 1e-5,
) -> bool:
    """Verify supplied gradients against finite differences of the losses."""
    dl = game.dim_learner
    for _ in range(samples):
        x = JointAction.from_concat(region.sample(rng), dl)
        fd_l = central_difference(lambda t: game.loss_learner(t, x.env), x.theta, step)
        fd_e = central_difference(lambda e: game.loss_env(x.theta, e), x.env, step)
        exact = gradient_operator(game, x.concat())
        fd = np.concatenate([fd_l, fd_e])
        scale = max(1.0, float(np.linalg.norm(exact)))
        if float(np.linalg.norm(exact - fd)) > rel_tol * scale:
            return False
    return True


def regression_stackelberg_game(beta: np.ndarray, k_max: float = 10.0):
    """The small-model regression game as a generic Stackelberg instance.

    Learner fits theta over a box; the environment's scalar action is the
    shift magnitude k. The environment maximizes the expected prediction, so
    its loss is the negated objective. Used to cross-check the closed-form
    equilibrium k* = 1 with the generic grid solver.
    """
    beta = np.asarray(beta, dtype=float)
    norm = float(np.linalg.norm(beta))
    d = beta.shape[0]

    def shift(e):
        return e[0] * beta / norm

    def loss_learner(t, e):
        diff = beta - t
        return float(diff @ diff) + float(t @ shift(e)) ** 2

    def grad_learner(t, e):
        ee = shift(e)
        return 2.0 * (t - beta) + 2.0 * float(t @ ee) * ee

    def loss_env(t, e):
        return -float(t @ shift(e))

    game = GameSpec(
        dim_learner=d,
        dim_env=1,
        loss_learner=loss_learner,
        loss_env=loss_env,
        grad_learner=grad_learner,
        grad_env=None,  # finite-differenced; the env side is only grid-searched
        mu=1.0,
        lipschitz=2.0 * (1.0 + k_max * k_max),
    )
    learner_set = Box(-(abs(beta) + 1.0), abs(beta) + 1.0)
    env_set = box_1d(-k_max, k_max)
    return game, learner_set, env_set


def large_model_best_theta(instance: RegressionInstance, k: float) -> tuple[np.ndarray, float]:
    """The bump-feature class's best-response coefficients (theta_1, theta_2)
    = (c beta, p |beta|) at shift magnitude k."""
    cf = large_model_closed_form(instance, k)
    return cf.c * instance.beta, cf.p * instance.beta_norm


# Scalar references of the regression closed forms: the library's forms take
# arrays of k and must give these bits at every k. Python's float ** 2 and
# math.exp call libm, and dots are 1-D `@`.


def scalar_shift(instance: RegressionInstance, k: float) -> np.ndarray:
    return k * instance.beta / instance.beta_norm


def scalar_small_best_theta(instance: RegressionInstance, k: float) -> np.ndarray:
    e = scalar_shift(instance, k)
    beta = instance.beta
    return beta - e * float(e @ beta) / (1.0 + float(e @ e))


def scalar_small_loss(instance: RegressionInstance, k: float) -> float:
    theta = scalar_small_best_theta(instance, k)
    diff = instance.beta - theta
    return float(diff @ diff) + float(theta @ scalar_shift(instance, k)) ** 2


def scalar_small_env_objective(instance: RegressionInstance, k: float) -> float:
    return float(scalar_small_best_theta(instance, k) @ scalar_shift(instance, k))


def scalar_large_closed_form(instance: RegressionInstance, k: float) -> tuple[float, ...]:
    """(m, y, z, c, p) of the bump-feature best response."""
    d = instance.dim
    m = (1.0 / 3.0) ** (d / 2.0 + 1.0) * math.exp(-k * k / 3.0)
    y = (1.0 / 5.0) ** (d / 2.0) * math.exp(-2.0 * k * k / 5.0)
    z = -(1.0 / (1.0 + k * k)) * (m * m / y)
    c = (1.0 / (1.0 + z * k * k)) * (1.0 / (1.0 + k * k)) * (1.0 + 2.0 * (m * m / y) * k * k)
    p = -(m / y) * k * (2.0 + c)
    return m, y, z, c, p


def scalar_large_learner_loss(instance: RegressionInstance, k: float) -> float:
    m, y, _, c, p = scalar_large_closed_form(instance, k)
    k2 = k * k
    factor = 1.0 - 2.0 * c + c * c + c * c * k2 + 2.0 * p * m * c * k + 4.0 * p * m * k + p * p * y
    return factor * instance.beta_norm**2


def scalar_large_env_objective(instance: RegressionInstance, k: float) -> float:
    m, _, _, c, p = scalar_large_closed_form(instance, k)
    return instance.beta_norm * (c * k + 3.0 * m * p)


def scalar_argmax_1d(f, lo: float, hi: float) -> float:
    """The regression grid argmax with one scalar call of f per k."""
    spacing = 1e-3
    for _ in range(3):
        n = max(int(round((hi - lo) / spacing)) + 1, 2)
        ks = np.linspace(lo, hi, n)
        best = int(np.argmax([f(float(k)) for k in ks]))
        lo, hi = max(lo, float(ks[best]) - spacing), min(hi, float(ks[best]) + spacing)
        spacing /= 10.0
    return float(ks[best])


def _draw_inputs(instance: RegressionInstance, k: float, n: int, rng: np.random.Generator):
    x = rng.standard_normal((n, instance.dim))
    shifted = x + instance.shift(k)
    return x, shifted


def mc_gaussian_integrals(
    instance: RegressionInstance, k: float, n: int, rng: np.random.Generator
) -> dict[str, tuple[float, float]]:
    """Estimates (mean, standard error) of E[exp(-|x+e|^2)] and E[exp(-2|x+e|^2)]."""
    _, shifted = _draw_inputs(instance, k, n, rng)
    sq = np.einsum("ij,ij->i", shifted, shifted)
    out = {}
    for name, scale in (("exp1", 1.0), ("exp2", 2.0)):
        vals = np.exp(-scale * sq)
        out[name] = (float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)))
    return out


def mc_model_loss(
    instance: RegressionInstance,
    k: float,
    theta1: np.ndarray,
    theta2: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Population squared error of a fixed (theta1, theta2) bump model.

    theta2 = 0 recovers the pure linear model.
    """
    x, shifted = _draw_inputs(instance, k, n, rng)
    pred = shifted @ theta1 + theta2 * np.exp(-np.einsum("ij,ij->i", shifted, shifted))
    res_sq = (x @ instance.beta - pred) ** 2
    return float(res_sq.mean()), float(res_sq.std(ddof=1) / math.sqrt(n))


def mc_env_prediction(
    instance: RegressionInstance,
    k: float,
    theta1: np.ndarray,
    theta2: float,
    n: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Expected prediction E[theta1^T (x+e) + theta2 exp(-|x+e|^2)]."""
    _, shifted = _draw_inputs(instance, k, n, rng)
    pred = shifted @ theta1 + theta2 * np.exp(-np.einsum("ij,ij->i", shifted, shifted))
    return float(pred.mean()), float(pred.std(ddof=1) / math.sqrt(n))


def mc_least_squares(
    instance: RegressionInstance,
    k: float,
    n: int,
    rng: np.random.Generator,
    with_bump: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample least-squares fit and sandwich standard errors per coefficient.

    Features are (x + e) alone, or with the exp(-|x+e|^2) bump appended.
    """
    x, shifted = _draw_inputs(instance, k, n, rng)
    if with_bump:
        bump = np.exp(-np.einsum("ij,ij->i", shifted, shifted))
        features = np.column_stack([shifted, bump])
    else:
        features = shifted
    target = x @ instance.beta
    theta_hat, *_ = np.linalg.lstsq(features, target, rcond=None)
    residual = target - features @ theta_hat
    a = features.T @ features / n
    b = (features * residual[:, None]).T @ (features * residual[:, None]) / n
    a_inv = np.linalg.inv(a)
    cov = a_inv @ b @ a_inv / n
    return theta_hat, np.sqrt(np.diag(cov))



def scalar_env_best_response(game: MarkovChainGame, p_bar: float) -> tuple[np.ndarray, np.ndarray]:
    """Scalar reference of the chain's backward pass at one cap: (policy, values)."""
    rewards, gamma = game.env_rewards, game.gamma_e
    r_stay = p_bar * rewards[:, 0, 0] + (1.0 - p_bar) * rewards[:, 1, 0]
    r_adv = p_bar * rewards[:, 0, 1] + (1.0 - p_bar) * rewards[:, 1, 1]
    v = [max(r_stay[-1], r_adv[-1]) / (1.0 - gamma)]
    for stay, advance in zip(r_stay[-2::-1].tolist(), r_adv[-2::-1].tolist()):
        v.append(max(stay / (1.0 - gamma), advance + gamma * v[-1]))
    values = np.array(v[::-1])
    v_next = np.append(values[1:], values[-1])
    policy = (r_adv + gamma * v_next > r_stay + gamma * values).astype(int)
    return policy, values


def scalar_verify_calibration(game: MarkovChainGame) -> None:
    """Scalar reference of the build's calibration check: two solves per threshold."""
    for i in range(game.n_states - 1):
        p_star = game.thresholds[i]
        below, _ = scalar_env_best_response(game, p_star - 1e-6)
        above, _ = scalar_env_best_response(game, min(p_star + 1e-6, 1.0))
        if below[i] != 1:
            raise CalibrationError(i, "environment does not advance just below the threshold")
        if above[i] != 0:
            raise CalibrationError(i, "environment does not stay just above the threshold")


def scalar_walk_value(
    rewards: np.ndarray, gamma: float, p_by_state: np.ndarray, env_policy: np.ndarray, n: int
) -> float:
    """Scalar reference of the chain's forward walk: discounted value from state 0."""
    value = 0.0
    discount = 1.0
    s = 0
    while True:
        b = int(env_policy[s])
        stage = p_by_state[s] * rewards[s, 0, b] + (1.0 - p_by_state[s]) * rewards[s, 1, b]
        if b == 1 and s < n - 1:
            value += discount * stage
            discount *= gamma
            s += 1
        else:
            value += discount * stage / (1.0 - gamma)
            return value


def learner_value_for_policy(
    game: MarkovChainGame, p_by_state: np.ndarray, env_policy: np.ndarray
) -> float:
    """Exact learner value for a per-state probability vector on action 0."""
    return scalar_walk_value(
        game.learner_rewards, game.gamma_l, np.asarray(p_by_state, dtype=float), env_policy, game.n_states
    )


def value_iteration_env_response(
    game: MarkovChainGame, p_bar: float, tol: float = 1e-12, max_sweeps: int = 1_000_000
) -> tuple[np.ndarray, np.ndarray]:
    """Environment policy and values when the learner plays p_bar everywhere,
    by value iteration on the induced finite MDP; ties break toward stay."""
    n = game.n_states
    r = np.empty((n, 2))
    for b in (0, 1):
        r[:, b] = p_bar * game.env_rewards[:, 0, b] + (1.0 - p_bar) * game.env_rewards[:, 1, b]
    nxt = np.minimum(np.arange(n) + 1, n - 1)
    v = np.zeros(n)
    for _ in range(max_sweeps):
        v_new = np.maximum(r[:, 0] + game.gamma_e * v, r[:, 1] + game.gamma_e * v[nxt])
        converged = float(np.max(np.abs(v_new - v))) <= tol
        v = v_new
        if converged:
            break
    else:
        raise ConvergenceError("value iteration hit its sweep cap")
    q_stay = r[:, 0] + game.gamma_e * v
    q_adv = r[:, 1] + game.gamma_e * v[nxt]
    return (q_adv > q_stay).astype(int), v


def absorbing_state(game: MarkovChainGame, env_policy: np.ndarray) -> int:
    """First state (from 0) where the environment stays; the end if it never does."""
    policy = np.asarray(env_policy).tolist()
    return policy.index(0) if 0 in policy else game.n_states - 1


def verify_dominance(
    game: MarkovChainGame, p_bar: float, env_policy: np.ndarray
) -> tuple[bool, float]:
    """Per-cap reference of the sweep's dominance check: no single visited-state
    deviation to 1 - p_bar helps.

    Transitions ignore the learner, so deviating at state s changes only that
    state's stage reward, by (1 - 2 p_bar)(R_l[s, 0, b_s] - R_l[s, 1, b_s]),
    weighted by gamma_l^s and by 1 / (1 - gamma_l) at the absorbing state.
    Returns (ok, worst margin over the states reached before absorption).
    """
    last = absorbing_state(game, env_policy)
    visited = np.arange(last + 1)
    b = np.asarray(env_policy, dtype=int)[visited]
    gap = game.learner_rewards[visited, 0, b] - game.learner_rewards[visited, 1, b]
    weight = float(game.gamma_l) ** visited
    weight[last] /= 1.0 - game.gamma_l
    margin = float(np.min((2.0 * p_bar - 1.0) * gap * weight))
    return margin >= -1e-12, margin


def rewalk_dominance(
    game: MarkovChainGame, p_bar: float, env_policy: np.ndarray
) -> tuple[bool, float]:
    """Learner dominance check that re-walks the chain for every visited-state
    deviation to 1 - p_bar; returns (ok, worst margin) like verify_dominance."""
    n = game.n_states
    base_p = np.full(n, p_bar)
    base = scalar_walk_value(game.learner_rewards, game.gamma_l, base_p, env_policy, n)
    margin = math.inf
    for s in range(absorbing_state(game, env_policy) + 1):
        deviated = base_p.copy()
        deviated[s] = 1.0 - p_bar
        margin = min(margin, base - scalar_walk_value(game.learner_rewards, game.gamma_l, deviated, env_policy, n))
    return margin >= -1e-12, margin


def rollout_value(
    game: MarkovChainGame,
    p_bar: float,
    env_policy: np.ndarray,
    episodes: int,
    horizon: int,
    rng: np.random.Generator,
    batch: int = 20_000,
) -> tuple[float, float]:
    """Monte-Carlo estimate (mean, standard error) of the learner value.

    The state path is deterministic given the environment policy, so only the
    learner's action draws are simulated.
    """
    n = game.n_states
    states = np.empty(horizon, dtype=int)
    s = 0
    for t in range(horizon):
        states[t] = s
        if env_policy[s] == 1 and s < n - 1:
            s += 1
    b_path = env_policy[states]
    r0 = game.learner_rewards[states, 0, b_path]
    r1 = game.learner_rewards[states, 1, b_path]
    discounts = game.gamma_l ** np.arange(horizon)
    total = 0.0
    total_sq = 0.0
    remaining = episodes
    while remaining > 0:
        m = min(batch, remaining)
        draws = rng.random((m, horizon))
        rewards = np.where(draws < p_bar, r0, r1)
        values = rewards @ discounts
        total += float(values.sum())
        total_sq += float((values**2).sum())
        remaining -= m
    mean = total / episodes
    var = max(total_sq / episodes - mean * mean, 0.0)
    return mean, math.sqrt(var / episodes)


def per_cell_csv(name: str, header: Sequence[str], rows) -> str:
    """A table as CSV text one cell at a time: csv.writer over fmt_value of each
    cell, naming the file and column of the first unwritable value in row order."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        cells = []
        for col, v in zip(header, row, strict=True):
            try:
                cells.append(fmt_value(v))
            except OutputError as exc:
                raise OutputError(f"{name}, column {col}: {exc}") from None
        writer.writerow(cells)
    return buf.getvalue()


class CallBudgetExceeded(BaseException):
    """An oracle was called past its budget, so a hang fails fast. A BaseException, so that no
    library fallback that catches Exception swallows it."""


class InjectedFault(ValueError):
    """The exception a faulty_loss oracle raises as its own."""


@dataclasses.dataclass
class FaultLog:
    """What a faulty_loss oracle did: its calls, and whether it returned a non-finite value."""

    calls: int = 0
    non_finite: bool = False


def faulty_loss(loss, fault: str, below: float, batches: bool, log: FaultLog, budget: int = 200_000):
    """loss with a fault at the points whose theta[0] lies below `below` (inf: everywhere).
    "nan", "inf" and "-inf" replace the value there; "raises" raises InjectedFault there;
    "shape" returns every batch as shape (B, 1). The oracle stays pure: a point's value is the
    same in a batch as alone. With batches False it raises TypeError on any batch, as a loss
    written for single points does. Past `budget` calls it raises CallBudgetExceeded."""
    value = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}.get(fault)

    def f(t, e):
        log.calls += 1
        if log.calls > budget:
            raise CallBudgetExceeded(f"{log.calls} loss calls")
        batch = np.ndim(t) == 2
        if batch and not batches:
            raise TypeError("this loss takes single points only")
        hit = np.asarray(t).T[0] < below
        if fault == "raises" and np.any(hit):
            raise InjectedFault("injected fault")
        v = np.asarray(loss(t, e), dtype=float)
        if value is not None:
            v = np.where(hit, value, v)
        log.non_finite |= not np.isfinite(v).all()
        if not batch:
            return float(v)
        return v[:, np.newaxis] if fault == "shape" else v

    return f
