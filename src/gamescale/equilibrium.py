"""Equilibrium computation for the four learner-environment regimes.

Regimes: stationary environment, Stackelberg with either player leading, and
Nash. The Nash path offers both the stochastic projected-gradient scheme with
weighted iterate averaging (the online estimator used by model selection) and
a deterministic constant-step solver for certified equilibria, plus
brute-force grid oracles for small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    ActionSet,
    Box,
    ConvergenceError,
    GameSpec,
    JointAction,
    ModelClassLadder,
    Product,
    _batch_gradient,
    _batch_loss,
    _row_norms,
    gradient_noise,
    gradient_operator,
)

REGIMES = ("stationary", "stackelberg_leader", "stackelberg_follower", "nash")
NOISE_BLOCK = 64  # PSGD steps of noise drawn per call; sets memory, never output bits


@dataclass(eq=False)
class EquilibriumReport:
    regime: str
    joint: JointAction
    loss_learner: float
    loss_env: float
    nash_residual: float
    iterations: int
    certified: bool = True


def _report(
    game: GameSpec, regime: str, joint: JointAction, residual: float, iterations: int,
    certified: bool = True,
) -> EquilibriumReport:
    """The report of joint, with both players' losses evaluated there."""
    losses = (float(loss(joint.theta, joint.env)) for loss in (game.loss_learner, game.loss_env))
    return EquilibriumReport(regime, joint, *losses, float(residual), int(iterations), certified)


# ---------------------------------------------------------------------------
# Single-player projected descent
# ---------------------------------------------------------------------------


def natural_residuals(x: np.ndarray, feasible: ActionSet, g: np.ndarray) -> np.ndarray:
    """Unit-step natural residual |x - P(x - g)| of each row of x and g; zero
    exactly where the row is a fixed point of the projected-gradient step."""
    return _row_norms(x - feasible.project_rows(x - g))


def natural_residual(x: np.ndarray, feasible: ActionSet, g: np.ndarray) -> float:
    """natural_residuals of the one point x with gradient g."""
    return float(natural_residuals(np.atleast_2d(x), feasible, np.atleast_2d(g))[0])


def _projected_descent(
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray],
    feasible: ActionSet,
    x0: np.ndarray,
    step: float,
    adaptive: bool,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient descent of each row of x0 along its own gradient, to
    unit-step natural residual <= tol. Each iteration makes one call
    grad(x, rows) for the (len(rows), d) gradients at the active rows x of x0.

    With adaptive=False every step is `step`. With adaptive=True (each row's
    gradient must be that of a convex function) `step` = 1/L is only the first
    step; later ones follow Malitsky & Mishchenko, "Adaptive Gradient Descent
    without Descent" (ICML 2020): the smaller of sqrt(1 + theta) times the last
    step (theta the ratio of the last two steps) and |dx| / (2 |dg|), the
    inverse local curvature along the last move; 1/L where the gradient did
    not change.

    Each iteration projects once. |x - P(x - t g)| is nondecreasing in t and
    |x - P(x - t g)| / t is nonincreasing, so min(1, 1/step) |x - x_next|
    bounds the unit-step residual from below; the residual (a second
    projection) is evaluated only when that bound reaches tol.

    Rows share no state: each keeps its own step and stops on its own test,
    and a stopped row leaves the batch, so every row ends bit for bit where it
    would alone. Returns the final points, iteration counts and residuals by
    row; raises ConvergenceError if a row is still running after max_iters.
    """
    x = feasible.project_rows(np.asarray(x0, dtype=float))
    n = x.shape[0]
    points, iters, residuals = np.empty_like(x), np.zeros(n, dtype=int), np.empty(n)
    rows = np.arange(n)
    lam, theta = np.full(n, step), np.full(n, math.inf)
    for it in range(1, max_iters + 1):
        if rows.size == 0:
            break
        g = grad(x, rows)
        if adaptive and it > 1:
            dg = _row_norms(g - g_prev)
            curvature_step = np.divide(
                np.sqrt(dx2), 2.0 * dg, out=np.full(rows.size, step), where=dg > 0.0
            )
            lam, lam_prev = np.minimum(np.sqrt(1.0 + theta) * lam, curvature_step), lam
            theta = lam / lam_prev
        x_next = feasible.project_rows(x - lam[:, None] * g)
        d = x - x_next
        dx2 = np.vecdot(d, d)
        near = np.flatnonzero(np.minimum(1.0, 1.0 / lam) * np.sqrt(dx2) <= tol * (1.0 + 1e-9))
        if near.size:
            residual = natural_residuals(x[near], feasible, g[near])
            stop = residual <= tol
            done = near[stop]
            finished = rows[done]
            points[finished], iters[finished], residuals[finished] = x[done], it, residual[stop]
            keep = np.ones(rows.size, dtype=bool)
            keep[done] = False
            rows, x_next, g, lam, theta, dx2 = (a[keep] for a in (rows, x_next, g, lam, theta, dx2))
        x, g_prev = x_next, g
    if rows.size:
        raise ConvergenceError(f"projected descent: residual > {tol} after {max_iters} iterations")
    return points, iters, residuals


def stationary_optimum(
    game: GameSpec,
    model_class: ActionSet,
    fixed_env: np.ndarray,
) -> EquilibriumReport:
    """Minimize the learner loss against a single fixed environment action."""
    e = np.asarray(fixed_env, dtype=float)
    theta, iters, residual = best_responses(game, "learner", e[np.newaxis], model_class, 1e-8)
    return _report(game, "stationary", JointAction(theta[0], e), residual[0], iters[0])


def best_responses(
    game: GameSpec,
    player: str,
    opponent_actions: np.ndarray,
    own_set: ActionSet,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best responses of one player to each row of opponent_actions, solved as
    one batched adaptive descent from the origin; every best response in the
    package is solved here. Returns the points, iteration counts and natural
    residuals by row.

    Each iteration makes one oracle call on all active rows. It must return
    shape (B, dim), and at the first moved iterate (iteration 2, or 1 for a
    row that stopped there) every row must equal the single-point oracle's
    bits. If not, or if the oracle is missing or the batch solve raises, the
    solve is rerun one point at a time, giving the per-row result exactly.
    """
    opp = np.asarray(opponent_actions, dtype=float)
    if player == "learner":
        oracle, single = game.grad_learner, game.grad_l
        batch = lambda x, o: _batch_gradient(oracle, "grad_learner", x, o, game.dim_learner)
    elif player == "env":
        oracle, single = game.grad_env, lambda x, o: game.grad_e(o, x)
        batch = lambda x, o: _batch_gradient(oracle, "grad_env", o, x, game.dim_env)
    else:
        raise ValueError(f"unknown player {player!r}")
    x0 = np.zeros((len(opp), own_set.dimension))
    solve = lambda grad: _projected_descent(grad, own_set, x0, 1.0 / game.lipschitz, True, tol, 200_000)
    per_row = lambda x, rows: np.array([single(xi, opp[i]) for i, xi in zip(rows.tolist(), x)])
    seen = []  # the batch gradients of iterations 1 and 2; row i of the first is row i of opp

    def checked(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        g = batch(x, opp[rows])
        if len(seen) < 2:
            seen.append(g)
            if len(seen) == 2 and g.tobytes() != per_row(x, rows).tobytes():
                raise ValueError("batch gradients differ from the single-point ones")
        return g

    if oracle is not None and len(opp):
        try:
            points, iters, residuals = solve(checked)
            stopped = np.flatnonzero(iters == 1)
            if seen[0][stopped].tobytes() == per_row(points[stopped], stopped).tobytes():
                return points, iters, residuals
        except Exception:
            pass  # an oracle written for single points may raise anything on a batch
    return solve(per_row)


def best_response(
    game: GameSpec,
    player: str,
    opponent_action: np.ndarray,
    own_set: ActionSet,
    tol: float = 1e-9,
) -> np.ndarray:
    """Loss-minimizing action of one player against a fixed opponent action."""
    opp = np.asarray(opponent_action, dtype=float)
    return best_responses(game, player, opp[np.newaxis], own_set, tol)[0][0]


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def grid_points(feasible: ActionSet, resolution: int, box: Optional[Box] = None) -> np.ndarray:
    """Lexicographically ordered mesh over the bounding box, feasibility-filtered."""
    box = box if box is not None else feasible.bounding_box()
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dimension)
    return mesh[feasible.contains_rows(mesh)]


RowObjective = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _grid_minimize(
    objective: RowObjective,
    feasible: ActionSet,
    resolution: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Grid search refined by two zoom rounds; lexicographically first tie-break.

    objective maps a (B, d) array of points to their B values and the B rows
    that came with them (the follower's responses); each round evaluates its
    whole grid in one call. Returns the best point and its row."""
    outer = feasible.bounding_box()
    box = outer
    best_point, best_row, best_value = None, None, math.inf
    evals = 0
    for _ in range(3):
        pts = grid_points(feasible, resolution, box)
        if pts.shape[0] == 0:
            break
        values, rows = objective(pts)
        for p, r, v in zip(pts, rows, values):
            if v < best_value - 1e-15:
                best_value, best_point, best_row = float(v), p, r
        evals += pts.shape[0]
        spacing = (box.upper - box.lower) / max(resolution - 1, 1)
        lo = np.maximum(outer.lower, best_point - spacing)
        hi = np.minimum(outer.upper, best_point + spacing)
        box = Box(lo, hi)
    if best_point is None:
        raise ValueError("empty grid: feasible set has no grid points")
    return best_point, best_row, evals


def _pattern_search(
    objective: RowObjective,
    feasible: ActionSet,
    x0: np.ndarray,
    initial_step: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Compass search with shrinking steps; local, used beyond grid dimensions.

    objective is the grid's row objective, called with one row at a time.
    Returns the best point and its row."""
    x = feasible.project(x0)
    values, rows = objective(x[np.newaxis])
    fx, row = float(values[0]), rows[0]
    h = initial_step
    evals = 1
    d = x.shape[0]
    for _ in range(10_000):
        improved = False
        for j in range(d):
            for sign in (+1.0, -1.0):
                cand = x.copy()
                cand[j] += sign * h
                cand = feasible.project(cand)
                values, rows = objective(cand[np.newaxis])
                evals += 1
                if values[0] < fx - 1e-15:
                    x, fx, row = cand, float(values[0]), rows[0]
                    improved = True
        if not improved:
            h *= 0.5
            if h < 1e-8:
                break
    return x, row, evals


def stackelberg_leader(
    game: GameSpec,
    leader: str,
    leader_set: ActionSet,
    follower_set: ActionSet,
    grid_resolution: int = 101,
) -> EquilibriumReport:
    """Stackelberg equilibrium: the leader commits, the follower best-responds.

    Leader sets of dimension <= 2 are solved by grid search with two zoom
    rounds (certified to grid resolution); higher dimensions fall back to a
    local pattern search and the report is flagged non-certified.
    """
    if leader == "learner":
        follower = "env"
        leader_loss = game.loss_learner
    elif leader == "env":
        follower = "learner"
        leader_loss = lambda a, f: game.loss_env(f, a)
    else:
        raise ValueError(f"unknown leader {leader!r}")

    def objective(actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leader loss at each row of actions, and the follower's best
        responses that give it."""
        responses, _, _ = best_responses(game, follower, actions, follower_set, 1e-9)
        losses = np.array([float(leader_loss(a, f)) for a, f in zip(actions, responses)])
        return losses, responses

    certified = leader_set.dimension <= 2
    if certified:
        action, follower_action, evals = _grid_minimize(objective, leader_set, grid_resolution)
    else:
        box = leader_set.bounding_box()
        span = float(np.max(box.upper - box.lower))
        x0 = leader_set.project((box.lower + box.upper) / 2.0)
        action, follower_action, evals = _pattern_search(objective, leader_set, x0, span / 4.0)

    if leader == "learner":
        theta, env = action, follower_action
        learner_set, env_set = leader_set, follower_set
        regime = "stackelberg_leader"
    else:
        theta, env = follower_action, action
        learner_set, env_set = follower_set, leader_set
        regime = "stackelberg_follower"
    joint = JointAction(theta, env)
    residual = nash_residual(game, joint, learner_set, env_set)
    return _report(game, regime, joint, residual, evals, certified)


# ---------------------------------------------------------------------------
# Nash solvers
# ---------------------------------------------------------------------------


def psgd_nash(
    game: GameSpec,
    learner_sets: Sequence[ActionSet],
    env_set: ActionSet,
    x0: JointAction,
    horizon: int,
    rngs: Sequence[np.random.Generator],
) -> list[JointAction]:
    """Projected stochastic gradient steps with weighted iterate averaging.

    Iterates x_{t+1} = P(x_t - eta_t * Fhat(x_t)) with eta_t = 2/(mu (t+1));
    returns the average that weights iterate t by t / (T(T+1)/2).

    Runs len(rngs) independent runs as the rows of one (B, d) array: run i
    plays learner_sets[i] and draws its noise NOISE_BLOCK steps per call (no
    bit depends on it) from three children of rngs[i]; all share the game,
    env_set, x0 and horizon. Returns each run's average, with its bits alone.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if len(learner_sets) != len(rngs):
        raise ValueError(f"{len(learner_sets)} learner sets for {len(rngs)} generators")
    dl = game.dim_learner
    if all(isinstance(s, Box) for s in (*learner_sets, env_set)):
        joint = [Product(s, env_set).bounding_box() for s in learner_sets]  # row i's bounds
        lower, upper = np.stack([j.lower for j in joint]), np.stack([j.upper for j in joint])
        project = lambda z: np.minimum(np.maximum(z, lower, out=z), upper, out=z)  # np.clip's bits
    else:
        def project(z: np.ndarray) -> np.ndarray:
            z[:, :dl] = [s.project(p) for s, p in zip(learner_sets, z[:, :dl])]
            z[:, dl:] = env_set.project_rows(z[:, dl:])
            return z
    x = project(np.tile(x0.concat(), (len(rngs), 1)))
    acc = np.zeros_like(x)
    streams = [rng.spawn(3) for rng in rngs]
    for start in range(0, horizon, NOISE_BLOCK):
        noise = gradient_noise(streams, min(NOISE_BLOCK, horizon - start), x.shape[1], game.noise_bound)
        for t, step_noise in enumerate(noise, start + 1):
            acc += t * x
            fhat = gradient_operator(game, x) + step_noise
            eta = 2.0 / (game.mu * (t + 1))
            x = project(x - eta * fhat)
    averaged = acc * (2.0 / (horizon * (horizon + 1)))
    return [JointAction.from_concat(row, dl) for row in averaged]


def nash_residual(
    game: GameSpec, x: JointAction, learner_set: ActionSet, env_set: ActionSet
) -> float:
    """Natural residual |x - P(x - F(x))| of the stacked projected-gradient
    step (both players' own-action blocks); zero exactly at a Nash point of
    the convex game."""
    z = x.concat()
    return natural_residual(z, Product(learner_set, env_set), gradient_operator(game, z))


def solve_nash(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    tol: float = 1e-10,
) -> tuple[JointAction, int]:
    """Deterministic Nash solve: constant-step projected gradient on F.

    Step mu/L^2 contracts the distance to the unique Nash point of a strongly
    monotone game; stops at unit-step natural residual <= tol.
    """
    joint_set = Product(learner_set, env_set)
    x, iters, _ = _projected_descent(
        lambda x, rows: gradient_operator(game, x[0])[np.newaxis],
        joint_set,
        np.zeros((1, joint_set.dimension)),
        game.mu / (game.lipschitz**2),
        False,
        tol,
        500_000,
    )
    return JointAction.from_concat(x[0], game.dim_learner), int(iters[0])


def nash_report(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    tol: float = 1e-10,
) -> EquilibriumReport:
    x, iters = solve_nash(game, learner_set, env_set, tol)
    return _report(game, "nash", x, nash_residual(game, x, learner_set, env_set), iters)


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------


def pareto_improvement_search(
    game: GameSpec,
    x: JointAction,
    learner_set: ActionSet,
    env_set: ActionSet,
) -> Optional[JointAction]:
    """Exhaustive grid witness that x is not Pareto optimal, if one exists.

    Returns a grid point strictly improving the learner loss without raising
    the environment loss, preferring the largest learner improvement; None if
    the grid contains no such point. Each learner grid point's pairs go through
    each loss in one batch call (see GameSpec); the scan one pair at a time then
    visits only those within a few ulps of its cuts, or all after a failed batch.
    """
    if learner_set.dimension + env_set.dimension > 4:
        raise ValueError("exhaustive grid limited to joint dimension <= 4")
    theta_pts, env_pts = grid_points(learner_set, 201), grid_points(env_set, 201)
    if theta_pts.shape[0] * env_pts.shape[0] > 20_000_000:
        raise ValueError("grid too large; lower the resolution")
    f_l_ref, f_e_ref = (float(loss(x.theta, x.env)) for loss in (game.loss_learner, game.loss_env))
    cut = lambda v: v + 8 * math.ulp(v)  # a few ulps of batch-vs-single rounding
    rows = np.empty((len(env_pts), learner_set.dimension))  # t repeated: one block per t
    for batched in (True, False):
        best, best_val = None, f_l_ref - 1e-9
        try:
            for t in theta_pts:
                envs = env_pts
                if batched:
                    rows[...] = t
                    fe = _batch_loss(game.loss_env, "loss_env", rows, env_pts)
                    fl = _batch_loss(game.loss_learner, "loss_learner", rows, env_pts)
                    # NaN fails `>` and is kept, as the rule keeps it; no NaN passes `<`
                    envs = env_pts[(fl < cut(best_val - 1e-15)) & ~(fe > cut(f_e_ref + 1e-12))]
                for e in envs:
                    if float(game.loss_env(t, e)) > f_e_ref + 1e-12:
                        continue
                    v = float(game.loss_learner(t, e))
                    if v < best_val - 1e-15:
                        best_val, best = v, JointAction(t, e)
            return best
        except Exception:  # a loss written for single points may raise anything on a batch
            if not batched:
                raise


# ---------------------------------------------------------------------------
# Scaling sweeps over a ladder
# ---------------------------------------------------------------------------


def scaling_curve(
    game: GameSpec,
    ladder: ModelClassLadder,
    regime: str,
    env_set: Optional[ActionSet] = None,
) -> list[tuple[int, EquilibriumReport]]:
    """Equilibrium per ladder class under one interaction regime.

    The stationary regime plays each class against the zero environment
    action; the others against env_set. The learner-loss sequence is non-increasing in class
    index for the stationary and learner-leading Stackelberg regimes; the
    Nash regime can break monotonicity, which is the phenomenon under study.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    out = []
    for k, cls in enumerate(ladder):
        if regime == "stationary":
            report = stationary_optimum(game, cls, np.zeros(game.dim_env))
        elif regime == "stackelberg_leader":
            report = stackelberg_leader(game, "learner", cls, env_set)
        elif regime == "stackelberg_follower":
            report = stackelberg_leader(game, "env", env_set, cls)
        else:
            report = nash_report(game, cls, env_set, tol=1e-9)
        out.append((k, report))
    return out
