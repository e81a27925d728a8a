"""Equilibrium computation for the four learner-environment regimes.

Regimes: stationary environment, Stackelberg with either player leading, and
Nash. The Nash path offers both the stochastic projected-gradient scheme with
weighted iterate averaging (psgd_nash; model selection runs the same
psgd.PSGDBatch with its epochs' runs side by side) and a deterministic
constant-step solver for certified equilibria, plus brute-force grid oracles
for small instances.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import GameSpec, JointAction, ModelClassLadder, _batch_gradient, gradient_operator
from .descent import _projected_descent, _single_point_checked, natural_residuals
from .grid import _grid_minimize, _pattern_search, grid_points
from .psgd import PSGDBatch
from .sets import ActionSet, Product

REGIMES = ("stationary", "stackelberg_leader", "stackelberg_follower", "nash")
MAX_RUNS, MAX_STEPS = 10_000, 10**8  # psgd/select caps: rows of one PSGD batch; run steps in all


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
    losses = (game.loss(player, joint.theta, joint.env, "the reported point") for player in ("learner", "env"))
    return EquilibriumReport(regime, joint, *losses, float(residual), int(iterations), certified)


def best_responses(
    game: GameSpec,
    player: str,
    opponent_actions: np.ndarray,
    own_sets: ActionSet | Sequence[ActionSet],
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best responses of one player to each row of opponent_actions, on own_sets
    (one for all rows, or one per row), solved as one batched adaptive descent
    from the origin; every best response in the package is solved here. Returns
    the points, iteration counts and natural residuals by row. Each iteration
    makes one oracle call on all active rows, held to the single-point bits by
    _single_point_checked."""
    opp = np.asarray(opponent_actions, dtype=float)
    if not isinstance(own_sets, ActionSet) and len(own_sets) != len(opp):
        raise ValueError(f"{len(own_sets)} own sets for {len(opp)} opponent rows")
    if player == "learner":
        single, raw, dim = game.grad_l, game.grad_learner, game.dim_learner
        batch = lambda x, rows: _batch_gradient(game.grad_learner, "grad_learner", x, opp[rows], dim)
    elif player == "env":
        single, raw, dim = lambda x, o: game.grad_e(o, x), lambda x, o: game.grad_env(o, x), game.dim_env
        batch = lambda x, rows: _batch_gradient(game.grad_env, "grad_env", opp[rows], x, dim)
    else:
        raise ValueError(f"unknown player {player!r}")
    x0 = np.zeros((len(opp), dim))
    solve = lambda grad: _projected_descent(grad, own_sets, x0, 1.0 / game.lipschitz, True, tol, 200_000)

    def per_row(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """One oracle call per row into one (B, dim) array, 256 rows at a time, each chunk
        stacked as it is if that is (rows, dim), or (rows,) in dimension 1; else, or after an
        exception, every row through single, which raises as _as_vector does."""
        g = np.empty((len(x), dim))
        with contextlib.suppress(Exception):
            for s in range(0, len(x), 256):
                part = np.array([*map(raw, x[s : s + 256], opp[rows[s : s + 256]])], dtype=float)
                if part.shape != (len(part), dim) and (dim != 1 or part.ndim != 1):
                    break
                g[s : s + 256] = part.reshape(-1, dim)
            else:
                return g
        for j, (xi, i) in enumerate(zip(x, rows.tolist())):
            g[j] = single(xi, opp[i])
        return g

    return _single_point_checked(solve, batch, per_row)


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
    return _stackelberg(game, leader, [leader_set], [follower_set], grid_resolution)[0]


def _stackelberg(game: GameSpec, leader: str, leader_sets: list, follower_sets: list, resolution: int) -> list:
    """stackelberg_leader of each problem k, leader_sets[k] (all of one dimension)
    against follower_sets[k]. Grid problems run in lockstep: each zoom round
    solves the follower's responses, and reads the leader loss, in blocks of
    whole problems (grid._grid_minimize)."""
    if leader not in ("learner", "env"):
        raise ValueError(f"unknown leader {leader!r}")
    leads = leader == "learner"
    follower, regime = ("env", "stackelberg_leader") if leads else ("learner", "stackelberg_follower")
    certified = leader_sets[0].dimension <= 2
    where = "a leader grid point" if certified else "a leader search point"
    leader_loss = lambda a, f: game.loss("learner", a, f, where) if leads else game.loss("env", f, a, where)
    respond = lambda actions, ks: best_responses(game, follower, actions, [follower_sets[k] for k in ks], 1e-9)[0]
    if certified:
        found = _grid_minimize(respond, leader_loss, leader_sets, resolution, follower_sets[0].dimension)
    else:
        found = [_pattern_search(lambda a, k=k: respond(a[np.newaxis], [k])[0], leader_loss, s)
                 for k, s in enumerate(leader_sets)]
    joints = [JointAction(*((action, response) if leads else (response, action))) for action, response, _ in found]
    sets = zip(leader_sets, follower_sets) if leads else zip(follower_sets, leader_sets)  # (learner, env)
    residuals = [nash_residual(game, x, *learner_env) for x, learner_env in zip(joints, sets)]
    return [_report(game, regime, *row, certified) for row in zip(joints, residuals, (f[2] for f in found))]


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

    Runs len(rngs) independent runs as the rows of one psgd.PSGDBatch, all
    joining at once: run i plays learner_sets[i] and draws its noise from three
    children of rngs[i]; all share the game, env_set, x0 and horizon. Returns
    each run's average, with its bits alone.
    """
    batch = PSGDBatch(game, env_set, x0)
    batch.join(learner_sets, horizon, rngs)
    return [JointAction.from_concat(row, game.dim_learner) for row in batch.run()[1]]


def nash_residual(
    game: GameSpec, x: JointAction, learner_set: ActionSet, env_set: ActionSet
) -> float:
    """Natural residual |x - P(x - F(x))| of the stacked projected-gradient
    step (both players' own-action blocks); zero exactly at a Nash point of
    the convex game."""
    z = x.concat()
    g = gradient_operator(game, z)
    return float(natural_residuals(z[np.newaxis], Product(learner_set, env_set).project_rows, g[np.newaxis])[0])


def _nash_rows(game: GameSpec, learner_sets: Sequence[ActionSet], env_set: ActionSet, tol: float) -> tuple:
    """solve_nash of each learner set as a row of one descent; each iteration makes one
    batched oracle call per player, held to gradient_operator's bits by _single_point_checked."""
    dl, de = game.dim_learner, game.dim_env
    sets, x0 = [Product(s, env_set) for s in learner_sets], np.zeros((len(learner_sets), dl + de))
    solve = lambda grad: _projected_descent(grad, sets, x0, game.mu / (game.lipschitz**2), False, tol, 500_000)
    per_row = lambda x, rows: np.array([gradient_operator(game, xi) for xi in x])
    part = lambda name, x, dim: _batch_gradient(getattr(game, name), name, x[:, :dl], x[:, dl:], dim)
    batch = lambda x, rows: np.concatenate([part("grad_learner", x, dl), part("grad_env", x, de)], axis=1)
    return _single_point_checked(solve, batch, per_row)


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
    x, iters, _ = _nash_rows(game, [learner_set], env_set, tol)
    return JointAction.from_concat(x[0], game.dim_learner), int(iters[0])


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
    visits only those within a few ulps of its cuts. From the first batch call
    that fails on, the remaining learner points scan every pair one at a time.
    """
    if learner_set.dimension + env_set.dimension > 4:
        raise ValueError("exhaustive grid limited to joint dimension <= 4")
    theta_pts, env_pts = grid_points(learner_set, 201), grid_points(env_set, 201)
    if theta_pts.shape[0] * env_pts.shape[0] > 20_000_000:
        raise ValueError("grid too large; lower the resolution")
    f_l_ref, f_e_ref = (game.loss(player, x.theta, x.env, "x") for player in ("learner", "env"))
    cut = lambda v: v + 8 * math.ulp(v)  # a few ulps of batch-vs-single rounding
    env_cut, rows = cut(f_e_ref + 1e-12), np.empty((len(env_pts), learner_set.dimension))  # t repeated: one block per t
    best, best_val, batched = None, f_l_ref - 1e-9, True
    for t in theta_pts:
        envs = env_pts
        if batched:
            rows[...] = t
            fe = game.loss("env", rows, env_pts, "a grid pair")
            fl = None if fe is None else game.loss("learner", rows, env_pts, "a grid pair")
            if batched := fl is not None:
                envs = env_pts[(fl < cut(best_val - 1e-15)) & (fe <= env_cut)]
        for e in envs:
            if game.loss("env", t, e, "a grid pair") > f_e_ref + 1e-12:
                continue
            v = game.loss("learner", t, e, "a grid pair")
            if v < best_val - 1e-15:
                best_val, best = v, JointAction(t, e)
    return best


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
    All classes are solved together, bit for bit as one at a time: one descent
    for the stationary and Nash regimes (a class is one row there), Stackelberg
    grids in blocks of whole classes of at most grid.BLOCK_CELLS rows times the
    follower's dimension.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime != "stationary" and env_set is None:
        raise ValueError(f"regime {regime!r} needs an env_set")
    classes, envs = ladder.classes, [env_set] * len(ladder)
    if regime == "stackelberg_leader":
        return list(enumerate(_stackelberg(game, "learner", classes, envs, 101)))
    if regime == "stackelberg_follower":
        return list(enumerate(_stackelberg(game, "env", envs, classes, 101)))
    if regime == "stationary":
        e = np.zeros((len(classes), game.dim_env))
        thetas, iters, residuals = best_responses(game, "learner", e, classes, 1e-8)
        joints = [JointAction(theta, env) for theta, env in zip(thetas, e)]
    else:
        points, iters, _ = _nash_rows(game, classes, env_set, 1e-9)
        joints = [JointAction.from_concat(x, game.dim_learner) for x in points]
        residuals = [nash_residual(game, x, cls, env_set) for x, cls in zip(joints, classes)]
    return list(enumerate(_report(game, regime, *row) for row in zip(joints, residuals, iters)))
