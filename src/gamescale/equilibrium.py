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
from typing import Callable, Optional

import numpy as np

from .core import (
    ActionSet,
    Box,
    ConvergenceError,
    GameSpec,
    JointAction,
    ModelClassLadder,
    Product,
    gradient_operator,
    noisy_gradient_operator,
)

REGIMES = ("stationary", "stackelberg_leader", "stackelberg_follower", "nash")


@dataclass(eq=False)
class EquilibriumReport:
    regime: str
    joint: JointAction
    loss_learner: float
    loss_env: float
    nash_residual: float
    iterations: int
    certified: bool = True


@dataclass(eq=False)
class PsgdTrace:
    """Output of the averaged stochastic projected-gradient run."""

    averaged_point: JointAction


# ---------------------------------------------------------------------------
# Single-player projected descent
# ---------------------------------------------------------------------------


def natural_residual(x: np.ndarray, feasible: ActionSet, g: np.ndarray) -> float:
    """Unit-step natural residual |x - P(x - g)|; zero exactly when x is a
    fixed point of the projected-gradient step."""
    return float(np.linalg.norm(x - feasible.project(x - g)))


def _projected_descent(
    grad: Callable[[np.ndarray], np.ndarray],
    feasible: ActionSet,
    x0: np.ndarray,
    step: float,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, int, float]:
    """Projected gradient descent to unit-step natural residual <= tol.

    Returns the final point, the iteration count and the residual there.
    """
    x = feasible.project(np.asarray(x0, dtype=float))
    for it in range(1, max_iters + 1):
        g = grad(x)
        residual = natural_residual(x, feasible, g)
        if residual <= tol:
            return x, it, residual
        x = feasible.project(x - step * g)
    raise ConvergenceError(f"projected descent: residual > {tol} after {max_iters} iterations")


def stationary_optimum(
    game: GameSpec,
    model_class: ActionSet,
    fixed_env: np.ndarray,
) -> EquilibriumReport:
    """Minimize the learner loss against a single fixed environment action."""
    e = np.asarray(fixed_env, dtype=float)
    theta0 = model_class.project(np.zeros(game.dim_learner))
    theta, iters, residual = _projected_descent(
        lambda t: game.grad_l(t, e), model_class, theta0, 1.0 / game.lipschitz, 1e-8, 200_000
    )
    return EquilibriumReport(
        regime="stationary",
        joint=JointAction(theta, e),
        loss_learner=float(game.loss_learner(theta, e)),
        loss_env=float(game.loss_env(theta, e)),
        nash_residual=residual,
        iterations=iters,
    )


def best_response(
    game: GameSpec,
    player: str,
    opponent_action: np.ndarray,
    own_set: ActionSet,
    tol: float = 1e-9,
) -> np.ndarray:
    """Loss-minimizing action of one player against a fixed opponent action."""
    opp = np.asarray(opponent_action, dtype=float)
    if player == "learner":
        grad = lambda t: game.grad_l(t, opp)
    elif player == "env":
        grad = lambda e: game.grad_e(opp, e)
    else:
        raise ValueError(f"unknown player {player!r}")
    x0 = own_set.project(np.zeros(own_set.dimension))
    x, _, _ = _projected_descent(grad, own_set, x0, 1.0 / game.lipschitz, tol, 200_000)
    return x


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def grid_points(feasible: ActionSet, resolution: int, box: Optional[Box] = None) -> np.ndarray:
    """Lexicographically ordered mesh over the bounding box, feasibility-filtered."""
    box = box if box is not None else feasible.bounding_box()
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dimension)
    keep = [p for p in mesh if feasible.contains(p, tol=1e-9)]
    return np.array(keep) if keep else np.empty((0, box.dimension))


def _grid_minimize(
    objective: Callable[[np.ndarray], float],
    feasible: ActionSet,
    resolution: int,
) -> tuple[np.ndarray, float, int]:
    """Grid search refined by two zoom rounds; lexicographically first tie-break."""
    outer = feasible.bounding_box()
    box = outer
    best_point, best_value = None, math.inf
    evals = 0
    for _ in range(3):
        pts = grid_points(feasible, resolution, box)
        if pts.shape[0] == 0:
            break
        for p in pts:
            v = objective(p)
            evals += 1
            if v < best_value - 1e-15:
                best_value, best_point = v, p
        spacing = (box.upper - box.lower) / max(resolution - 1, 1)
        lo = np.maximum(outer.lower, best_point - spacing)
        hi = np.minimum(outer.upper, best_point + spacing)
        box = Box(lo, hi)
    if best_point is None:
        raise ValueError("empty grid: feasible set has no grid points")
    return best_point, best_value, evals


def _pattern_search(
    objective: Callable[[np.ndarray], float],
    feasible: ActionSet,
    x0: np.ndarray,
    initial_step: float,
) -> tuple[np.ndarray, float, int]:
    """Compass search with shrinking steps; local, used beyond grid dimensions."""
    x = feasible.project(x0)
    fx = objective(x)
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
                val = objective(cand)
                evals += 1
                if val < fx - 1e-15:
                    x, fx = cand, val
                    improved = True
        if not improved:
            h *= 0.5
            if h < 1e-8:
                break
    return x, fx, evals


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
        objective = lambda a: float(
            game.loss_learner(a, best_response(game, follower, a, follower_set))
        )
    elif leader == "env":
        follower = "learner"
        objective = lambda a: float(
            game.loss_env(best_response(game, follower, a, follower_set), a)
        )
    else:
        raise ValueError(f"unknown leader {leader!r}")

    certified = leader_set.dimension <= 2
    if certified:
        action, _, evals = _grid_minimize(objective, leader_set, grid_resolution)
    else:
        box = leader_set.bounding_box()
        span = float(np.max(box.upper - box.lower))
        x0 = leader_set.project((box.lower + box.upper) / 2.0)
        action, _, evals = _pattern_search(objective, leader_set, x0, span / 4.0)

    follower_action = best_response(game, follower, action, follower_set)
    if leader == "learner":
        theta, env = action, follower_action
        learner_set, env_set = leader_set, follower_set
        regime = "stackelberg_leader"
    else:
        theta, env = follower_action, action
        learner_set, env_set = follower_set, leader_set
        regime = "stackelberg_follower"
    joint = JointAction(theta, env)
    return EquilibriumReport(
        regime=regime,
        joint=joint,
        loss_learner=float(game.loss_learner(theta, env)),
        loss_env=float(game.loss_env(theta, env)),
        nash_residual=nash_residual(game, joint, learner_set, env_set),
        iterations=evals,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# Nash solvers
# ---------------------------------------------------------------------------


def psgd_nash(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    x0: JointAction,
    horizon: int,
    rng: np.random.Generator,
) -> PsgdTrace:
    """Projected stochastic gradient steps with weighted iterate averaging.

    Iterates x_{t+1} = P(x_t - eta_t * Fhat(x_t)) with eta_t = 2/(mu (t+1));
    the returned average weights iterate t by t / (T(T+1)/2).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    joint_set = Product(learner_set, env_set)
    x = joint_set.project(x0.concat())
    acc = np.zeros_like(x)
    mu = game.mu
    dl = game.dim_learner
    for t in range(1, horizon + 1):
        acc += t * x
        fhat = noisy_gradient_operator(game, JointAction.from_concat(x, dl), rng)
        eta = 2.0 / (mu * (t + 1))
        x = joint_set.project(x - eta * fhat)
    averaged = acc * (2.0 / (horizon * (horizon + 1)))
    return PsgdTrace(averaged_point=JointAction.from_concat(averaged, dl))


def nash_residual(
    game: GameSpec, x: JointAction, learner_set: ActionSet, env_set: ActionSet
) -> float:
    """Natural residual |x - P(x - F(x))| of the stacked projected-gradient
    step (both players' own-action blocks); zero exactly at a Nash point of
    the convex game."""
    return natural_residual(x.concat(), Product(learner_set, env_set), gradient_operator(game, x))


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
    dl = game.dim_learner
    x, iters, _ = _projected_descent(
        lambda z: gradient_operator(game, JointAction.from_concat(z, dl)),
        joint_set,
        np.zeros(joint_set.dimension),
        game.mu / (game.lipschitz**2),
        tol,
        500_000,
    )
    return JointAction.from_concat(x, dl), iters


def nash_report(
    game: GameSpec,
    learner_set: ActionSet,
    env_set: ActionSet,
    tol: float = 1e-10,
) -> EquilibriumReport:
    x, iters = solve_nash(game, learner_set, env_set, tol)
    return EquilibriumReport(
        regime="nash",
        joint=x,
        loss_learner=float(game.loss_learner(x.theta, x.env)),
        loss_env=float(game.loss_env(x.theta, x.env)),
        nash_residual=nash_residual(game, x, learner_set, env_set),
        iterations=iters,
    )


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
    the grid contains no such point.
    """
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


# ---------------------------------------------------------------------------
# Scaling sweeps over a ladder
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RegimeInputs:
    """Per-class inputs produced by a scaling-curve game factory."""

    game: GameSpec
    env_set: Optional[ActionSet] = None
    fixed_env: Optional[np.ndarray] = None


def scaling_curve(
    game_factory: Callable[[ActionSet], RegimeInputs],
    ladder: ModelClassLadder,
    regime: str,
) -> list[tuple[int, EquilibriumReport]]:
    """Equilibrium per ladder class under one interaction regime.

    The learner-loss sequence is non-increasing in class index for the
    stationary and learner-leading Stackelberg regimes; the Nash regime can
    break monotonicity, which is the phenomenon under study.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    out = []
    for k, cls in enumerate(ladder):
        inputs = game_factory(cls)
        game = inputs.game
        if regime == "stationary":
            if inputs.fixed_env is None:
                raise ValueError("stationary regime needs fixed_env")
            report = stationary_optimum(game, cls, inputs.fixed_env)
        elif regime == "stackelberg_leader":
            report = stackelberg_leader(game, "learner", cls, inputs.env_set)
        elif regime == "stackelberg_follower":
            report = stackelberg_leader(game, "env", inputs.env_set, cls)
        else:
            report = nash_report(game, cls, inputs.env_set, tol=1e-9)
        out.append((k, report))
    return out
