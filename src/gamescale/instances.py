"""Shipped game instances used by the CLI experiments and the test suite.

Each builder returns closed-form-verifiable objects: quadratic games with
known Nash points and constants, nested box ladders, and arm constructions
with prescribed per-class equilibrium losses. The games' gradients and losses
broadcast over a batch of points (rows): a loss reads t.T[0], which is t[0]
for one point and the first column of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GameSpec, JointAction, ModelClassLadder
from .sets import ActionSet, Box, box_1d


@dataclass(eq=False)
class NashBenchmark:
    game: GameSpec
    learner_set: ActionSet
    env_set: ActionSet
    nash: JointAction
    nash_learner_loss: float


def coupled_quadratic(sigma: float = 0.0) -> NashBenchmark:
    """Skew-coupled quadratic with Nash at (0, 1): f_l = (theta-1)^2/2 + theta e,
    f_e = (e-1)^2/2 - theta e. The skew coupling cancels in the monotonicity
    quotient, so mu = 1 and L = sqrt(2)."""
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * (t.T[0] - 1.0) ** 2 + t.T[0] * e.T[0],
        loss_env=lambda t, e: 0.5 * (e.T[0] - 1.0) ** 2 - t.T[0] * e.T[0],
        grad_learner=lambda t, e: t - 1.0 + e,
        grad_env=lambda t, e: e - 1.0 - t,
        mu=1.0,
        lipschitz=math.sqrt(2.0),
        noise_bound=sigma,
    )
    nash = JointAction(np.array([0.0]), np.array([1.0]))
    return NashBenchmark(game, box_1d(-2.0, 2.0), box_1d(-2.0, 2.0), nash, 0.5)


def restriction_instance() -> NashBenchmark:
    """Non-Pareto coupled quadratic: f_l = theta^2/2 + theta e + e^2/2 + e,
    f_e = (e - theta)^2/2. Nash at the origin with f_l = 0; moving both
    actions together to slightly negative values lowers f_l while keeping
    f_e = 0, so the Nash point is not Pareto optimal."""
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t.T[0] ** 2 + t.T[0] * e.T[0] + 0.5 * e.T[0] ** 2 + e.T[0],
        loss_env=lambda t, e: 0.5 * (e.T[0] - t.T[0]) ** 2,
        grad_learner=lambda t, e: t + e,
        grad_env=lambda t, e: e - t,
        mu=1.0,
        lipschitz=2.0,
    )
    nash = JointAction(np.array([0.0]), np.array([0.0]))
    return NashBenchmark(game, box_1d(-2.0, 2.0), box_1d(-2.0, 2.0), nash, 0.0)


def zero_sum_instance() -> NashBenchmark:
    """Zero-sum control: f_e = -f_l, so every Nash point is Pareto optimal
    for the learner-improvement check."""
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t.T[0] ** 2 + t.T[0] * e.T[0] - 0.5 * e.T[0] ** 2,
        loss_env=lambda t, e: -(0.5 * t.T[0] ** 2 + t.T[0] * e.T[0] - 0.5 * e.T[0] ** 2),
        grad_learner=lambda t, e: t + e,
        grad_env=lambda t, e: e - t,
        mu=1.0,
        lipschitz=math.sqrt(2.0),
    )
    nash = JointAction(np.array([0.0]), np.array([0.0]))
    return NashBenchmark(game, box_1d(-2.0, 2.0), box_1d(-2.0, 2.0), nash, 0.0)


def decoupled_quadratic(sigma: float = 0.0) -> GameSpec:
    """Independent scalar quadratics f_l = theta^2/2, f_e = e^2/2 (mu = L = 1)."""
    return GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * t.T[0] ** 2,
        loss_env=lambda t, e: 0.5 * e.T[0] ** 2,
        grad_learner=lambda t, e: t,
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=1.0,
        noise_bound=sigma,
    )


def selection_arms(
    nash_losses: list[float], sigma: float = 0.5
) -> tuple[list[ActionSet], GameSpec, ActionSet]:
    """Arms with prescribed Nash learner losses on the decoupled quadratic.

    Arm i is the interval [a_i, a_i + 1] with a_i = sqrt(2 * loss_i); the
    per-class Nash is theta = a_i, e = 0, with learner loss exactly loss_i.
    Returns the arms, the game and the environment set they share.
    """
    if not all(0.0 <= 2.0 * loss < math.inf for loss in nash_losses):  # 2 * loss: the offset's radicand
        raise ValueError(f"losses must be finite and nonnegative, with 2 * loss finite, got {nash_losses}")
    offsets = [math.sqrt(2.0 * loss) for loss in nash_losses]
    arms: list[ActionSet] = [box_1d(a, a + 1.0) for a in offsets]
    return arms, decoupled_quadratic(sigma), box_1d(-1.0, 1.0)


def nested_box_ladder(radii: list[float], dim: int = 1) -> ModelClassLadder:
    """Boxes [-r, r]^dim for increasing radii (small class first)."""
    return ModelClassLadder([Box(-r * np.ones(dim), r * np.ones(dim)) for r in radii])


def stationary_scaling_game(target: np.ndarray) -> GameSpec:
    """Stationary-regime game: f_l = |theta - target|^2 / 2 against a pinned
    environment; larger classes reach closer to the target."""
    target = np.asarray(target, dtype=float)
    dim = target.shape[0]
    return GameSpec(
        dim_learner=dim,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * float((t - target) @ (t - target)),
        loss_env=lambda t, e: 0.5 * float(e @ e),
        grad_learner=lambda t, e: t - target,
        grad_env=lambda t, e: e,
        mu=1.0,
        lipschitz=1.0,
    )


def stackelberg_scaling_game() -> tuple[GameSpec, ActionSet]:
    """Learner-leads tracking game and its environment set: f_l = (theta-2)^2/2
    + theta e, f_e = (e-theta)^2/2, so the committed objective is
    (theta-2)^2/2 + theta^2 with unconstrained minimum at theta = 2/3 (loss 4/3)."""
    game = GameSpec(
        dim_learner=1,
        dim_env=1,
        loss_learner=lambda t, e: 0.5 * (t.T[0] - 2.0) ** 2 + t.T[0] * e.T[0],
        loss_env=lambda t, e: 0.5 * (e.T[0] - t.T[0]) ** 2,
        grad_learner=lambda t, e: t - 2.0 + e,
        grad_env=lambda t, e: e - t,
        mu=1.0,
        lipschitz=2.0,
    )
    return game, box_1d(-4.0, 4.0)
