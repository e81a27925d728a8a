"""Successive elimination over candidate model classes.

Treats each candidate action set as a bandit arm. Every epoch doubles the
projected-stochastic-gradient horizon, re-estimates each surviving arm's
equilibrium learner loss from a fresh run, and eliminates arms whose
confidence interval is strictly dominated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import GameSpec, JointAction, ModelClassLadder
from .equilibrium import MAX_RUNS
from .psgd import PSGDBatch
from .sets import ActionSet

EPOCHS_AHEAD = 3  # most epochs started beside the current one, on the guess that no arm is eliminated


def confidence_radius(L: float, mu: float, T: int, delta: float, scale: float = 1.0) -> float:
    """Anytime radius scale * (L^2 log(1/delta) + L^3) / (mu^2 T)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not all(0.0 < v < math.inf for v in (L, mu, scale)):
        raise ValueError(f"L, mu, and scale must be positive and finite, got {L}, {mu}, {scale}")
    return scale * (L * L * math.log(1.0 / delta) + L**3) / (mu * mu * T)


@dataclass(eq=False)
class ArmState:
    class_index: int
    action_set: ActionSet
    last_estimate: float = math.nan
    pulls: int = 0
    active: bool = True


@dataclass
class EpochRecord:
    """One arm's evaluation inside one epoch (CSV row of the elimination log)."""

    epoch: int
    horizon: int
    arm: int
    estimate: float
    radius: float
    active_after: bool


@dataclass(eq=False)
class SelectionReport:
    winner: Optional[int]
    survivors: list[int]
    inconclusive: bool
    epochs: int
    total_steps: int
    elimination_log: list[tuple[int, int, float]]
    evaluations: list[EpochRecord]
    delta: float
    arms: list[ArmState]


def _horizon(alpha: float, tau: int) -> float:
    """Epoch tau's horizon ceil(alpha * 2^tau); ldexp scales by 2^tau exactly, and a
    horizon past the float range, inf, is past any budget."""
    try:
        return math.ceil(math.ldexp(alpha, tau))
    except OverflowError:
        return math.inf


def successive_elimination(
    arms: Sequence[ActionSet] | ModelClassLadder,
    game: GameSpec,
    env_set: ActionSet,
    delta: float,
    alpha: float,
    rng: np.random.Generator,
    scale: float = 1.0,
    max_total_steps: int = 1_000_000,
) -> SelectionReport:
    """Identify the arm with the best equilibrium learner loss.

    All arms share one game and environment set; every run starts at the origin,
    and each epoch runs its active arms as PSGD runs, each with its own stream
    spawned from rng.
    Epoch tau uses horizon T = ceil(alpha * 2^tau) and per-test failure budget
    delta' = delta / (2 n T^2). Arm i is eliminated once some arm j satisfies
    f_j + U(T, delta') < f_i - U(T, delta') on the current epoch's fresh
    estimates; a non-finite estimate raises FloatingPointError.

    Stops when one arm survives, or returns all survivors flagged
    inconclusive when the next epoch would exceed the step budget.

    Epochs are pipelined in one psgd.PSGDBatch, with the report, bits and rng
    state of running them one after another for pure oracles (see GameSpec):
    once epoch tau's arms are known, epochs tau + 1 .. tau + EPOCHS_AHEAD join
    the batch on the guess that no arm is eliminated, so up to
    1 + EPOCHS_AHEAD epochs run at once. Each joins only if the budget would
    allow it and every epoch before it, the batch stays within MAX_RUNS rows,
    and the spread of the last epoch's estimates (largest minus smallest) is
    at most 2 U(T, delta') of every epoch before it: no epoch starts behind
    one in which this spread would eliminate an arm, and none starts before
    epoch 1's estimates are known.
    Epoch tau + j's streams are the children rng.spawn would give it,
    built from rng's SeedSequence, and rng.spawn moves past them once the
    guess holds up to tau + j. An elimination drops every early epoch's rows,
    and tau + 1 starts when tau ends. If a batch holding an early epoch
    raises, epoch tau runs again alone on its own streams, raising as it does
    in turn, and the early epochs are dropped.
    """
    sets = list(arms)
    if not sets:
        raise ValueError("need at least one arm")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if not isinstance(max_total_steps, (int, np.integer)) or max_total_steps < 0:
        raise ValueError(f"max_total_steps must be a nonnegative integer, got {max_total_steps!r}")
    n = len(sets)
    states = [ArmState(i, s) for i, s in enumerate(sets)]
    x0 = JointAction(np.zeros(game.dim_learner), np.zeros(game.dim_env))
    batch = PSGDBatch(game, env_set, x0)
    seq = rng.bit_generator.seed_seq

    def children(start: int, count: int) -> list[np.random.Generator]:
        """Children start.. of rng as rng.spawn gives them, rng left as it is."""
        return [type(rng)(type(rng.bit_generator)(type(seq)(seq.entropy, spawn_key=(*seq.spawn_key, i),
                                                             pool_size=seq.pool_size)))
                for i in range(start, start + count)]

    def radius_at(epoch: int) -> float:
        """U(T, delta') of an epoch whose horizon is within the budget."""
        T = _horizon(alpha, epoch)
        return confidence_radius(game.lipschitz, game.mu, T, delta / (2.0 * n * T * T), scale)

    total_steps = 0
    epochs = 0
    eliminations: list[tuple[int, int, float]] = []
    records: list[EpochRecord] = []
    inconclusive = False
    tau, ahead = 1, []  # epochs tau + 1, tau + 2, ..'s cohorts, joined on the guess that no arm is eliminated
    while sum(s.active for s in states) > 1:
        active = [s for s in states if s.active]
        arm_sets, horizon = [s.action_set for s in active], _horizon(alpha, tau)
        if total_steps + len(active) * horizon > max_total_steps:
            inconclusive = True
            break
        radius = radius_at(tau)
        key, streams = seq.n_children_spawned, rng.spawn(len(active))  # if ahead, tau joined on these
        if ahead:
            ahead.pop(0)
        else:
            batch.join(arm_sets, horizon, streams)
        # an epoch eliminates if its estimates spread wider than 2 U(T, delta'): guessing that the last
        # epoch's spread holds, no epoch joins behind one that would eliminate, nor before any estimate
        estimates = [s.last_estimate for s in active]
        spread = max(estimates) - min(estimates) if tau > 1 else math.inf
        planned = total_steps + len(active) * (horizon + sum(c.horizon for c in ahead))
        while len(ahead) < EPOCHS_AHEAD and (2 + len(ahead)) * len(active) <= MAX_RUNS:
            j = len(ahead) + 1
            following = _horizon(alpha, tau + j)
            planned += len(active) * following
            if planned > max_total_steps or spread > 2.0 * radius_at(tau + j - 1):
                break
            ahead.append(batch.join(arm_sets, following, children(key + j * len(active), len(active))))
        try:  # epoch tau's runs finish first: later epochs started no earlier and run no fewer steps
            rows = batch.run()[1]
        except Exception:  # an oracle may raise anything; epoch tau alone raises as it does in turn
            if not ahead:
                raise
            batch, ahead = PSGDBatch(game, env_set, x0), []
            batch.join(arm_sets, horizon, children(key, len(active)))
            rows = batch.run()[1]
        for state, row in zip(active, rows):
            avg = JointAction.from_concat(row, game.dim_learner)
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
        if not all(s.active for s in active):
            for cohort in ahead:
                batch.drop(cohort)
            ahead = []
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
