"""Projected stochastic gradient descent (PSGD) as one resumable batch of independent runs.

Each run is a column of (d, B) arrays with its own learner set, noise streams, step
counter and horizon. Runs join the batch in cohorts, between two calls of run,
and a cohort leaves at its horizon. A block of steps ends after
max(NOISE_BLOCK, NOISE_CELLS // B) steps or where the next cohort ends: a batch
of 16 rows or more steps 64 at a time, and a narrower one longer, in buffers no
larger than a 16-row batch's. No bit of a run depends on the rows beside it or
on where blocks end, so every row is the run made alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GameSpec, JointAction, _batch_gradient, _finite, gradient_noise
from .sets import ActionSet, Product, row_projector

NOISE_BLOCK = 64  # fewest PSGD steps per block; block lengths set memory and speed, never output bits
NOISE_CELLS = 1024  # rows x steps that a block of fewer than NOISE_CELLS // NOISE_BLOCK rows may take


@dataclass(eq=False)
class Cohort:
    """Runs that joined the batch together and share a horizon: their joint sets (one
    Product per distinct learner set), noise streams, iterates x, sums acc of t * x_t
    and steps done."""

    sets: list
    streams: list
    horizon: int
    x: np.ndarray
    acc: np.ndarray
    done: int = 0


class PSGDBatch:
    """Independent PSGD runs of one game, all from x0 against env_set, stepped as one batch.

    Iterates x_{t+1} = P(x_t - eta_t * Fhat(x_t)) with eta_t = 2/(mu (t+1)); a
    run's result is the average that weights iterate t by t / (T(T+1)/2). Run i
    draws its noise one block per call (no bit depends on it) from three
    children of its generator. A call of run steps blocks of
    max(NOISE_BLOCK, NOISE_CELLS // B) steps for its B rows, fewer where a
    cohort ends: a narrow batch pays each block's fixed work less often.

    A block works in place in path (its iterates) and fhat (its noise plus the
    oracles' (B, dim) results), checked finite at the block's end (each step if
    a set is not a Box, so that the failing step raises). Both are (block + 1,
    d, B), coordinate-major: each oracle gets its player's rows of a step as a
    (B, dim) transposed view, C-contiguous when dim is 1, else F-contiguous
    (only an elementwise oracle's bits are promised independent of layout).
    Before a block, the rows of path that its steps will write hold each row's
    -eta_t, so a step reads its step sizes as the (d, B) view it writes; fhat
    then holds t * x_t, summed into the average in step order.
    """

    def __init__(self, game: GameSpec, env_set: ActionSet, x0: JointAction):
        self.game, self.env_set, self.x0 = game, env_set, x0.concat()
        self.cohorts: list[Cohort] = []  # in join order; their rows in this order make the batch

    def join(self, learner_sets: Sequence[ActionSet], horizon: int, rngs: Sequence[np.random.Generator]) -> Cohort:
        """Adds one run per generator, run i on learner_sets[i], each to run horizon steps."""
        if not isinstance(horizon, (int, np.integer)) or horizon < 1:
            raise ValueError(f"horizon must be an integer >= 1, got {horizon!r}")
        if len(learner_sets) != len(rngs):
            raise ValueError(f"{len(learner_sets)} learner sets for {len(rngs)} generators")
        if not rngs:
            raise ValueError("a cohort needs at least one run")
        distinct = {id(s): s for s in learner_sets}
        joint = {key: Product(s, self.env_set) for key, s in distinct.items()}  # so bounds stack once per set
        sets = [joint[id(s)] for s in learner_sets]  # row i's joint set
        x = row_projector(sets)[0](np.tile(self.x0[:, np.newaxis], len(sets)).T)  # F-ordered (k, d), as run's steps
        cohort = Cohort(sets, [rng.spawn(3) for rng in rngs], horizon, x, np.zeros_like(x))
        self.cohorts.append(cohort)
        return cohort

    def drop(self, cohort: Cohort) -> None:
        self.cohorts.remove(cohort)

    def run(self) -> tuple[Cohort, np.ndarray]:
        """Steps every cohort until one reaches its horizon; removes the first
        (in join order) that has and returns it with its runs' averages, (k, d)."""
        game, cohorts, dl, de = self.game, self.cohorts, self.game.dim_learner, self.game.dim_env
        if not cohorts:
            raise ValueError("no cohort to run: join one first")
        sets = [s for c in cohorts for s in c.sets]
        streams = [s for c in cohorts for s in c.streams]
        project, clips = row_projector(sets)
        block = max(NOISE_BLOCK, NOISE_CELLS // len(sets))
        path, fhat = np.empty((2, block + 1, dl + de, len(sets)))
        path[0] = np.concatenate([c.x for c in cohorts]).T
        acc = np.concatenate([c.acc for c in cohorts]).T.copy()
        # zeros plus a scalar here and ufunc broadcasts below, not np.full or broadcast copies: the
        # first call of a numpy routine a run makes nowhere else pages in library code (peak memory)
        done = np.concatenate([np.zeros(len(c.sets)) + c.done for c in cohorts])
        t = np.empty((block, len(sets)))  # each row's step numbers in a block
        # iterated per block; lists of every step's views were faster but peaked higher
        views = path, path[:, :dl].mT, path[:, dl:].mT, fhat, fhat[:, :dl].mT, fhat[:, dl:].mT
        while all(c.done < c.horizon for c in cohorts):
            n = min(block, *(c.horizon - c.done for c in cohorts))
            noise = path[1 : n + 1].reshape(n, len(sets), dl + de)  # (steps, B, d), where the step sizes go next
            fhat[:n] = gradient_noise(streams, game.noise_bound, noise).mT
            np.add(np.arange(1.0, n + 1.0)[:, np.newaxis], done, out=t[:n])
            steps = path[1 : n + 1]  # -2 / (mu (t + 1)), as one step's Python floats round it
            np.add(t[:n, np.newaxis], 1.0, out=steps)
            np.divide(-2.0, np.multiply(steps, game.mu, out=steps), out=steps)
            for x, theta, env, f, fl, fe, nxt in zip(*views, steps):
                fl += _batch_gradient(game.grad_learner, "grad_learner", theta, env, dl)
                fe += _batch_gradient(game.grad_env, "grad_env", theta, env, de)
                if not clips:
                    _finite(f)
                np.multiply(f, nxt, out=nxt)  # nxt held -eta_t
                nxt += x  # x + (-eta f): the bits of x - eta f
                project(nxt.T)
            weighted = _finite(fhat[:n])
            np.multiply(path[:n], t[:n, np.newaxis], out=weighted)
            weighted[0] += acc
            acc[...] = np.add.accumulate(weighted, out=path[:n])[-1]  # acc += t * x_t, step by step
            path[0] = path[n]
            done += n
            for c in cohorts:
                c.done += n
        start = 0
        for c in cohorts:  # each cohort keeps its rows, (k, d), apart from the block buffers
            rows = slice(start, start + len(c.sets))
            c.x, c.acc = path[0, :, rows].T.copy(), acc[:, rows].T.copy()
            start += len(c.sets)
        finished = next(c for c in cohorts if c.done == c.horizon)
        self.drop(finished)
        return finished, finished.acc * (2.0 / (finished.horizon * (finished.horizon + 1)))
