"""Game definitions, their gradient oracles, and regularity checks.

Everything downstream (equilibrium solvers, model selection, restriction
certificates) builds on the primitives here: two-player game specs with
gradient oracles, PSGD's gradient noise, a sampling-based audit of strong
monotonicity, and model-class ladders of learner action sets (sets.py).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import grid
# the four sets are also core.<name>, where perfbench/tracer.py finds its projection targets
from .sets import ActionSet, Box, Halfspace, Intersection, Product, _as_vector, _row_norms  # noqa: F401

LossFn = Callable[[np.ndarray, np.ndarray], float]
GradFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = step
        grad[j] = (f(x + e) - f(x - e)) / (2.0 * step)
    return grad


@dataclass(eq=False)
class GameSpec:
    """Two-player game: losses, gradient oracles, and regularity constants.

    The oracle contract: a loss or gradient oracle f(theta, env) gets one joint point (two
    vectors) or a batch, theta (B, dim_learner) and env (B, dim_env) with row i joint point i.
    For one point a loss returns a float and a gradient a vector (a float in dimension 1); for
    a batch they return shape (B,) and (B, dim) exactly, never broadcast. An oracle's value
    must depend on its arguments only: the library may call it in another order and number
    than a point-by-point loop. An omitted gradient is central differences of the loss.
    Every read goes through loss() or grad() (grad_reader binds grad's batch read once for
    PSGD's steps): a wrong shape raises ValueError, a non-finite loss FloatingPointError.
    Batch values are held to single points, best responses' every row at the first moved
    iterate and the audit's and grids' row 0 of each call (grid.py says where the
    Stackelberg grid reads more). Where a batch raises or fails that check, best responses
    rerun the solve one point at a time, the audit and the Stackelberg grid the block, and
    the Pareto grid scans pairs one at a time from that block on; PSGD raises. An oracle
    that broadcasts over rows (t - 1.0 + e, the shipped losses' t.T[0]) takes one call per
    PSGD step, audit block or grid block.
    """

    dim_learner: int
    dim_env: int
    loss_learner: LossFn
    loss_env: LossFn
    mu: float
    lipschitz: float
    grad_learner: Optional[GradFn] = None
    grad_env: Optional[GradFn] = None
    noise_bound: float = 0.0

    def __post_init__(self):
        if self.dim_learner < 1 or self.dim_env < 1:
            raise ValueError("dimensions must be positive")
        if not all(math.isfinite(c) for c in (self.mu, self.lipschitz, self.noise_bound)):
            raise ValueError("mu, lipschitz and noise_bound must be finite")
        if self.mu <= 0 or self.lipschitz <= 0:
            raise ValueError("mu and lipschitz must be positive")
        if self.mu > self.lipschitz:
            raise ValueError("mu must not exceed the Lipschitz constant")
        if self.noise_bound < 0:
            raise ValueError("noise_bound must be nonnegative")

    def loss(self, player: str, theta: np.ndarray, env: np.ndarray, where: str):
        """player's ("learner" or "env") loss at one joint point, a float, or at a batch (theta
        2-D), its (B,) values from one oracle call; None if the oracle cannot take the batch (it
        raises, or its values break shape (B,) or row 0's single-point bits). A non-finite value
        raises FloatingPointError naming the oracle and where."""
        oracle = self._oracles(player)[0]
        if theta.ndim == 2:
            try:
                f, f0 = np.asarray(oracle(theta, env), dtype=float), float(oracle(theta[0], env[0]))
                if f.shape != theta.shape[:1] or f[:1].tobytes() != np.float64(f0).tobytes():
                    return None
            except Exception:  # a loss written for single points may raise anything on a batch
                return None
            finite = np.count_nonzero(np.isfinite(f)) == f.size  # one reduction, ~2x faster than .all() at B = 201
        else:
            finite = math.isfinite(f := float(oracle(theta, env)))
        if not finite:
            raise FloatingPointError(f"loss_{player} is not finite at {where}")
        return f

    def grad(self, player: str, theta: np.ndarray, env: np.ndarray) -> np.ndarray:
        """player's ("learner" or "env") gradient in its own action: at one joint point a
        vector of its dimension (central differences of the loss, step 1e-6, without an
        oracle), at a batch (theta 2-D) the (B, dim) values of one oracle call."""
        if theta.ndim == 2:
            return self.grad_reader(player, theta.shape[0])(theta, env)
        _, oracle, dim = self._oracles(player)
        if oracle is not None:
            return _as_vector(oracle(theta, env), dim)
        if player == "learner":
            return central_difference(lambda t: self.loss(player, t, env, "a central-difference point"), theta)
        return central_difference(lambda e: self.loss(player, theta, e, "a central-difference point"), env)

    def grad_reader(self, player: str, rows: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """grad's read of a batch of `rows` joint points, bound once: one oracle call held to shape
        (rows, dim), its exception re-raised as ValueError naming it; raises at once without one."""
        _, oracle, dim = self._oracles(player)
        if oracle is None:
            raise ValueError(f"the game has no grad_{player} oracle; a batch of points needs one")
        shape = (rows, dim)

        def read_batch(theta: np.ndarray, env: np.ndarray) -> np.ndarray:
            try:
                g = np.asarray(oracle(theta, env), dtype=float)
            except Exception as exc:  # a gradient written for single points may raise anything on a batch
                raise ValueError(f"grad_{player} failed on a batch of {rows} points: {exc!r}") from exc
            if g.shape != shape:
                raise ValueError(f"grad_{player} returned shape {g.shape} for a batch; expected {shape}")
            return g

        return read_batch

    def _oracles(self, player: str) -> tuple:
        """player's loss, gradient oracle and dimension."""
        if player == "learner":
            return self.loss_learner, self.grad_learner, self.dim_learner
        if player == "env":
            return self.loss_env, self.grad_env, self.dim_env
        raise ValueError(f"unknown player {player!r}")


@dataclass(eq=False)
class JointAction:
    """Joint point x = (theta, env) of the two players."""

    theta: np.ndarray
    env: np.ndarray

    def __post_init__(self):
        self.theta = _as_vector(self.theta)
        self.env = _as_vector(self.env)

    def concat(self) -> np.ndarray:
        return np.concatenate([self.theta, self.env])

    @staticmethod
    def from_concat(x: np.ndarray, dim_learner: int) -> "JointAction":
        x = _as_vector(x)
        return JointAction(x[:dim_learner], x[dim_learner:])


def gradient_operator(game: GameSpec, x: np.ndarray) -> np.ndarray:
    """Stacked own-action gradients F(x) = (f_l's in theta; f_e's in env) at the stacked joint
    point x = (theta; env), (d,), or at each row of a batch (B, d) from one read per player;
    raises FloatingPointError if any component is not finite."""
    theta, env = x[..., : game.dim_learner], x[..., game.dim_learner :]
    return _finite(np.concatenate([game.grad("learner", theta, env), game.grad("env", theta, env)], axis=-1))


def _finite(g: np.ndarray) -> np.ndarray:
    # count_nonzero, not .all(): .all() over a PSGD block's flags raised peak memory 64 KB
    if np.count_nonzero(np.isfinite(g)) != g.size:
        raise FloatingPointError("non-finite gradient components")
    return g


def gradient_noise(streams: Sequence, noise_bound: float, out: np.ndarray) -> np.ndarray:
    """Fills and returns out, (steps, B, dim), with PSGD noise for B = len(streams)
    runs: a uniform direction on the sphere times a magnitude uniform on
    [0, min(1, sqrt(3) noise_bound)], so E = 0, E|.|^2 <= noise_bound^2 and
    |.| <= 1. Run i reads its direction, magnitude and redraw (of norm < 1e-12)
    generators streams[i] alone; numpy's give the same values read in blocks or
    at once, so no bit depends on blocks."""
    steps, _, dim = out.shape
    magnitude, unit = np.empty((steps, len(streams))), np.empty(steps)
    for i, s in enumerate(streams):
        out[:, i] = s[0].standard_normal((steps, dim))
        magnitude[:, i] = s[1].random(out=unit)
    magnitude *= min(1.0, math.sqrt(3.0) * noise_bound)  # uniform(0.0, high, n) is 0.0 + high * random(n)
    norm = _row_norms(out)
    for t, i in zip(*(norm < 1e-12).nonzero()):
        while norm[t, i] < 1e-12:
            out[t, i] = streams[i][2].standard_normal(dim)
            norm[t, i] = np.linalg.norm(out[t, i])
    magnitude /= norm
    out *= magnitude[..., np.newaxis]  # x * y is y * x, bit for bit
    return out


def _audit_gradients(game: GameSpec, points: np.ndarray) -> np.ndarray:
    """gradient_operator of the batch points if its row 0 has the single-point bits, else of each point."""
    with contextlib.suppress(Exception):  # a gradient written for single points may raise anything on a batch
        if (g := gradient_operator(game, points))[0].tobytes() == gradient_operator(game, points[0]).tobytes():
            return g
    return np.array([gradient_operator(game, p) for p in points])


def monotonicity_audit(
    game: GameSpec,
    region: ActionSet,
    samples: int,
    rng: np.random.Generator,
) -> float:
    """Smallest monotonicity quotient over sampled pairs of the joint region.

    The quotient <F(x)-F(x'), x-x'> / |x-x'|^2 stays at or above mu for a
    mu-strongly monotone game; the caller compares, and one NaN quotient makes
    the result NaN. Pairs closer than 1e-9 are redrawn; a ValueError is raised
    once 10 * samples pairs are drawn without samples of them far enough apart,
    and for samples not an integer >= 1 (no pair would leave the result inf).
    Pairs come in blocks of at most grid.BLOCK_CELLS // (2 d), and F is read at
    a block's kept points in one call per player, held to row 0's single-point
    bits (else one point at a time, in order).
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be an integer >= 1, got {samples!r}")
    batched = type(region).sample is ActionSet.sample  # a uniform draw in the bounding box, projected
    min_q, done, drawn = math.inf, 0, 0
    while done < samples:
        if drawn == 10 * samples:
            raise ValueError(f"{drawn} pairs drawn, {done} of them more than 1e-9 apart; the region is too small")
        if batched:  # the pairs still needed, at most: one (2n, d) draw has the bits of 2n draws of d
            box = region.bounding_box()
            n = min(samples - done, 10 * samples - drawn, max(1, grid.BLOCK_CELLS // (2 * box.dimension)))
            points = region.project_rows(rng.uniform(box.lower, box.upper, (2 * n, box.dimension)))
        else:
            n, points = 1, np.array([region.sample(rng), region.sample(rng)])
        drawn += n
        diff = points[::2] - points[1::2]  # contiguous rows: vecdot then has the bits of each row's @
        nsq = np.vecdot(diff, diff)
        keep = ~(nsq < 1e-18)  # a NaN nsq is kept, as the pair-by-pair loop keeps it
        if kept := np.count_nonzero(keep):
            g = _audit_gradients(game, points.reshape(n, -1)[keep].reshape(2 * kept, -1))
            for q in (np.vecdot(g[::2] - g[1::2], diff[keep]) / nsq[keep]).tolist():
                if q < min_q or math.isnan(q):
                    min_q = q
            done += kept
    return min_q


# ---------------------------------------------------------------------------
# Model-class ladders
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ModelClassLadder:
    """Ordered nested sequence of learner action sets (small to large)."""

    classes: Sequence[ActionSet]

    def __post_init__(self):
        self.classes = list(self.classes)
        if not self.classes:
            raise ValueError("ladder needs at least one class")
        dims = {c.dimension for c in self.classes}
        if len(dims) != 1:
            raise ValueError("ladder classes must share the learner dimension")

    def __len__(self) -> int:
        return len(self.classes)

    def __getitem__(self, k: int) -> ActionSet:
        return self.classes[k]
