"""Game definitions, their gradient oracles, and regularity checks.

Everything downstream (equilibrium solvers, model selection, restriction
certificates) builds on the primitives here: two-player game specs with
gradient oracles, PSGD's gradient noise, a sampling-based audit of strong
monotonicity, and model-class ladders of learner action sets (sets.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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

    One oracle contract serves PSGD, best responses and the Pareto and
    Stackelberg grids: a gradient or loss f(theta, env) gets one joint point
    (two vectors; a loss returns a float, a gradient a vector or, in dimension
    1, a float) or a batch, theta (B, dim_learner) and env (B, dim_env), row i
    joint point i, for which a gradient must return shape (B, dim) and a loss
    (B,) exactly: any other shape is an error, not broadcast. Best responses
    check every row at one iterate, and the grids row 0 of each call, against
    the single point's bits; the Stackelberg grid also calls the single points
    where the batch values, taken as 8-16 ulps from them, do not decide its
    rule, and at each round's winner. Oracles that broadcast over rows, such as
    t - 1.0 + e or the shipped losses' t.T[0], take one call per step, Pareto
    grid row or Stackelberg block. One that takes single points only (it
    indexes t[0] or calls float()), or an omitted gradient (central
    differences, step 1e-6), makes PSGD raise, while best responses rerun the
    whole solve one point at a time, the Stackelberg grid each block, and the
    Pareto grid scans one pair at a time from the first learner point whose
    batch fails. An oracle's value must depend on its arguments only: the
    library may call it in another order and number than a one-at-a-time loop.
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

    def grad_l(self, theta: np.ndarray, env: np.ndarray) -> np.ndarray:
        if self.grad_learner is not None:
            return _as_vector(self.grad_learner(theta, env), self.dim_learner)
        return central_difference(lambda t: self.loss_learner(t, env), theta)

    def grad_e(self, theta: np.ndarray, env: np.ndarray) -> np.ndarray:
        if self.grad_env is not None:
            return _as_vector(self.grad_env(theta, env), self.dim_env)
        return central_difference(lambda e: self.loss_env(theta, e), env)


def _batch_gradient(
    oracle: Optional[GradFn], name: str, theta: np.ndarray, env: np.ndarray, dim: int
) -> np.ndarray:
    """One oracle call on a batch of joint points, held to shape (B, dim)."""
    if oracle is None:
        raise ValueError(f"the game has no {name} oracle; a batch of points needs one")
    g = np.asarray(oracle(theta, env), dtype=float)
    if g.shape != (theta.shape[0], dim):
        raise ValueError(
            f"{name} returned shape {g.shape} for a batch of {theta.shape[0]} points; "
            f"expected {(theta.shape[0], dim)}"
        )
    return g


def _batch_loss(loss: LossFn, name: str, theta: np.ndarray, env: np.ndarray) -> np.ndarray:
    """One loss call on a batch of joint points, held to shape (B,) and to row 0's single-point bits."""
    f = np.asarray(loss(theta, env), dtype=float)
    if f.shape != theta.shape[:1] or f[:1].tobytes() != np.float64(float(loss(theta[0], env[0]))).tobytes():
        raise ValueError(f"{name} returned shape {f.shape} or row-0 bits unlike a single point's")
    return f


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
    """Stacked own-action gradients F(x) = (grad_theta f_l; grad_e f_e) at the
    stacked joint point x = (theta; env)."""
    theta, env = x[: game.dim_learner], x[game.dim_learner :]
    return _finite(np.concatenate([game.grad_l(theta, env), game.grad_e(theta, env)]))


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
    once 10 * samples pairs are drawn without samples of them far enough apart.
    """
    batched = type(region).sample is ActionSet.sample  # a uniform draw in the bounding box, projected
    min_q, done, drawn = math.inf, 0, 0
    while done < samples:
        if drawn == 10 * samples:
            raise ValueError(f"{drawn} pairs drawn, {done} of them more than 1e-9 apart; the region is too small")
        if batched:  # the pairs still needed, at most: one (2n, d) draw has the bits of 2n draws of d
            n, box = min(samples - done, 10 * samples - drawn), region.bounding_box()
            points = region.project_rows(rng.uniform(box.lower, box.upper, (2 * n, box.dimension)))
        else:
            n, points = 1, [region.sample(rng), region.sample(rng)]
        drawn += n
        for a, b in zip(points[::2], points[1::2]):
            diff = a - b
            nsq = float(diff @ diff)
            if nsq < 1e-18:
                continue
            q = (gradient_operator(game, a) - gradient_operator(game, b)) @ diff / nsq
            if q < min_q or math.isnan(q):
                min_q = q
            done += 1
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
