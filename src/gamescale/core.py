"""Constrained action sets, game definitions, and regularity checks.

Everything downstream (equilibrium solvers, model selection, restriction
certificates) builds on the primitives here: convex action sets with exact
Euclidean projections, two-player game specs with gradient oracles, and a
sampling-based audit of strong monotonicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

LossFn = Callable[[np.ndarray, np.ndarray], float]
GradFn = Callable[[np.ndarray, np.ndarray], np.ndarray]

DYKSTRA_MAX_SWEEPS = 10_000
DYKSTRA_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """An iterative solver hit its cap without reaching tolerance."""


class UnboundedSetError(ValueError):
    """Operation needs a bounded set (grid/sampling) but got an unbounded one."""


def _as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {v.shape[0]}")
    return v


# ---------------------------------------------------------------------------
# Action sets
# ---------------------------------------------------------------------------


class ActionSet:
    """Compact convex constraint region with Euclidean projection."""

    dimension: int

    def project(self, point: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        p = _as_vector(point, self.dimension)
        return float(np.linalg.norm(p - self.project(p))) <= tol

    def is_interior(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        raise NotImplementedError

    def bounding_box(self) -> "Box":
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Random feasible point: uniform draw in the bounding box, projected."""
        box = self.bounding_box()
        draw = rng.uniform(box.lower, box.upper)
        return self.project(draw)


@dataclass(eq=False)
class Box(ActionSet):
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = _as_vector(self.lower)
        self.upper = _as_vector(self.upper, self.lower.shape[0])
        if np.any(self.lower > self.upper):
            raise ValueError("box requires lower <= upper componentwise")
        self.dimension = self.lower.shape[0]

    def project(self, point: np.ndarray) -> np.ndarray:
        return np.clip(_as_vector(point, self.dimension), self.lower, self.upper)

    def is_interior(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        p = _as_vector(point, self.dimension)
        return bool(np.all(p >= self.lower + margin) and np.all(p <= self.upper - margin))

    def bounding_box(self) -> "Box":
        return self

    def vertices(self) -> np.ndarray:
        """All corner points, provided 2^dim does not exceed 4096."""
        if 2 ** self.dimension > 4096:
            raise ValueError("too many vertices to enumerate")
        corners = np.stack(
            np.meshgrid(*[(lo, hi) for lo, hi in zip(self.lower, self.upper)], indexing="ij"),
            axis=-1,
        ).reshape(-1, self.dimension)
        return corners


@dataclass(eq=False)
class Halfspace(ActionSet):
    """{x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = _as_vector(self.normal)
        self.offset = float(self.offset)
        self._norm_sq = float(self.normal @ self.normal)
        if self._norm_sq == 0.0:
            raise ValueError("halfspace normal must be nonzero")
        self.dimension = self.normal.shape[0]

    def project(self, point: np.ndarray) -> np.ndarray:
        p = _as_vector(point, self.dimension)
        excess = float(self.normal @ p) - self.offset
        if excess <= 0.0:
            return p.copy()
        return p - (excess / self._norm_sq) * self.normal

    def is_interior(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        p = _as_vector(point, self.dimension)
        return float(self.normal @ p) <= self.offset - margin * math.sqrt(self._norm_sq)

    def bounding_box(self) -> "Box":
        raise UnboundedSetError("halfspace is unbounded")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.project(rng.standard_normal(self.dimension))


@dataclass(eq=False)
class Intersection(ActionSet):
    """Intersection of convex members; projection via Dykstra's algorithm."""

    members: Sequence[ActionSet]

    def __post_init__(self):
        self.members = list(self.members)
        if not self.members:
            raise ValueError("intersection needs at least one member")
        dims = {m.dimension for m in self.members}
        if len(dims) != 1:
            raise ValueError("intersection members must share the same dimension")
        self.dimension = dims.pop()

    def project(self, point: np.ndarray) -> np.ndarray:
        x = _as_vector(point, self.dimension).copy()
        corrections = [np.zeros(self.dimension) for _ in self.members]
        for _ in range(DYKSTRA_MAX_SWEEPS):
            x_prev = x.copy()
            for i, member in enumerate(self.members):
                y = member.project(x + corrections[i])
                corrections[i] = x + corrections[i] - y
                x = y
            if float(np.linalg.norm(x - x_prev)) < DYKSTRA_TOL:
                # disjoint members also stall the iterate, so require feasibility
                if all(m.contains(x, tol=10 * DYKSTRA_TOL) for m in self.members):
                    return x
        raise ConvergenceError(
            "Dykstra projection did not converge; intersection may be empty"
        )

    def is_interior(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        return all(m.is_interior(point, margin) for m in self.members)

    def bounding_box(self) -> "Box":
        boxes = []
        for m in self.members:
            try:
                boxes.append(m.bounding_box())
            except UnboundedSetError:
                continue
        if not boxes:
            raise UnboundedSetError("no bounded member in intersection")
        lower = np.max([b.lower for b in boxes], axis=0)
        upper = np.min([b.upper for b in boxes], axis=0)
        return Box(lower, np.maximum(lower, upper))


@dataclass(eq=False)
class Product(ActionSet):
    """Cartesian product of a learner set and an environment set.

    Projection factorizes componentwise, which is what the joint projection
    step of the Nash solver needs.
    """

    learner: ActionSet
    env: ActionSet

    def __post_init__(self):
        self.dimension = self.learner.dimension + self.env.dimension

    def split(self, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = _as_vector(point, self.dimension)
        return p[: self.learner.dimension], p[self.learner.dimension :]

    def project(self, point: np.ndarray) -> np.ndarray:
        theta, env = self.split(point)
        return np.concatenate([self.learner.project(theta), self.env.project(env)])

    def is_interior(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        theta, env = self.split(point)
        return self.learner.is_interior(theta, margin) and self.env.is_interior(env, margin)

    def bounding_box(self) -> "Box":
        bl, be = self.learner.bounding_box(), self.env.bounding_box()
        return Box(np.concatenate([bl.lower, be.lower]), np.concatenate([bl.upper, be.upper]))


def box_1d(lo: float, hi: float) -> Box:
    return Box(np.array([lo]), np.array([hi]))


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

    Gradients may be omitted, in which case central finite differences of the
    losses are used (step 1e-6).
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


def gradient_operator(game: GameSpec, x: JointAction) -> np.ndarray:
    """Stacked own-action gradients F(x) = (grad_theta f_l; grad_e f_e)."""
    out = np.concatenate([game.grad_l(x.theta, x.env), game.grad_e(x.theta, x.env)])
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite gradient components")
    return out


def noisy_gradient_operator(
    game: GameSpec, x: JointAction, rng: np.random.Generator
) -> np.ndarray:
    """F(x) plus mean-zero noise, almost surely bounded by 1 in norm.

    The perturbation is a uniform-on-the-sphere direction with magnitude
    uniform on [0, min(1, sqrt(3)*sigma)], so E[noise] = 0,
    E[|noise|^2] <= sigma^2, and |noise| <= 1 always.
    """
    base = gradient_operator(game, x)
    dim = base.shape[0]
    direction = rng.standard_normal(dim)
    norm = float(np.linalg.norm(direction))
    while norm < 1e-12:
        direction = rng.standard_normal(dim)
        norm = float(np.linalg.norm(direction))
    magnitude = rng.uniform(0.0, min(1.0, math.sqrt(3.0) * game.noise_bound))
    return base + (magnitude / norm) * direction


@dataclass
class MonotonicityReport:
    min_modulus: float
    passed: bool
    violating_pair: Optional[tuple[np.ndarray, np.ndarray]] = None


def monotonicity_audit(
    game: GameSpec,
    region: ActionSet,
    samples: int,
    rng: np.random.Generator,
) -> MonotonicityReport:
    """Sample pairs from the joint region and check the monotonicity quotient.

    The quotient <F(x)-F(x'), x-x'> / |x-x'|^2 must stay at or above mu for a
    mu-strongly monotone game. A failed audit is reported, not raised.
    """
    dl = game.dim_learner
    min_q = math.inf
    worst = None
    done = 0
    while done < samples:
        a = region.sample(rng)
        b = region.sample(rng)
        diff = a - b
        nsq = float(diff @ diff)
        if nsq < 1e-18:
            continue
        fa = gradient_operator(game, JointAction.from_concat(a, dl))
        fb = gradient_operator(game, JointAction.from_concat(b, dl))
        q = float((fa - fb) @ diff) / nsq
        if q < min_q:
            min_q = q
            worst = (a, b)
        done += 1
    passed = min_q >= game.mu - 1e-7
    return MonotonicityReport(
        min_modulus=min_q,
        passed=passed,
        violating_pair=None if passed else worst,
    )


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

    def check_nested(self, rng: np.random.Generator) -> bool:
        """Sampling check of Theta_i <= Theta_{i+1}: sampled points (and box
        vertices, when enumerable) of the smaller class must project onto the
        larger one with zero displacement."""
        for small, large in zip(self.classes, self.classes[1:]):
            points = [small.sample(rng) for _ in range(64)]
            if isinstance(small, Box) and 2 ** small.dimension <= 1024:
                points.extend(small.vertices())
            for p in points:
                if not large.contains(p, 1e-9):
                    return False
        return True
