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
# sweeps one projection's jumps may skip: corrections grown by 1e9 steps still
# round (eps * 1e9 of a step) far below one step, so no false stop
DYKSTRA_MAX_SKIPPED = 10**9


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


def _row_norms(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row. np.vecdot sums like x @ x, and so like
    np.linalg.norm, bit for bit; einsum and (d * d).sum(-1) do not."""
    return np.sqrt(np.vecdot(d, d))


# ---------------------------------------------------------------------------
# Action sets
# ---------------------------------------------------------------------------


class ActionSet:
    """Compact convex constraint region with Euclidean projection."""

    dimension: int

    def project(self, point: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project_rows(self, points: np.ndarray) -> np.ndarray:
        """Project each row of a (B, dimension) array."""
        out = np.empty_like(points)
        for i, p in enumerate(points):
            out[i] = self.project(p)
        return out

    def contains_rows(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Whether each row of a (B, dimension) array lies within tol of the set."""
        return _row_norms(points - self.project_rows(points)) <= tol

    def contains(self, point: np.ndarray, tol: float = 1e-9) -> bool:
        p = _as_vector(point, self.dimension)
        return bool(self.contains_rows(p[np.newaxis], tol)[0])

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
        if not np.all(self.lower <= self.upper):  # fails on NaN; infinite bounds pass
            raise ValueError("box requires lower <= upper componentwise")
        self.dimension = self.lower.shape[0]

    def project(self, point: np.ndarray) -> np.ndarray:
        return _clip(_as_vector(point, self.dimension), self.lower, self.upper)

    def project_rows(self, points: np.ndarray) -> np.ndarray:
        return _clip(points, self.lower, self.upper)

    def is_interior(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        p = _as_vector(point, self.dimension)
        return bool(np.all(p >= self.lower + margin) and np.all(p <= self.upper - margin))

    def bounding_box(self) -> "Box":
        return self


@dataclass(eq=False)
class Halfspace(ActionSet):
    """{x : <normal, x> <= offset}."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        self.normal = _as_vector(self.normal)
        self.offset = float(self.offset)
        with np.errstate(over="ignore"):  # an infinite norm is rejected below
            self._norm_sq = float(self.normal @ self.normal)
        if not (0.0 < self._norm_sq < math.inf and math.isfinite(self.offset)):  # fails on NaN
            raise ValueError("halfspace needs a finite nonzero normal and a finite offset")
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
        z = _as_vector(point, self.dimension)
        x = z.copy()
        corrections = [np.zeros(self.dimension) for _ in self.members]
        pattern, saved, jump, growing, budget = None, None, 1, True, DYKSTRA_MAX_SKIPPED
        for _ in range(DYKSTRA_MAX_SWEEPS):
            # stop on the members' total move, not on the sweep's net move:
            # the iterate can end a sweep where it began while the corrections
            # still change. The move is relative to |x| beyond 1, as roundings
            # are; disjoint members run to the sweep cap.
            start, steps, moved = x, [], 0.0
            for i, member in enumerate(self.members):
                y = member.project(x + corrections[i])
                corrections[i] = x + corrections[i] - y
                steps.append(y - x)
                moved += float(np.linalg.norm(steps[-1]))
                x = y
            if moved < DYKSTRA_TOL * max(1.0, float(np.linalg.norm(x))):
                return x
            if not math.isfinite(moved):  # a non-finite point (or step) never converges
                raise FloatingPointError("non-finite point in the Dykstra projection")
            # far from the set sweeps can repeat the last one's member steps and
            # end where they began for thousands of rounds, each correction
            # drifting by minus its step; take `jump` of them at once (doubling,
            # then halving once the next sweep shows a jump went past the
            # repeats, which is undone). The stop test still decides.
            repeat = pattern is not None and all(
                float(np.linalg.norm(a - b)) <= tol for a, b in zip([x, *steps], [start, *pattern])
            )
            if saved is not None and not repeat:
                (x, corrections, failed), saved = saved, None
                jump, growing, budget = failed // 2, False, budget + failed
                continue
            saved = None
            if repeat and 0 < jump <= budget:
                saved, budget = (x, corrections, jump), budget - jump
                corrections = [c - jump * step for c, step in zip(corrections, pattern)]
                corrections[-1] = z - x - sum(corrections[:-1])  # keeps x + corrections = z
                jump = 2 * jump if growing else jump // 2
            else:
                pattern, tol, jump, growing = steps, 1e-6 * moved, 1, True
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

    def project_rows(self, points: np.ndarray) -> np.ndarray:
        dl = self.learner.dimension
        return np.concatenate([self.learner.project_rows(points[:, :dl]), self.env.project_rows(points[:, dl:])], 1)

    def is_interior(self, point: np.ndarray, margin: float = 1e-9) -> bool:
        theta, env = self.split(point)
        return self.learner.is_interior(theta, margin) and self.env.is_interior(env, margin)

    def bounding_box(self) -> "Box":
        bl, be = self.learner.bounding_box(), self.env.bounding_box()
        return Box(np.concatenate([bl.lower, be.lower]), np.concatenate([bl.upper, be.upper]))


def _clip(z: np.ndarray, lower, upper, out: Optional[np.ndarray] = None) -> np.ndarray:
    """np.clip's bits (-0.0, NaN, inf, lower == upper too), ~3x faster on small arrays."""
    return np.minimum(np.maximum(z, lower, out=out), upper, out=out)


def _boxed(s: ActionSet) -> bool:
    """Whether s is a Box or a Product of Boxes (a module function: a recursive lambda is a reference cycle)."""
    return isinstance(s, Box) or isinstance(s, Product) and _boxed(s.learner) and _boxed(s.env)


def _box_rows(sets: Sequence[ActionSet]) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Stacked (B, d) bounds of B sets, each a Box or a Product of Boxes (else None), made once per set."""
    distinct = {}  # id -> (its row among the distinct sets, set), in one pass
    rows = [distinct.setdefault(id(s), (len(distinct), s))[0] for s in sets]
    if all(_boxed(s) for _, s in distinct.values()):
        boxes = [s.bounding_box() for _, s in distinct.values()]
        return np.stack([b.lower for b in boxes])[rows], np.stack([b.upper for b in boxes])[rows]


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
