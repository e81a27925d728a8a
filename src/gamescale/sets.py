"""Convex action sets with exact Euclidean projections, and the one projector of a batch of rows onto per-row sets.

A model class is a learner action set, so every solver in the package (best
responses, Nash and PSGD, the grids, the restriction certificate) reaches its
feasible points through the projections here. This module imports no other
gamescale module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

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
        if not (np.isfinite(self.lower).all() and np.isfinite(self.upper).all()):  # __post_init__ rejects NaN
            raise UnboundedSetError("box has an infinite bound")
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
    """Intersection of convex members; projection via Dykstra's algorithm, or a clip onto the
    non-empty interval where every member is a 1-D Box or Halfspace (or such an Intersection)."""

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
        interval = _interval(self)  # ends rounded: crossed ones may hold a point, so the sweeps decide
        if interval is not None and interval[0] <= interval[1]:
            if not math.isfinite(z[0]):
                raise FloatingPointError("non-finite point in the projection onto an interval")
            return _clip(z, *interval)
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
        raise ConvergenceError("Dykstra projection did not converge; intersection may be empty")

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


def _bounds(s: ActionSet) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(lower, upper) of a Box, read from its fields (infinite bounds too), or of a Product of
    Boxes, stacked; None for any other set (a module function: a recursive lambda is a reference cycle)."""
    if isinstance(s, Box):
        return s.lower, s.upper
    if isinstance(s, Product) and (learner := _bounds(s.learner)) is not None and (env := _bounds(s.env)) is not None:
        return np.concatenate([learner[0], env[0]]), np.concatenate([learner[1], env[1]])
    return None


def _interval(s: ActionSet) -> Optional[tuple[float, float]]:
    """(lower, upper) of a 1-D Box, Halfspace or Intersection of them, nested ones too (empty
    where lower > upper); None for any other set."""
    if s.dimension != 1:
        return None
    if isinstance(s, Box):
        return float(s.lower[0]), float(s.upper[0])
    if isinstance(s, Halfspace):
        cut = s.offset / float(s.normal[0])
        return (-math.inf, cut) if s.normal[0] > 0.0 else (cut, math.inf)
    if isinstance(s, Intersection) and None not in (parts := [_interval(m) for m in s.members]):
        return max(lo for lo, _ in parts), min(hi for _, hi in parts)
    return None


def row_projector(sets: Sequence[ActionSet]) -> tuple[Callable[..., np.ndarray], bool]:
    """(project, clips) for a batch whose row i lies on sets[i]. project(z, rows=None) puts row j
    of a (k, d) array z on sets[rows[j]], or on sets[j] if rows is None, in place, and returns z.
    clips is whether every set is a Box or a Product of Boxes: then project clips against the
    sets' bounds, stacked once per distinct set (np.clip's bits); else it projects row by row.
    A clip is ~3x faster in its bounds' layout: column-major, so z F-ordered with rows None (PSGD's
    transposed (d, k) steps); lower[rows] is row-major, so z C-ordered with rows given (descent's).
    No bit depends on z's layout."""
    distinct = dict(zip(map(id, sets), sets))  # id -> set, in order of first row
    bounds = [*map(_bounds, distinct.values())]
    if bounds and all(b is not None for b in bounds):
        row = dict(zip(distinct, range(len(distinct))))  # id -> its row among the distinct sets
        index = [*map(row.__getitem__, map(id, sets))]
        lower, upper = (np.asfortranarray(np.stack(side)[index]) for side in zip(*bounds))

        def clip(z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
            return _clip(z, lower, upper, out=z) if rows is None else _clip(z, lower[rows], upper[rows], out=z)

        return clip, True

    def project(z: np.ndarray, rows: Optional[np.ndarray] = None) -> np.ndarray:
        # a strided row goes contiguous: numpy's dot may sum it in another order than the row alone
        for j, r in enumerate(range(len(z)) if rows is None else rows.tolist()):
            z[j] = sets[r].project(np.ascontiguousarray(z[j]))
        return z

    return project, False


def box_1d(lo: float, hi: float) -> Box:
    return Box(np.array([lo]), np.array([hi]))
