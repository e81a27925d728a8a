"""Batched projected-gradient descent under every best response and Nash solve, and the
check that holds a batch oracle to the single-point bits; apart from equilibrium.py so each
module stays under 4,096 tokens, past which CPython's parser doubles its token array and
the import's memory peak grows."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import _finite
from .sets import ActionSet, ConvergenceError, _row_norms, row_projector


def natural_residuals(x: np.ndarray, project: Callable[[np.ndarray], np.ndarray], g: np.ndarray) -> np.ndarray:
    """Unit-step natural residual |x - P(x - g)| of each row, P = project; zero
    exactly where the row is a fixed point of the projected-gradient step."""
    return _row_norms(x - project(x - g))


def _projected_descent(
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray], sets: ActionSet | Sequence[ActionSet], x0: np.ndarray,
    step: float, adaptive: bool, tol: float, max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Projected gradient descent of each row of x0 along its own gradient, on
    its own set, to unit-step natural residual <= tol. sets is one set for all
    rows or one per row, projected by sets.row_projector. Each iteration makes
    one call grad(x, rows) for the (len(rows), d) gradients at the active rows
    x of x0.

    With adaptive=False every step is `step`. With adaptive=True (each row's
    gradient must be that of a convex function) `step` = 1/L is only the first
    step; later ones follow Malitsky & Mishchenko, "Adaptive Gradient Descent
    without Descent" (ICML 2020): the smaller of sqrt(1 + theta) times the last
    step (theta the ratio of the last two steps) and |dx| / (2 |dg|), the
    inverse local curvature along the last move; 1/L where the gradient did
    not change.

    Each iteration projects once. |x - P(x - t g)| is nondecreasing in t and
    |x - P(x - t g)| / t is nonincreasing, so min(1, 1/step) |x - x_next|
    bounds the unit-step residual from below; the residual (a second
    projection) is evaluated only when that bound reaches tol.

    Rows share no state: each keeps its own step and stops on its own test,
    and a stopped row leaves the batch, so every row ends bit for bit where it
    would alone. Returns the final points, iteration counts and residuals by
    row; raises FloatingPointError at the first gradient that is not finite,
    and ConvergenceError if a row is still running after max_iters.
    """
    project = row_projector([sets] * len(x0) if isinstance(sets, ActionSet) else sets)[0]  # in place
    rows = np.arange(len(x0))  # the rows of x0 that x holds
    x = project(np.array(x0, dtype=float), rows)
    n = x.shape[0]
    points, iters, residuals = np.empty_like(x), np.zeros(n, dtype=int), np.empty(n)
    lam, theta = np.full(n, step), np.full(n, math.inf)
    for it in range(1, max_iters + 1):
        if rows.size == 0:
            break
        g = _finite(grad(x, rows))
        if adaptive and it > 1:
            dg = _row_norms(g - g_prev)
            curvature_step = np.divide(np.sqrt(dx2), 2.0 * dg, out=np.full(rows.size, step), where=dg > 0.0)
            lam, lam_prev = np.minimum(np.sqrt(1.0 + theta) * lam, curvature_step), lam
            theta = lam / lam_prev
            del dg, curvature_step, lam_prev  # row arrays kept past their use raise a large block's peak
        x_next = project(x - lam[:, None] * g, rows)
        d = x - x_next
        dx2 = np.vecdot(d, d)
        del d
        near = np.flatnonzero(np.minimum(1.0, 1.0 / lam) * np.sqrt(dx2) <= tol * (1.0 + 1e-9))
        if near.size:
            residual = natural_residuals(x[near], lambda z: project(z, rows[near]), g[near])
            stop = residual <= tol
            done = near[stop]
            finished = rows[done]
            points[finished], iters[finished], residuals[finished] = x[done], it, residual[stop]
            keep = np.ones(rows.size, dtype=bool)
            keep[done] = False
            rows, x_next, g = rows[keep], x_next[keep], g[keep]  # three at a time, for the peak
            lam, theta, dx2 = lam[keep], theta[keep], dx2[keep]
        x, g_prev = x_next, g
    if rows.size:
        raise ConvergenceError(f"projected descent: residual > {tol} after {max_iters} iterations")
    return points, iters, residuals


def _single_point_checked(solve: Callable, batch: Callable, per_row: Callable) -> tuple:
    """solve(batch), kept if every row has per_row's single-point bits at the first moved
    iterate (iteration 2, or 1 for a row that stopped there); else, or if a batch call raises
    (a missing oracle does at once), solve(per_row). Solver errors of solve(batch) propagate."""
    seen = []  # the batch gradients of iteration 1 (row i is row i of x0), then None once 2 is checked

    def checked(x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        g = batch(x, rows)
        if len(seen) < 2:
            if seen and g.tobytes() != per_row(x, rows).tobytes():
                raise ValueError("batch gradients differ from the single-point ones")
            seen.append(None if seen else g)
        return g

    try:
        points, iters, residuals = solve(checked)
        stopped = np.flatnonzero(iters == 1)
        if seen[0][stopped].tobytes() == per_row(points[stopped], stopped).tobytes():
            return points, iters, residuals
    except (ConvergenceError, FloatingPointError):
        raise
    except Exception:
        pass  # an oracle written for single points may raise anything on a batch
    return solve(per_row)
