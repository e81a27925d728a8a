"""The Stackelberg leader's grid and pattern searches; apart from equilibrium.py so each module
stays under 4,096 tokens (see descent.py)."""

from __future__ import annotations

import itertools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .core import _batch_loss
from .sets import ActionSet, Box

BLOCK_CELLS = 4096  # grid rows x follower dimension of one Stackelberg descent; sets memory, never output bits


def grid_points(feasible: ActionSet, resolution: int, box: Optional[Box] = None) -> np.ndarray:
    """Lexicographically ordered mesh over the bounding box, feasibility-filtered."""
    box = box if box is not None else feasible.bounding_box()
    axes = [np.linspace(lo, hi, resolution) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dimension)
    return mesh[feasible.contains_rows(mesh)]


def _blocks(sizes: Sequence[int]) -> list[slice]:
    """Consecutive slices of whole problems, problem k of sizes[k] cells: BLOCK_CELLS cells at
    most (one problem at least). A slice starts where its running total is one size."""
    totals = itertools.accumulate(sizes, lambda cells, size: size if cells + size > BLOCK_CELLS else cells + size)
    starts = [k for k, (total, size) in enumerate(zip(totals, sizes)) if total == size]
    return [slice(a, b) for a, b in zip(starts, [*starts[1:], len(sizes)])]


def _value(loss: Callable, name: str, a: np.ndarray, f: np.ndarray) -> float:
    """The leader loss at one point (a, f), held finite."""
    if not math.isfinite(v := float(loss(a, f))):
        raise FloatingPointError(f"{name} is not finite at a leader grid point")
    return v


def _scan(value: Callable[[int], float], b: float, n: int, batch: Optional[np.ndarray]) -> tuple[int, float]:
    """The last of n rows taken, in order, and its value, or (-1, b): row j replaces the best b
    when value(j) < b - 1e-15. batch[j] (if given) bounds value(j) to 8-16 ulps, and value(j)
    is called only where the bounds do not decide (fl(x - 1e-15) rises with x); if a value
    called lies outside them, or with no batch, every row is."""
    batch, spread = (np.zeros(n), math.inf) if batch is None else (batch, abs(batch * 2.0**-49))
    lo, hi = (batch - spread).tolist(), (batch + spread).tolist()
    win, known, low, high = -1, {}, b, b  # the values called; the bounds of the best's value
    for j in range(len(lo)):
        if hi[j] < low - 1e-15:  # taken, whatever the values
            win, low, high = j, lo[j], hi[j]
        elif lo[j] < high - 1e-15:  # undecided: call the values
            if win >= 0 and win not in known:
                low = high = known[win] = value(win)
            known[j] = v = value(j)
            if v < low - 1e-15:
                win, low, high = j, v, v
    if win >= 0:
        known[win] = known[win] if win in known else value(win)
    if all(lo[j] <= v <= hi[j] for j, v in known.items()):
        return win, known.get(win, b)
    return _scan(value, b, n, None)


def _grid_minimize(
    respond: Callable, loss: Callable, name: str, sets: Sequence[ActionSet], resolution: int, width: int
) -> list:
    """Grid search of each problem's feasible set, refined by two zoom rounds; lexicographically
    first tie-break. The problems run in lockstep, each with its own grid, running argmin and
    zoom box, in _blocks of whole problems, a grid row counting width (the follower's dimension)
    cells: respond(actions, problems) gives the follower's responses to a block's rows (problems
    lists each row's problem), and one call of the leader loss, named name, their values
    (_batch_loss; none after any exception), which _scan reads. Returns each problem's best
    point, its response and its evaluations."""
    outer = [f.bounding_box() for f in sets]
    boxes, live = list(outer), list(range(len(sets)))
    best = [[None, None, math.inf, 0] for _ in sets]  # point, row, value, evaluations
    for _ in range(3):
        grids = [grid_points(sets[k], resolution, boxes[k]) for k in live]
        live, grids = [k for k, g in zip(live, grids) if len(g)], [g for g in grids if len(g)]
        for block in _blocks([len(g) * width for g in grids]):
            actions = np.concatenate(grids[block])
            rows = respond(actions, np.repeat(live[block], [len(g) for g in grids[block]]).tolist())
            try:
                values = _batch_loss(loss, name, actions, rows)
            except Exception:  # a loss written for single points may raise anything on a batch
                values = None
            if values is not None and not np.isfinite(values).all():
                raise FloatingPointError(f"{name} is not finite at a leader grid point")
            for k, pts, end in zip(live[block], grids[block], itertools.accumulate(len(g) for g in grids[block])):
                b, start = best[k], end - len(pts)
                value = lambda j, s=start: _value(loss, name, actions[s + j], rows[s + j])
                j, v = _scan(value, b[2], len(pts), None if values is None else values[start:end])
                if j >= 0:
                    b[:3] = pts[j], rows[start + j].copy(), v  # a view would hold the block's rows
                b[3] += pts.shape[0]
                spacing = (boxes[k].upper - boxes[k].lower) / max(resolution - 1, 1)
                boxes[k] = Box(np.maximum(outer[k].lower, b[0] - spacing), np.minimum(outer[k].upper, b[0] + spacing))
            del rows, values  # freed before the next block's descent
    if any(b[0] is None for b in best):
        raise ValueError("empty grid: feasible set has no grid points")
    return [(point, row, evals) for point, row, _, evals in best]


def _pattern_search(respond: Callable, loss: Callable, name: str, feasible: ActionSet) -> tuple:
    """Compass search with shrinking steps from the bounding box's center, the first a quarter of
    its widest side; local, used beyond grid dimensions. respond(point) is the follower's response
    to one point, and loss(point, response), named name, the leader loss there."""
    box = feasible.bounding_box()
    x = feasible.project((box.lower + box.upper) / 2.0)
    fx = _value(loss, name, x, row := respond(x))
    h = float(np.max(box.upper - box.lower)) / 4.0
    evals, d = 1, x.shape[0]
    for _ in range(10_000):
        improved = False
        for j in range(d):
            for sign in (+1.0, -1.0):
                cand = x.copy()
                cand[j] += sign * h
                cand = feasible.project(cand)
                v = _value(loss, name, cand, response := respond(cand))
                evals += 1
                if v < fx - 1e-15:
                    x, fx, row = cand, v, response
                    improved = True
        if not improved:
            h *= 0.5
            if h < 1e-8:
                break
    return x, row, evals
