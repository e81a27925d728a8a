"""Static SVG 1.1 line/step charts of a table's columns, with no plotting library.

Deterministic text output so identical data produces identical files.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def line_chart(
    header: Sequence[str],
    rows: Sequence[Sequence],
    x: str,
    ys: Sequence[str],
    title: str,
    x_label: str,
    y_label: str,
    step: bool = False,
    markers: bool = False,
    vlines: Sequence[tuple[float, str]] = (),
) -> str:
    """Columns ys of a table against its column x, as one SVG document string.

    Every column is looked up before any row is read, so an unknown column
    raises ValueError even when there are no rows; no rows raise ValueError.
    """
    index = [list(header).index(name) for name in (x, *ys)]
    if len(rows) == 0:
        raise ValueError("no data to plot")
    picked = rows[:, index] if isinstance(rows, np.ndarray) else [[row[j] for j in index] for row in rows]
    data = np.array(picked, dtype=float)
    xs, columns = data[:, 0], data[:, 1:]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(columns.min()), float(columns.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x: float) -> float:
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return MARGIN_T + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out: list[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{title}</text>',
    ]
    # axes and ticks
    out.append(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        out.append(
            f'<line x1="{px(tx):.1f}" y1="{MARGIN_T + plot_h:.1f}" x2="{px(tx):.1f}" '
            f'y2="{MARGIN_T + plot_h + 5:.1f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{px(tx):.1f}" y="{MARGIN_T + plot_h + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        out.append(
            f'<line x1="{MARGIN_L - 5}" y1="{py(ty):.1f}" x2="{MARGIN_L}" y2="{py(ty):.1f}" '
            f'stroke="black"/>'
        )
        out.append(
            f'<text x="{MARGIN_L - 8}" y="{py(ty) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{x_label}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{y_label}</text>'
    )
    for x_pos, color in vlines:
        out.append(
            f'<line x1="{px(x_pos):.1f}" y1="{MARGIN_T}" x2="{px(x_pos):.1f}" '
            f'y2="{MARGIN_T + plot_h}" stroke="{color}" stroke-dasharray="4,3"/>'
        )
    x_px = px(xs)
    for idx, name in enumerate(ys):
        color = PALETTE[idx % len(PALETTE)]
        pts = np.column_stack((x_px, py(columns[:, idx])))
        # a step chart moves to each point's x at the last point's height first
        path = np.column_stack((np.repeat(pts[:, 0], 2)[1:], np.repeat(pts[:, 1], 2)[:-1])) if step else pts
        path = " ".join(["%.2f,%.2f"] * len(path)) % tuple(path.ravel().tolist())
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if markers:
            circle = f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}"/>'
            out.append("\n".join([circle] * len(pts)) % tuple(pts.ravel().tolist()))
        out.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16 + 15 * idx}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
