"""Static SVG 1.1 line/step charts with no external dependencies.

Deterministic text output so identical data produces identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Series:
    name: str
    x: Sequence[float]
    y: Sequence[float]
    step: bool = False
    markers: bool = False


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def line_chart(
    series: Sequence[Series],
    title: str,
    x_label: str,
    y_label: str,
    vlines: Optional[Sequence[tuple[float, str]]] = None,
) -> str:
    """Render the series as one SVG document string."""
    xs = [float(v) for s in series for v in s.x]
    ys = [float(v) for s in series for v in s.y]
    if not xs:
        raise ValueError("no data to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
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
    for x_pos, color in vlines or []:
        out.append(
            f'<line x1="{px(x_pos):.1f}" y1="{MARGIN_T}" x2="{px(x_pos):.1f}" '
            f'y2="{MARGIN_T + plot_h}" stroke="{color}" stroke-dasharray="4,3"/>'
        )
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        pts: list[tuple[float, float]] = []
        for i, (x, y) in enumerate(zip(s.x, s.y)):
            if s.step and pts:
                pts.append((float(x), pts[-1][1]))
            pts.append((float(x), float(y)))
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if s.markers:
            for x, y in zip(s.x, s.y):
                out.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>')
        out.append(
            f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16 + 15 * idx}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{s.name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
