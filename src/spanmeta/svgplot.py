"""Minimal SVG scatter plots, written by hand to stay dependency-free.

The output is deterministic: coordinates are formatted to two decimals
and elements appear in input order, so regenerated plots diff cleanly.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["scatter_svg"]

_SIZE = 480
_MARGIN = 52
#: Shared range of both axes, their tick values and the point radius.
_LIMITS = (0.0, 100.0)
_TICKS = (0, 20, 40, 60, 80, 100)
_RADIUS = 3.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def scatter_svg(x: Sequence[float], y: Sequence[float]) -> str:
    """Square scatter plot of actual (x) against predicted (y) F1, both 0-100.

    A dashed identity line marks where the two values agree.
    """
    if len(x) != len(y):
        raise ValueError(f"{len(x)} x values vs {len(y)} y values")
    lo, hi = _LIMITS
    span = hi - lo
    inner = _SIZE - 2 * _MARGIN

    def sx(v: float) -> float:
        return _MARGIN + (v - lo) / span * inner

    def sy(v: float) -> float:
        # SVG y grows downward
        return _SIZE - _MARGIN - (v - lo) / span * inner

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    parts.append(
        f'<text x="{_SIZE / 2:.0f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="15">Held-out prediction of span F1</text>'
    )

    axis = 'stroke="black" stroke-width="1"'
    x0, x1 = sx(lo), sx(hi)
    y0, y1 = sy(lo), sy(hi)
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" {axis}/>')
    parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" {axis}/>')
    for t in _TICKS:
        px, py = sx(t), sy(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y0)}" x2="{_fmt(px)}" y2="{_fmt(y0 + 5)}" {axis}/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(y0 + 19)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
        parts.append(f'<line x1="{_fmt(x0 - 5)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" y2="{_fmt(py)}" {axis}/>')
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_SIZE / 2:.0f}" y="{_SIZE - 10}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">actual F1</text>'
    )
    cx, cy = 16, _SIZE / 2
    parts.append(
        f'<text x="{cx}" y="{cy:.0f}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 {cx} {cy:.0f})">predicted F1</text>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(sy(lo))}" x2="{_fmt(x1)}" '
        f'y2="{_fmt(sy(hi))}" stroke="#888888" stroke-width="1" '
        'stroke-dasharray="5,4"/>'
    )
    for xv, yv in zip(x, y):
        parts.append(
            f'<circle cx="{_fmt(sx(xv))}" cy="{_fmt(sy(yv))}" r="{_RADIUS:g}" '
            'fill="#1f6fb2" fill-opacity="0.45" stroke="none"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
