"""Minimal self-contained SVG line plots for the CLI's --emit-plot flag.

Deliberately dependency-free: plots are a convenience for eyeballing CSV
output, never an input to any computation.
"""

from __future__ import annotations

__all__ = ["write_line_plot"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 60
_COLORS = ("#1f5fa8", "#c23b22", "#2e8b57", "#8c5fa8", "#b8860b")


def _ticks(lo: float, hi: float) -> list[float]:
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def write_line_plot(path, series, xlabel: str, ylabel: str, title: str = "") -> None:
    """Write a standalone SVG with one polyline per labeled series.

    `series` maps label -> (xs, ys); axes are scaled to the joint range.
    """
    xs_all = [x for _, (xs, _) in series.items() for x in xs]
    ys_all = [y for _, (_, ys) in series.items() for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - 2 * _MARGIN)

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - 2 * _MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
        f'<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="black"/>',
    ]
    for xt in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{sx(xt):.1f}" y="{_HEIGHT - _MARGIN + 18}" font-size="11" '
            f'text-anchor="middle">{xt:.3g}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{_MARGIN - 8}" y="{sy(yt):.1f}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{yt:.3g}</text>'
        )
    parts.append(
        f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.0f})">{ylabel}</text>'
    )
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.0f}" y="24" font-size="14" '
            f'text-anchor="middle">{title}</text>'
        )
    for i, (label, (xs, ys)) in enumerate(series.items()):
        color = _COLORS[i % len(_COLORS)]
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MARGIN + 16 * i
        parts.append(
            f'<line x1="{_WIDTH - _MARGIN - 110}" y1="{ly}" x2="{_WIDTH - _MARGIN - 86}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 80}" y="{ly + 4}" font-size="11">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
