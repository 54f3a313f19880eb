"""Deterministic CSV and SVG emission for experiment outputs."""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

SVG_WIDTH = 720
SVG_HEIGHT = 480


def format_float(v: float) -> str:
    return f"{v:.17g}"


def emit_csv(columns: Sequence[str], rows: Iterable[Sequence], path: str) -> None:
    """Write rows under a fixed column order with 17-significant-digit floats."""
    rows = list(rows)
    if not rows:
        raise ValueError("refusing to write an empty CSV")
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match the header")
        lines.append(
            ",".join(
                format_float(v) if isinstance(v, float) else str(v) for v in row
            )
        )
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_svg_plot(
    series: Mapping[str, tuple[Sequence[float], Sequence[float]]],
    path: str,
    title: str,
    log_y: bool = False,
) -> None:
    """Minimal SVG 1.1 line plot (SVG_WIDTH x SVG_HEIGHT): ``title``, axes
    and one polyline per series."""
    import math

    if not series:
        raise ValueError("refusing to plot an empty series map")
    width, height = SVG_WIDTH, SVG_HEIGHT
    margin = 50
    pw, ph = width - 2 * margin, height - 2 * margin

    def ty(v: float) -> float:
        return math.log10(v) if log_y else v

    xs_all = [x for xs, _ in series.values() for x in xs]
    ys_all = [ty(y) for _, ys in series.values() for y in ys if not log_y or y > 0.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(x: float) -> float:
        return margin + pw * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return margin + ph * (1.0 - (y - y_lo) / (y_hi - y_lo))

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    for tick in range(5):
        fx = x_lo + (x_hi - x_lo) * tick / 4
        fy = y_lo + (y_hi - y_lo) * tick / 4
        label_y = f"1e{fy:.2f}" if log_y else f"{fy:.4g}"
        parts.append(
            f'<text x="{px(fx):.1f}" y="{height - margin + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{fx:.4g}</text>'
        )
        parts.append(
            f'<text x="{margin - 6}" y="{py(fy):.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{label_y}</text>'
        )
    for k, (name, (xs, ys)) in enumerate(series.items()):
        pts = " ".join(
            f"{px(x):.2f},{py(ty(y)):.2f}"
            for x, y in zip(xs, ys)
            if not log_y or y > 0.0
        )
        color = palette[k % len(palette)]
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - margin - 4}" y="{margin + 14 + 14 * k}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
