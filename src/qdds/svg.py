"""Minimal deterministic SVG line plots.

Plots are written directly as SVG text so artifact bytes depend only on
the data passed in: no plotting library, no fonts measured, no
timestamps. Good enough for convergence traces and response curves.
"""

from __future__ import annotations

import math
import sys

from ._atomic import atomic_open

__all__ = ["line_plot"]

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 18, 36, 46
_TICKS = 5
# XML text escapes (xml.sax.saxutils would import urllib.request and ssl)
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_power(exponent: float) -> str:
    """_fmt(10**exponent), also past the largest float (a flat log axis is
    padded by a decade each way)."""
    try:
        return _fmt(10.0**exponent)
    except OverflowError:
        whole = math.floor(exponent)
        return f"{_fmt(10.0 ** (exponent - whole))}e+{whole}"


def _ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / (_TICKS - 1) for i in range(_TICKS)]


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """A flat range padded by 1.0 each way, or by one ulp where rounding
    absorbs 1.0 (past 2**53), kept within the finite floats."""
    if lo != hi:
        return lo, hi
    pad = 1.0 if lo - 1.0 != hi + 1.0 else math.ulp(lo)
    return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)


def line_plot(
    series,
    path,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> None:
    """Write a polyline plot of one or more (xs, ys) series, 640x420 px.

    series is a sequence of (xs, ys) pairs of equal-length sequences.
    With log_y the vertical axis is log10-scaled, and every y must be
    positive.
    """
    series = [(list(xs), list(ys)) for xs, ys in series]
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for xs, ys in series):
        raise ValueError("series must be non-empty (xs, ys) pairs of equal length")

    tf = math.log10 if log_y else (lambda y: y)

    all_x = [x for xs, _ in series for x in xs]
    all_y = [tf(y) for _, ys in series for y in ys]
    x_lo, x_hi = _widen(min(all_x), max(all_x))
    y_lo, y_hi = _widen(min(all_y), max(all_y))

    title, x_label, y_label = (text.translate(_XML_TEXT) for text in (title, x_label, y_label))
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - tf(y)) / (y_hi - y_lo) * plot_h

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        lines.append(
            f'<text x="{_WIDTH / 2:.2f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    if x_label:
        lines.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.2f}" y="{_HEIGHT - 10}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">{x_label}</text>'
        )
    if y_label:
        yc = _MARGIN_T + plot_h / 2
        lines.append(
            f'<text x="16" y="{yc:.2f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="12" transform="rotate(-90 16 {yc:.2f})">{y_label}</text>'
        )

    for tx in _ticks(x_lo, x_hi):
        gx = px(tx)
        lines.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_T + plot_h}" x2="{gx:.2f}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{gx:.2f}" y="{_MARGIN_T + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        gy = _MARGIN_T + (y_hi - ty) / (y_hi - y_lo) * plot_h
        label = _fmt_power(ty) if log_y else _fmt(ty)
        lines.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{gy:.2f}" x2="{_MARGIN_L}" '
            f'y2="{gy:.2f}" stroke="black" stroke-width="1"/>'
        )
        lines.append(
            f'<text x="{_MARGIN_L - 8}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{label}</text>'
        )

    for i, (xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )

    lines.append("</svg>")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
