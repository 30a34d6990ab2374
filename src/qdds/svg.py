"""Minimal deterministic SVG line plots, rendered as text.

Plots are built directly as SVG text so artifact bytes depend only on
the data passed in: no plotting library, no fonts measured, no
timestamps. Good enough for convergence traces and response curves.
This module does no file I/O; the harness writes the text it returns.
"""

from __future__ import annotations

import math
import sys

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
    """A flat range padded by 1.0 each way, or by two ulps from 2**52 on so its
    quarter-span ticks stay distinct; at either end of the finite floats both
    pads go inward."""
    if lo != hi:
        return lo, hi
    pad = max(1.0, 2.0 * math.ulp(lo))
    if hi + pad > sys.float_info.max:
        return lo - 2.0 * pad, hi
    if lo - pad < -sys.float_info.max:
        return lo, hi + 2.0 * pad
    return lo - pad, hi + pad


def _text(x, y, body: str, size: int, anchor: str = "middle", extra: str = "") -> str:
    """A sans-serif <text> element; x and y are written as given."""
    return (
        f'<text x="{x}" y="{y}" text-anchor="{anchor}" font-family="sans-serif" '
        f'font-size="{size}"{extra}>{body}</text>'
    )


def _tick(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="black" stroke-width="1"/>'


def line_plot(
    series,
    *,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    log_y: bool = False,
) -> str:
    """SVG text of a polyline plot of one or more (xs, ys) series, 640x420 px.

    series is a sequence of (xs, ys) pairs of equal-length sequences.
    With log_y the vertical axis is log10-scaled, and every y must be
    positive. A coordinate that is not finite, or an axis span wider
    than the largest float, raises ValueError.
    """
    series = [(list(xs), list(ys)) for xs, ys in series]
    if not series or any(len(xs) == 0 or len(xs) != len(ys) for xs, ys in series):
        raise ValueError("series must be non-empty (xs, ys) pairs of equal length")

    tf = math.log10 if log_y else (lambda y: y)

    all_x = [x for xs, _ in series for x in xs]
    all_y = [tf(y) for _, ys in series for y in ys]
    if not all(map(math.isfinite, all_x + all_y)):
        raise ValueError("plotted coordinates must be finite")
    x_lo, x_hi = _widen(min(all_x), max(all_x))
    y_lo, y_hi = _widen(min(all_y), max(all_y))
    if not (math.isfinite(x_hi - x_lo) and math.isfinite(y_hi - y_lo)):
        raise ValueError("plot axis span overflows the float range")

    # non-ASCII characters become character references, so the SVG is ASCII
    title, x_label, y_label = (
        text.translate(_XML_TEXT).encode("ascii", "xmlcharrefreplace").decode()
        for text in (title, x_label, y_label)
    )
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(ty: float) -> float:  # ty is on the axis scale, tf already applied
        return _MARGIN_T + (y_hi - ty) / (y_hi - y_lo) * plot_h

    bottom = _MARGIN_T + plot_h
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]
    if title:
        lines.append(_text(f"{_WIDTH / 2:.2f}", 22, title, 14))
    if x_label:
        lines.append(_text(f"{_MARGIN_L + plot_w / 2:.2f}", _HEIGHT - 10, x_label, 12))
    if y_label:
        yc = f"{_MARGIN_T + plot_h / 2:.2f}"
        lines.append(_text(16, yc, y_label, 12, extra=f' transform="rotate(-90 16 {yc})"'))

    for tx in _ticks(x_lo, x_hi):
        gx = f"{px(tx):.2f}"
        lines += [_tick(gx, bottom, gx, bottom + 5), _text(gx, bottom + 18, _fmt(tx), 11)]
    for ty in _ticks(y_lo, y_hi):
        gy = py(ty)
        label = _fmt_power(ty) if log_y else _fmt(ty)
        lines.append(_tick(_MARGIN_L - 5, f"{gy:.2f}", _MARGIN_L, f"{gy:.2f}"))
        lines.append(_text(_MARGIN_L - 8, f"{gy + 4:.2f}", label, 11, anchor="end"))

    for i, (xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(tf(y)):.2f}" for x, y in zip(xs, ys))
        lines.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
