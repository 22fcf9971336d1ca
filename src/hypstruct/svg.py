"""Hand-emitted SVG scatter and Poincare-disk plots (no plotting dependency).

All coordinates are formatted to 6 significant digits, so identical inputs
yield byte-identical documents.  Titles, axis labels and vertex names are
XML-escaped, so any name gives a well-formed document.
"""

from __future__ import annotations

import numpy as np


def _text(s):
    """``s`` as XML character data: ``&``, ``<`` and ``>`` escaped.

    The same replacements as ``xml.sax.saxutils.escape``, without its import
    (which pulls in ``urllib.request``) at the start of every CLI process.
    """
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x):
    return f"{float(x):.6g}"


def _ticks(lo, hi):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, 5)


def scatter_svg(x, y, xlabel, ylabel, title):
    """Scatter plot with axes and tick labels; returns the SVG document."""
    width, height = 480, 360
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    margin = 50
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    x_lo, x_hi = (float(x.min()), float(x.max())) if x.size else (0.0, 1.0)
    y_lo, y_hi = (float(y.min()), float(y.max())) if y.size else (0.0, 1.0)
    x_pad = 0.05 * (x_hi - x_lo or 1.0)
    y_pad = 0.05 * (y_hi - y_lo or 1.0)
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    def sx(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{_text(title)}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 10}" text-anchor="middle" '
        f'font-size="12">{_text(xlabel)}</text>',
        f'<text x="15" y="{height // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 15 {height // 2})">{_text(ylabel)}</text>',
    ]
    for t in _ticks(x_lo + x_pad, x_hi - x_pad):
        px = sx(t)
        parts.append(f'<line x1="{_fmt(px)}" y1="{height - margin}" x2="{_fmt(px)}" '
                     f'y2="{height - margin + 4}" stroke="black"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{height - margin + 16}" '
                     f'text-anchor="middle" font-size="10">{_fmt(t)}</text>')
    for t in _ticks(y_lo + y_pad, y_hi - y_pad):
        py = sy(t)
        parts.append(f'<line x1="{margin - 4}" y1="{_fmt(py)}" x2="{margin}" '
                     f'y2="{_fmt(py)}" stroke="black"/>')
        parts.append(f'<text x="{margin - 6}" y="{_fmt(py + 3)}" text-anchor="end" '
                     f'font-size="10">{_fmt(t)}</text>')
    for xv, yv in zip(x, y):
        parts.append(f'<circle cx="{_fmt(sx(xv))}" cy="{_fmt(sy(yv))}" r="3" '
                     f'fill="steelblue" fill-opacity="0.7"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def disk_svg(named_points, title):
    """Unit-disk plot with labeled points (2-D ball coordinates)."""
    size = 480
    center = size / 2
    radius = size / 2 - 30

    def sx(v):
        return center + v * radius

    def sy(v):
        return center - v * radius

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<text x="{center}" y="18" text-anchor="middle" font-size="14">{_text(title)}</text>',
        f'<circle cx="{center}" cy="{center}" r="{_fmt(radius)}" fill="none" '
        f'stroke="black"/>',
    ]
    for name, xy in named_points:
        x, y = float(xy[0]), float(xy[1])
        parts.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="4" '
                     f'fill="crimson"/>')
        parts.append(f'<text x="{_fmt(sx(x) + 6)}" y="{_fmt(sy(y) - 4)}" '
                     f'font-size="10">{_text(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
