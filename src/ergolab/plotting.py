"""Minimal deterministic SVG emission for complexity curves and orbit
geometries.  Hand-rolled on purpose: the outputs are regression artifacts
and must be byte-identical across runs, which rules out toolkits that
embed versions, ids or timestamps.
"""

from __future__ import annotations

import math

from .errors import PlotDataError

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 20, 20, 50


def _fmt(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


def _log_x(n, n_lo, n_hi):
    span = math.log(n_hi) - math.log(n_lo) if n_hi > n_lo else 1.0
    t = (math.log(n) - math.log(n_lo)) / span
    return _ML + t * (_W - _ML - _MR)


def _lin_y(v, v_lo, v_hi):
    span = v_hi - v_lo if v_hi > v_lo else 1.0
    t = (v - v_lo) / span
    return _H - _MB - t * (_H - _MT - _MB)


def _frame(x_label: str, y_label: str, marks: list) -> str:
    """The SVG document of one plot: canvas, axes and axis labels, then the
    plot's marks."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<text x="{_W // 2}" y="{_H - 12}" text-anchor="middle" '
        f'font-size="13">{x_label}</text>',
        f'<text x="16" y="{_H // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {_H // 2})">{y_label}</text>',
        *marks,
        "</svg>",
    ]
    return "\n".join(parts) + "\n"


def curve_svg(curve) -> str:
    """Standalone SVG for a complexity curve: log-x markers + CI whiskers."""
    points = getattr(curve, "points", None)
    if not points:
        raise PlotDataError("cannot plot an empty curve")
    ns = [p.n for p in points]
    los = [p.k_lo for p in points]
    his = [p.k_hi for p in points]
    n_lo, n_hi = min(ns), max(ns)
    v_lo, v_hi = min(min(los), 0), max(his) * 1.1 + 1
    parts = []
    coords = []
    for p in points:
        x = _log_x(p.n, n_lo, n_hi)
        y = _lin_y(p.k_est, v_lo, v_hi)
        y0 = _lin_y(p.k_lo, v_lo, v_hi)
        y1 = _lin_y(p.k_hi, v_lo, v_hi)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(y0)}" x2="{_fmt(x)}" y2="{_fmt(y1)}" '
            'stroke="steelblue" stroke-width="1.5"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="steelblue"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="11">{p.n}</text>'
        )
        coords.append((x, y))
    if len(coords) > 1:
        path = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in coords)
        parts.insert(0, f'<polyline points="{path}" fill="none" stroke="steelblue"/>')
    return _frame("n (log scale)", "K estimate", parts)


def geometry_svg(geometries) -> str:
    """Covering count vs horizon for a list of OrbitGeometry results."""
    geoms = list(geometries)
    if not geoms:
        raise PlotDataError("cannot plot an empty geometry list")
    ns = [g.horizon for g in geoms]
    ks = [g.covering_count for g in geoms]
    n_lo, n_hi = min(ns), max(ns)
    v_lo, v_hi = 0, max(ks) * 1.1 + 1
    parts = []
    for g in geoms:
        x = _log_x(g.horizon, n_lo, n_hi)
        y = _lin_y(g.covering_count, v_lo, v_hi)
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="darkorange"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_H - _MB + 18}" text-anchor="middle" '
            f'font-size="11">{g.horizon}</text>'
        )
    return _frame("horizon N (log scale)", "covering count", parts)


def emit_plot(data, path) -> str:
    """Write the SVG for a curve or geometry list; returns the path."""
    if hasattr(data, "points"):
        svg = curve_svg(data)
    else:
        svg = geometry_svg(data)
    with open(path, "w") as fh:
        fh.write(svg)
    return str(path)
