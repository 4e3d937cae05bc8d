"""Standalone SVG line plots; no plotting dependency.

Output is a deterministic function of the input arrays, so identical
runs write byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")

# Canvas size in pixels.
WIDTH, HEIGHT = 720, 480


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _data_range(curves):
    xs = np.concatenate([np.asarray(c["x"], dtype=float) for c in curves])
    ys = [np.asarray(c["y"], dtype=float) for c in curves]
    for c in curves:
        if c.get("band") is not None:
            lo, hi = c["band"]
            ys.extend([np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)])
    ys = np.concatenate(ys)
    return _padded(xs.min(), xs.max()), _padded(ys.min(), ys.max())


def _padded(lo: float, hi: float) -> tuple[float, float]:
    if hi > lo:
        return float(lo), float(hi)
    pad = max(abs(lo) * 0.05, 0.5)
    return float(lo - pad), float(hi + pad)


class _Frame:
    """Affine map from data coordinates to a pixel rectangle."""

    def __init__(self, xr, yr, px, py, pw, ph):
        self.xr, self.yr = xr, yr
        self.px, self.py, self.pw, self.ph = px, py, pw, ph

    def x(self, v):
        return self.px + (v - self.xr[0]) / (self.xr[1] - self.xr[0]) * self.pw

    def y(self, v):
        return self.py + self.ph - (v - self.yr[0]) / (self.yr[1] - self.yr[0]) * self.ph

    def polyline(self, xs, ys, color, width=1.5):
        pts = " ".join(f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(xs, ys))
        return (f'<polyline fill="none" stroke="{color}" stroke-width="{width}" '
                f'points="{pts}"/>')

    def band(self, xs, lo, hi, color):
        fwd = [f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(xs, lo)]
        back = [f"{_fmt(self.x(a))},{_fmt(self.y(b))}" for a, b in zip(xs[::-1], hi[::-1])]
        return (f'<polygon fill="{color}" fill-opacity="0.15" stroke="none" '
                f'points="{" ".join(fwd + back)}"/>')


def _draw_curves(frame: _Frame, curves) -> list[str]:
    parts = []
    for i, c in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        xs = np.asarray(c["x"], dtype=float)
        ys = np.asarray(c["y"], dtype=float)
        if c.get("band") is not None:
            lo, hi = (np.asarray(v, dtype=float) for v in c["band"])
            parts.append(frame.band(xs, lo, hi, color))
        parts.append(frame.polyline(xs, ys, color))
    return parts


def _axes(frame: _Frame, n_ticks=5, font=11) -> list[str]:
    parts = []
    x0, y0 = frame.px, frame.py
    x1, y1 = frame.px + frame.pw, frame.py + frame.ph
    parts.append(f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(frame.pw)}" '
                 f'height="{_fmt(frame.ph)}" fill="none" stroke="#333333"/>')
    for v in np.linspace(frame.xr[0], frame.xr[1], n_ticks):
        px = frame.x(v)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(y1)}" x2="{_fmt(px)}" '
                     f'y2="{_fmt(y1 + 4)}" stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(px)}" y="{_fmt(y1 + 16)}" font-size="{font}" '
                     f'text-anchor="middle">{v:g}</text>')
    for v in np.linspace(frame.yr[0], frame.yr[1], n_ticks):
        py = frame.y(v)
        parts.append(f'<line x1="{_fmt(x0 - 4)}" y1="{_fmt(py)}" x2="{_fmt(x0)}" '
                     f'y2="{_fmt(py)}" stroke="#333333"/>')
        parts.append(f'<text x="{_fmt(x0 - 7)}" y="{_fmt(py + 4)}" font-size="{font}" '
                     f'text-anchor="end">{v:g}</text>')
    return parts


def line_plot(curves, *, title: str, xlabel: str, ylabel: str,
              inset: tuple[float, float] | None = None) -> str:
    """Render curves (list of {"label", "x", "y", optional "band"}) to SVG.

    ``inset`` zooms the x-window [a, b] into a sub-panel, used to show
    the behavior over a short iteration range; a window in which no
    curve has two points raises :class:`~gemgmm.errors.ValidationError`.
    """
    left, right, top, bottom = 72, 24, 46, 52
    frame = _Frame(*_data_range(curves), left, top, WIDTH - left - right,
                   HEIGHT - top - bottom)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    parts += _axes(frame)
    parts += _draw_curves(frame, curves)
    parts.append(f'<text x="{_fmt(WIDTH / 2)}" y="24" font-size="15" '
                 f'text-anchor="middle">{title}</text>')
    parts.append(f'<text x="{_fmt(left + frame.pw / 2)}" y="{_fmt(HEIGHT - 12)}" '
                 f'font-size="12" text-anchor="middle">{xlabel}</text>')
    cy = top + frame.ph / 2
    parts.append(f'<text x="16" y="{_fmt(cy)}" font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 16 {_fmt(cy)})">{ylabel}</text>')
    for i, c in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        ly = top + 14 + 16 * i
        lx = left + frame.pw - 150
        parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
                     f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-size="11">{c["label"]}</text>')
    if inset is not None:
        parts += _inset_panel(curves, inset, frame)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _inset_panel(curves, window, outer: _Frame) -> list[str]:
    a, b = float(window[0]), float(window[1])
    clipped = []
    for c in curves:
        xs = np.asarray(c["x"], dtype=float)
        keep = (xs >= a) & (xs <= b)
        if np.count_nonzero(keep) >= 2:
            clipped.append({"x": xs[keep], "y": np.asarray(c["y"], dtype=float)[keep]})
    if not clipped:
        last = max(float(np.max(c["x"])) for c in curves)
        raise ValidationError(f"inset window {a:g}:{b:g} holds fewer than two iterations of "
                              f"any curve; the last iteration is {last:g}")
    px = outer.px + outer.pw * 0.46
    py = outer.py + outer.ph * 0.12
    pw, ph = outer.pw * 0.46, outer.ph * 0.40
    frame = _Frame(*_data_range(clipped), px, py, pw, ph)
    parts = [f'<rect x="{_fmt(px)}" y="{_fmt(py)}" width="{_fmt(pw)}" height="{_fmt(ph)}" '
             f'fill="white" stroke="#888888"/>']
    parts += _draw_curves(frame, clipped)
    parts.append(f'<text x="{_fmt(px)}" y="{_fmt(py + ph + 14)}" font-size="10">'
                 f'iterations {a:g} to {b:g}</text>')
    return parts
