"""Minimal static SVG line plots (no plotting dependency).

Each panel draws one or more polylines with axes, ticks and a small legend;
`figure_panels` lays panels out on a grid, mirroring the multi-panel result
displays of the experiments. Curves stay float arrays; only the samples
drawn, about 2000 per curve, are formatted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Panel:
    title: str
    xlabel: str
    ylabel: str
    curves: list[tuple[str, np.ndarray, np.ndarray]] = field(default_factory=list)
    equal_aspect: bool = False

    def add(self, label: str, x, y) -> "Panel":
        self.curves.append((label, np.asarray(x, dtype=float),
                            np.asarray(y, dtype=float)))
        return self


def _range(cols) -> tuple[float, float]:
    """(min, max) over the finite samples of the arrays; (0, 1) if none."""
    v = np.concatenate([c[np.isfinite(c)] for c in cols] + [np.empty(0)])
    return (float(v.min()), float(v.max())) if len(v) else (0.0, 1.0)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-12 * abs(step):
        out.append(0.0 if abs(v) < 1e-12 else v)
        v += step
    return out


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _panel_svg(panel: Panel, ox: float, oy: float, w: float, h: float) -> str:
    m_l, m_r, m_t, m_b = 52.0, 12.0, 26.0, 38.0
    pw, ph = w - m_l - m_r, h - m_t - m_b
    x0, x1 = _range([x for _, x, _ in panel.curves])
    y0, y1 = _range([y for _, _, y in panel.curves])
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 1.0, y1 + 1.0
    padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
    if panel.equal_aspect:
        sx, sy = pw / (x1 - x0), ph / (y1 - y0)
        s = min(sx, sy)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        x0, x1 = cx - 0.5 * pw / s, cx + 0.5 * pw / s
        y0, y1 = cy - 0.5 * ph / s, cy + 0.5 * ph / s

    def tx(v: float) -> float:
        return ox + m_l + (v - x0) / (x1 - x0) * pw

    def ty(v: float) -> float:
        return oy + m_t + ph - (v - y0) / (y1 - y0) * ph

    parts = [f'<rect x="{ox + m_l:.1f}" y="{oy + m_t:.1f}" width="{pw:.1f}" '
             f'height="{ph:.1f}" fill="white" stroke="#444"/>']
    for v in _ticks(x0, x1):
        px = tx(v)
        parts.append(f'<line x1="{px:.1f}" y1="{oy + m_t + ph:.1f}" '
                     f'x2="{px:.1f}" y2="{oy + m_t + ph + 4:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{px:.1f}" y="{oy + m_t + ph + 16:.1f}" '
                     f'text-anchor="middle" font-size="10">{_fmt(v)}</text>')
    for v in _ticks(y0, y1):
        py = ty(v)
        parts.append(f'<line x1="{ox + m_l - 4:.1f}" y1="{py:.1f}" '
                     f'x2="{ox + m_l:.1f}" y2="{py:.1f}" stroke="#444"/>')
        parts.append(f'<text x="{ox + m_l - 7:.1f}" y="{py + 3:.1f}" '
                     f'text-anchor="end" font-size="10">{_fmt(v)}</text>')
    clip_id = f"clip{int(ox)}x{int(oy)}"
    parts.append(f'<clipPath id="{clip_id}"><rect x="{ox + m_l:.1f}" '
                 f'y="{oy + m_t:.1f}" width="{pw:.1f}" height="{ph:.1f}"/></clipPath>')
    for idx, (label, x, y) in enumerate(panel.curves):
        color = PALETTE[idx % len(PALETTE)]
        step = max(1, len(x) // 2000)
        px, py = tx(x[::step]), ty(y[::step])
        ok = np.isfinite(px) & np.isfinite(py)
        pts = " ".join(f"{a:.2f},{b:.2f}"
                       for a, b in zip(px[ok].tolist(), py[ok].tolist()))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2" clip-path="url(#{clip_id})"/>')
        lx = ox + m_l + 8
        lyy = oy + m_t + 14 + 13 * idx
        parts.append(f'<line x1="{lx:.1f}" y1="{lyy - 3:.1f}" x2="{lx + 16:.1f}" '
                     f'y2="{lyy - 3:.1f}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{lx + 20:.1f}" y="{lyy:.1f}" '
                     f'font-size="10">{label}</text>')
    parts.append(f'<text x="{ox + m_l + pw / 2:.1f}" y="{oy + 14:.1f}" '
                 f'text-anchor="middle" font-size="12">{panel.title}</text>')
    parts.append(f'<text x="{ox + m_l + pw / 2:.1f}" y="{oy + h - 4:.1f}" '
                 f'text-anchor="middle" font-size="11">{panel.xlabel}</text>')
    parts.append(f'<text x="{ox + 12:.1f}" y="{oy + m_t + ph / 2:.1f}" '
                 f'text-anchor="middle" font-size="11" transform="rotate(-90 '
                 f'{ox + 12:.1f} {oy + m_t + ph / 2:.1f})">{panel.ylabel}</text>')
    return "\n".join(parts)


def figure_panels(panels: list[Panel], path, columns: int = 2,
                  panel_size: tuple[float, float] = (430.0, 300.0)) -> None:
    """Write a grid of panels as one standalone SVG file."""
    pw, ph = panel_size
    cols = max(1, columns)
    rows = (len(panels) + cols - 1) // cols
    width, height = cols * pw, rows * ph
    body = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
            f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
            f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>']
    for i, panel in enumerate(panels):
        body.append(_panel_svg(panel, (i % cols) * pw, (i // cols) * ph, pw, ph))
    body.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(body) + "\n")
