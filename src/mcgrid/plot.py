"""Conditioning plots rendered directly to SVG.

A labeled value array is laid out as a matrix of panels (one facet variable
across rows, one across columns), with one variable on the x axis and one as
colored series inside each panel.  When a replication dimension remains, each
(x, series) cell shows a Tukey box-and-whisker summary of the replications;
otherwise the series are drawn as lines.  The y scale can be shared globally
(envelope over all panels) or per panel row, linear or log.  A value that
cannot be drawn (non-finite, or non-positive on a log scale) is dropped, and
the number dropped is printed in the top right corner.

The output is pure SVG with a fixed geometry (240x180 px panels): the bytes
are a deterministic function of the input, no external resources are
referenced, and every data mark is clipped to its panel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from xml.sax.saxutils import escape

import numpy as np

from .analysis import LabeledArray, finite_groups

__all__ = ["PlotSpec", "BoxStats", "boxplot_stats", "mayplot_svg"]

PANEL_W = 240.0
PANEL_H = 180.0
GAP = 8.0
MARGIN_L = 64.0
MARGIN_R = 8.0
MARGIN_T = 12.0
MARGIN_B = 50.0
STRIP = 20.0
LEGEND_H = 30.0

PALETTE = ("#F8766D", "#7CAE00", "#00BFC4", "#C77CFF",
           "#FF61CC", "#00A9FF", "#CD9600", "#7F7F7F")

PANEL_BG = "#EBEBEB"
STRIP_BG = "#D9D9D9"
GRID_COL = "#FFFFFF"


@dataclass(frozen=True)
class BoxStats:
    """Tukey five-number box summary with explicit outliers.

    Quartiles are type-7 interpolation quantiles; whiskers extend to the
    furthest data point within 1.5 IQR of the box."""

    median: float
    q1: float
    q3: float
    whisker_lo: float
    whisker_hi: float
    outliers: tuple[float, ...]


def boxplot_stats(values):
    """Box summary of a sample's finite values; a 2-D argument gives a list
    with one ``BoxStats`` per row, None for a row with no finite value."""
    x = np.asarray(values, dtype=float)
    out: list[BoxStats | None] = [None] * len(np.atleast_2d(x))
    for rows, v in finite_groups(np.atleast_2d(x)):
        q1, med, q3 = np.quantile(v, [0.25, 0.5, 0.75], axis=1)  # numpy default = type 7
        iqr = q3 - q1
        inside = (v >= (q1 - 1.5 * iqr)[:, None]) & (v <= (q3 + 1.5 * iqr)[:, None])
        wlo = np.where(inside, v, np.inf).min(axis=1)
        whi = np.where(inside, v, -np.inf).max(axis=1)
        v = np.sort(v, axis=1)
        outer = (v < wlo[:, None]) | (v > whi[:, None])
        outliers = np.split(v[outer], np.cumsum(outer.sum(axis=1))[:-1])
        for i, *st, o in zip(rows.tolist(), med.tolist(), q1.tolist(), q3.tolist(),
                             wlo.tolist(), whi.tolist(), outliers):
            out[i] = BoxStats(*st, tuple(o.tolist()))
    if x.ndim == 1 and out[0] is None:
        raise ValueError("no finite values")
    return out if x.ndim > 1 else out[0]


@dataclass(frozen=True)
class PlotSpec:
    """Layout request: which dims go where, and the y-scale policy."""

    x: str
    series: str | None = None
    rows: str | None = None
    cols: str | None = None
    ylim: str = "global"          # "global" | "local" (per panel row)
    log_y: bool = False
    panel_kind: str = "auto"      # "auto" | "box" | "line"
    ylab: str = "value"


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _tick_label(v: float) -> str:
    return f"{v:.6g}"


def _pretty_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    span = hi - lo
    if not (span > 0 and math.isfinite(span)):
        return [lo]
    raw = span / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10 * mag
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[tuple[float, str]]:
    """Ticks in log10 space: decades, densified with 2/5 mantissas if few."""
    decades = [k for k in range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)]
    if len(decades) >= 2:
        return [(float(k), _tick_label(10.0 ** k)) for k in decades]
    ticks = []
    for k in range(math.floor(lo) - 1, math.ceil(hi) + 1):
        for m in (1.0, 2.0, 5.0):
            t = k + math.log10(m)
            if lo - 1e-9 <= t <= hi + 1e-9:
                ticks.append((t, _tick_label(m * 10.0 ** k)))
    return ticks


class _Svg:
    def __init__(self):
        self.parts: list[str] = []

    def add(self, s: str):
        self.parts.append(s)

    def rect(self, x, y, w, h, fill, stroke="none", extra=""):
        self.add(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                 f'height="{_fmt(h)}" fill="{fill}" stroke="{stroke}"{extra}/>')

    def line(self, x1, y1, x2, y2, stroke, width=1.0, extra=""):
        self.add(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                 f'y2="{_fmt(y2)}" stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>')

    def circle(self, cx, cy, r, fill, extra=""):
        self.add(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                 f'fill="{fill}"{extra}/>')

    def text(self, x, y, s, size=11.0, anchor="middle", rotate=None, fill="#000000"):
        transform = f' transform="rotate({rotate} {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.add(f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{_fmt(size)}" '
                 f'font-family="sans-serif" text-anchor="{anchor}" '
                 f'fill="{fill}"{transform}>{escape(str(s))}</text>')


def mayplot_svg(arr: LabeledArray, spec: PlotSpec) -> str:
    """Render the conditioning plot; returns the SVG document as a string."""
    names = list(arr.dim_names)
    for role, var in (("x", spec.x), ("series", spec.series),
                      ("rows", spec.rows), ("cols", spec.cols)):
        if var is not None and var not in names:
            raise KeyError(f"{role} variable {var!r} not among dims {tuple(names)}")
    chosen = [v for v in (spec.x, spec.series, spec.rows, spec.cols) if v is not None]
    if len(set(chosen)) != len(chosen):
        raise ValueError("plot variables must be distinct")
    leftover = [n for n in names if n not in chosen]
    if len(leftover) > 1:
        raise ValueError(f"more than one unassigned dim: {leftover}; slice first")
    rep_name = leftover[0] if leftover else None

    kind = spec.panel_kind
    if kind == "auto":
        kind = "box" if rep_name else "line"
    if kind == "box" and rep_name is None:
        raise ValueError("box panels need a replication dimension")
    if spec.ylim not in ("global", "local"):
        raise ValueError("ylim must be 'global' or 'local'")

    row_labels = list(arr.labels(spec.rows)) if spec.rows else [None]
    col_labels = list(arr.labels(spec.cols)) if spec.cols else [None]
    x_labels = list(arr.labels(spec.x))
    series_labels = list(arr.labels(spec.series)) if spec.series else [None]
    n_rows, n_cols = len(row_labels), len(col_labels)
    nx, ns = len(x_labels), len(series_labels)
    n_rep = len(arr.labels(rep_name)) if rep_name else 1

    # rows, cols, x, series, replications: C order over the moved axes is the
    # panel layout, and the reshape puts a length-1 axis where a role is unset
    roles = (spec.rows, spec.cols, spec.x, spec.series, rep_name)
    data = np.transpose(arr.data, [arr.axis(v) for v in roles if v is not None])
    data = data.reshape(n_rows, n_cols, nx, ns, n_rep).astype(float)
    # plotted values, with NaN for every value that cannot be drawn
    if spec.log_y:
        data[data <= 0] = np.nan
        np.log10(data, out=data)
    data[~np.isfinite(data)] = np.nan
    dropped = int(np.isnan(data).sum())

    def y_range(values: np.ndarray) -> tuple[float, float]:
        if np.isnan(values).all():
            return (0.0, 1.0)
        lo, hi = float(np.nanmin(values)), float(np.nanmax(values))
        if lo == hi:
            pad = max(abs(lo) * 0.04, 0.5)
        else:
            pad = (hi - lo) * 0.04
        return lo - pad, hi + pad

    if spec.ylim == "global":
        row_ranges = [y_range(data)] * n_rows
    else:
        row_ranges = [y_range(data[r]) for r in range(n_rows)]

    has_col_strip = spec.cols is not None
    has_row_strip = spec.rows is not None
    has_rep_strip = rep_name is not None
    has_legend = spec.series is not None

    grid_w = n_cols * PANEL_W + (n_cols - 1) * GAP
    grid_h = n_rows * PANEL_H + (n_rows - 1) * GAP
    top = MARGIN_T + (STRIP if has_col_strip else 0.0)
    width = (MARGIN_L + grid_w + (STRIP if has_row_strip else 0.0)
             + (STRIP if has_rep_strip else 0.0) + MARGIN_R)
    height = top + grid_h + MARGIN_B + (LEGEND_H if has_legend else 0.0)

    svg = _Svg()
    svg.add(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    svg.rect(0, 0, width, height, "#FFFFFF")

    def panel_origin(r, c) -> tuple[float, float]:
        return (MARGIN_L + c * (PANEL_W + GAP), top + r * (PANEL_H + GAP))

    def y_px(r: int, value: float) -> float:
        lo, hi = row_ranges[r]
        frac = (value - lo) / (hi - lo) if hi > lo else 0.5
        return PANEL_H * (1.0 - frac)

    def x_px(xi: int) -> float:
        return PANEL_W * (xi + 0.5) / nx

    # clip paths
    svg.add("<defs>")
    for r in range(n_rows):
        for c in range(n_cols):
            px, py = panel_origin(r, c)
            svg.add(f'<clipPath id="panel-{r}-{c}">'
                    f'<rect x="{_fmt(px)}" y="{_fmt(py)}" '
                    f'width="{_fmt(PANEL_W)}" height="{_fmt(PANEL_H)}"/></clipPath>')
    svg.add("</defs>")

    for r in range(n_rows):
        lo, hi = row_ranges[r]
        ticks = (_log_ticks(lo, hi) if spec.log_y
                 else [(t, _tick_label(t)) for t in _pretty_ticks(lo, hi)])
        for c in range(n_cols):
            px, py = panel_origin(r, c)
            svg.rect(px, py, PANEL_W, PANEL_H, PANEL_BG,
                     extra=f' id="bg-{r}-{c}"')
            for t, _lab in ticks:
                if lo <= t <= hi:
                    svg.line(px, py + y_px(r, t), px + PANEL_W, py + y_px(r, t),
                             GRID_COL, 1.0)
            for xi in range(nx):
                svg.line(px + x_px(xi), py, px + x_px(xi), py + PANEL_H,
                         GRID_COL, 0.5)

            svg.add(f'<g clip-path="url(#panel-{r}-{c})">')
            panel = data[r, c]
            if kind == "box":
                slot_w = PANEL_W / nx
                group_w = slot_w * 0.8
                bw = group_w / ns * 0.85
                boxes = boxplot_stats(panel.reshape(nx * ns, n_rep))
                for xi in range(nx):
                    for si in range(ns):
                        st = boxes[xi * ns + si]
                        if st is None:
                            continue
                        color = PALETTE[si % len(PALETTE)]
                        cx = (px + slot_w * xi + slot_w * 0.1
                              + group_w * (si + 0.5) / ns)
                        x0 = cx - bw / 2
                        y_q1 = py + y_px(r, st.q1)
                        y_q3 = py + y_px(r, st.q3)
                        y_med = py + y_px(r, st.median)
                        y_wlo = py + y_px(r, st.whisker_lo)
                        y_whi = py + y_px(r, st.whisker_hi)
                        svg.line(cx, y_whi, cx, y_q3, color, 1.0,
                                 extra=' class="data"')
                        svg.line(cx, y_q1, cx, y_wlo, color, 1.0,
                                 extra=' class="data"')
                        svg.line(x0, y_whi, x0 + bw, y_whi, color, 1.0,
                                 extra=' class="data"')
                        svg.line(x0, y_wlo, x0 + bw, y_wlo, color, 1.0,
                                 extra=' class="data"')
                        svg.add(f'<rect x="{_fmt(x0)}" y="{_fmt(y_q3)}" '
                                f'width="{_fmt(bw)}" height="{_fmt(max(y_q1 - y_q3, 0.0))}" '
                                f'fill="{color}" fill-opacity="0.4" '
                                f'stroke="{color}" class="data"/>')
                        svg.line(x0, y_med, x0 + bw, y_med, color, 2.0,
                                 extra=' class="data"')
                        for out in st.outliers:
                            svg.circle(cx, py + y_px(r, out), 2.0, color,
                                       extra=' class="data"')
            else:
                for si in range(ns):
                    color = PALETTE[si % len(PALETTE)]
                    pts = []
                    for xi in range(nx):
                        vals = panel[xi, si]
                        kept = vals[~np.isnan(vals)]
                        if kept.size:
                            pts.append((px + x_px(xi), py + y_px(r, float(kept[0]))))
                    if len(pts) > 1:
                        path = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in pts)
                        svg.add(f'<polyline points="{path}" fill="none" '
                                f'stroke="{color}" stroke-width="1.5" class="data"/>')
                    for a, b in pts:
                        svg.circle(a, b, 2.5, color, extra=' class="data"')
            svg.add("</g>")

            if r == 0 and has_col_strip:
                svg.rect(px, py - STRIP, PANEL_W, STRIP - 2, STRIP_BG)
                svg.text(px + PANEL_W / 2, py - STRIP / 2 + 3,
                         f"{spec.cols} = {col_labels[c]}", size=11)
            if c == n_cols - 1 and has_row_strip:
                sx = px + PANEL_W + 2
                svg.rect(sx, py, STRIP - 2, PANEL_H, STRIP_BG)
                svg.text(sx + STRIP / 2 - 2, py + PANEL_H / 2,
                         f"{spec.rows} = {row_labels[r]}", size=11, rotate=90)
            if r == n_rows - 1:
                for xi in range(nx):
                    svg.text(px + x_px(xi), py + PANEL_H + 14, x_labels[xi], size=11)
        # y tick labels on the left edge
        px0, py0 = panel_origin(r, 0)
        for t, lab in ticks:
            if lo <= t <= hi:
                svg.text(px0 - 6, py0 + y_px(r, t) + 4, lab, size=10, anchor="end")

    if has_rep_strip:
        sx = MARGIN_L + grid_w + (STRIP if has_row_strip else 0.0) + 2
        svg.rect(sx, top, STRIP - 2, grid_h, STRIP_BG)
        svg.text(sx + STRIP / 2 - 2, top + grid_h / 2,
                 f"{rep_name} = {n_rep}", size=11, rotate=90)

    svg.text(MARGIN_L + grid_w / 2, top + grid_h + 32, spec.x, size=12)
    svg.text(16, top + grid_h / 2, spec.ylab, size=12, rotate=-90)

    if has_legend:
        ly = height - LEGEND_H / 2
        item_w = 70.0
        total = ns * item_w
        lx = MARGIN_L + (grid_w - total) / 2
        svg.text(lx - 8, ly + 4, f"{spec.series}:", size=11, anchor="end")
        for si in range(ns):
            color = PALETTE[si % len(PALETTE)]
            bx = lx + si * item_w
            svg.rect(bx, ly - 5, 12, 10, color)
            svg.text(bx + 18, ly + 4, series_labels[si], size=11, anchor="start")

    if dropped:
        svg.text(width - MARGIN_R, 10, f"dropped: {dropped}", size=9, anchor="end")

    svg.add("</svg>")
    return "\n".join(svg.parts) + "\n"
