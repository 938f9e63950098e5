"""Tiny deterministic SVG line plots.

The CSV files are the data of record; these plots exist only for quick
visual inspection, so the writer supports exactly what the figures
need: polylines, circle markers, linear or log axes, tick labels and a
text legend.  Output bytes are a pure function of the inputs.
"""

import math
import sys

import numpy as np

_COLORS = ("#1f6fb4", "#e07b27", "#2e9e4f", "#c23c3c", "#7a5fa8", "#666666")

_WIDTH, _HEIGHT = 720, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 20, 36, 56


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _linear_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    """Multiples k * step of a 1-2-5 step in [lo, hi], at most n + 1."""
    raw = hi / n - lo / n  # no overflow at the ends of the float range
    if not raw >= sys.float_info.min:  # empty, or too narrow for a 1-2-5 step
        return [lo]
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step)
    last = min(math.floor(hi / step + 1e-9), first + n)  # quotients off by ulps
    return [k * step for k in range(first, last + 1)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    lo_e = math.ceil(math.log10(lo) - 1e-9)
    hi_e = math.floor(math.log10(hi) + 1e-9)
    decades = [10.0**e for e in range(lo_e, hi_e + 1)]
    if len(decades) > 12:
        decades = decades[:: math.ceil(len(decades) / 12)]
    return decades or [lo]


def _unit(lo: float, hi: float) -> float:
    """The power of two that values in [lo, hi] are measured in: 4 where an
    end tops a quarter of the float range, so that no difference of two
    of them overflows, else 1, which changes no bit."""
    return 4.0 if max(-lo, hi) > sys.float_info.max / 4 else 1.0


def _pad(lo: float, hi: float) -> tuple[float, float]:
    """[lo, hi] widened on each side, within the float range: by 5 % of its
    span, or for a point by 1, or by 2**-50 of its size past 2**50, so
    that the ends stay apart."""
    unit = _unit(lo, hi)
    pad = 0.05 * (hi / unit - lo / unit) * unit if hi > lo else max(1.0, abs(lo) * 2.0**-50)
    return max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)


class _Axis:
    def __init__(self, lo, hi, pixel_lo, pixel_hi, log):
        if log and lo <= 0:
            raise ValueError("log axis requires positive data")
        self.log = log
        self.lo = math.log10(lo) if log else lo
        self.hi = math.log10(hi) if log else hi
        if self.hi == self.lo:
            self.hi = self.lo + 1.0
        self.unit = _unit(self.lo, self.hi)
        self.lo_units = self.lo / self.unit
        self.span_units = self.hi / self.unit - self.lo_units
        self.pixel_lo, self.pixel_hi = pixel_lo, pixel_hi

    def __call__(self, values):
        v = np.log10(values) if self.log else values
        frac = (v / self.unit - self.lo_units) / self.span_units
        return self.pixel_lo + frac * (self.pixel_hi - self.pixel_lo)


def line_plot(
    path,
    curves,
    xlabel: str = "",
    ylabel: str = "",
    title: str = "",
    xlog: bool = False,
    ylog: bool = False,
) -> None:
    """Write an SVG of the given curves.

    curves: sequence of dicts with keys x (sequence), y (sequence) of the
    same length and optionally label (str) and markers (bool).
    Non-finite and, on log axes, non-positive points are dropped.
    """
    cleaned = []
    for curve in curves:
        x = np.asarray(curve["x"], dtype=float)
        y = np.asarray(curve["y"], dtype=float)
        label = curve.get("label", "")
        if x.shape != y.shape:
            raise ValueError(f"curve {label!r} has {x.size} x values but {y.size} y values")
        keep = np.isfinite(x) & np.isfinite(y) & (not xlog or x > 0) & (not ylog or y > 0)
        if keep.any():
            cleaned.append((x[keep], y[keep], label, curve.get("markers", False)))
    if not cleaned:
        raise ValueError("nothing to plot")

    def extent(i):
        return float(min(c[i].min() for c in cleaned)), float(max(c[i].max() for c in cleaned))

    x_lo, x_hi = extent(0) if xlog else _pad(*extent(0))
    y_lo, y_hi = extent(1) if ylog else _pad(*extent(1))

    x_axis = _Axis(x_lo, x_hi, _MARGIN_L, _WIDTH - _MARGIN_R, xlog)
    y_axis = _Axis(y_lo, y_hi, _HEIGHT - _MARGIN_B, _MARGIN_T, ylog)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{_WIDTH - _MARGIN_L - _MARGIN_R}" '
        f'height="{_HEIGHT - _MARGIN_T - _MARGIN_B}" fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="22" text-anchor="middle" font-size="14">{title}</text>'
        )

    x_ticks = _log_ticks(x_lo, x_hi) if xlog else _linear_ticks(x_lo, x_hi)
    for tick in x_ticks:
        px = x_axis(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_HEIGHT - _MARGIN_B}" x2="{_fmt(px)}" '
            f'y2="{_HEIGHT - _MARGIN_B + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_HEIGHT - _MARGIN_B + 18}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    y_ticks = _log_ticks(y_lo, y_hi) if ylog else _linear_ticks(y_lo, y_hi)
    for tick in y_ticks:
        py = y_axis(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end">{_fmt(tick)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="{_HEIGHT - 14}" text-anchor="middle">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{_HEIGHT / 2}" text-anchor="middle" '
            f'transform="rotate(-90 16 {_HEIGHT / 2})">{ylabel}</text>'
        )

    # memoryview hands the formatting one Python float at a time, so no
    # per-point list or tuple is built
    for index, (x, y, label, markers) in enumerate(cleaned):
        color = _COLORS[index % len(_COLORS)]
        px, py = memoryview(x_axis(x)), memoryview(y_axis(y))
        coords = " ".join(map("{:.6g},{:.6g}".format, px, py))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        if markers:
            circle = f'<circle cx="{{:.6g}}" cy="{{:.6g}}" r="2.2" fill="{color}"/>'
            parts.extend(map(circle.format, px, py))
        if label:
            ly = _MARGIN_T + 16 + 16 * index
            lx = _WIDTH - _MARGIN_R - 150
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            parts.append(f'<text x="{lx + 30}" y="{ly}">{label}</text>')

    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
