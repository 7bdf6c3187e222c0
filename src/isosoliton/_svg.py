"""Static SVG rendering of integrated traces.

Hand rolled rather than delegated to a plotting package so the artifact
bytes are a pure function of the inputs: fixed viewport, fixed float
formatting, no timestamps, no generated ids.  Files are self-contained
(no external assets) and carry the parameters and shape label as text
elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import SolitonParams
from .integrator import Trace
from .phase import _eta_samples, _zeta_samples

OVERLAY_CHOICES = ("eta", "zeta", "R-line")

# viewport
_W = 640.0
_H = 420.0
_ML, _MR, _MT, _MB = 62.0, 16.0, 38.0, 46.0

_CURVE = "#1f6fb4"
_ETA = "#c2442a"
_ZETA = "#2e8b57"
_RLINE = "#777777"
_AXIS = "#222222"
_FONT = 'font-family="Helvetica, Arial, sans-serif"'


@dataclass(frozen=True)
class PlotConfig:
    """Knobs the command line exposes for figure emission.

    ymax of None picks the vertical range from the data (robust quantile
    for the slope-like curves, plain min/max for the height); a given ymax
    must be positive with a finite span 2*ymax.  overlays is a subset of
    OVERLAY_CHOICES.
    """

    ymax: float | None = None
    overlays: tuple[str, ...] = OVERLAY_CHOICES

    def __post_init__(self) -> None:
        bad = [o for o in self.overlays if o not in OVERLAY_CHOICES]
        if bad:
            raise ValueError(f"unknown overlays {bad}; choose from {OVERLAY_CHOICES}")
        if self.ymax is not None and not (self.ymax > 0.0 and math.isfinite(2.0 * self.ymax)):
            raise ValueError(f"ymax must be positive with 2*ymax finite, got {self.ymax}")


def _px(v: float) -> str:
    # 0.01 px is well under 1e-3 plot units at this viewport for every
    # figure we emit, and keeps the files byte-stable.
    return f"{v:.2f}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    span = hi - lo
    if not span > 0.0:
        return [lo]
    raw = span / target
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (mult * mag) <= target:
            step = mult * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks


def _escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _path(x: np.ndarray, y: np.ndarray, cap: float, xmap, ymap,
          breaks: np.ndarray | None = None) -> str:
    """One path datum through the samples (x[i], y[i]).

    Non-finite samples and samples with |y| > cap are dropped.  The pen
    lifts after a dropped sample and before each sample i with breaks[i]
    set.
    """
    keep = np.isfinite(x) & np.isfinite(y) & (np.abs(y) <= cap)
    pen_up = np.ones_like(keep)
    pen_up[1:] = ~keep[:-1]
    if breaks is not None:
        pen_up |= breaks
    # The template repeats _px's rounding, one "%.2f" per coordinate.
    template = "".join(np.where(pen_up[keep], "M%.2f %.2f", "L%.2f %.2f").tolist())
    return template % tuple(np.column_stack((xmap(x[keep]), ymap(y[keep]))).ravel().tolist())


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: str = "1",
          dash: str | None = None) -> str:
    dash_attr = "" if dash is None else f' stroke-dasharray="{dash}"'
    return (f'<line x1="{_px(x1)}" y1="{_px(y1)}" x2="{_px(x2)}" y2="{_px(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"{dash_attr}/>')


def _text(x: str, y: str, size: int, fill: str, body: str, anchor: str | None = None,
          transform: str | None = None) -> str:
    """One text element; x and y come formatted, so a caller can pass a raw
    literal where the figure has always had one."""
    extra = "" if anchor is None else f' text-anchor="{anchor}"'
    if transform is not None:
        extra += f' transform="{transform}"'
    return (f'<text x="{x}" y="{y}" {_FONT} font-size="{size}" fill="{fill}"{extra}>'
            f"{_escape(body)}</text>")


def render_plot(
    title: str,
    ylabel: str,
    curves: list[tuple[str, str, np.ndarray, np.ndarray, np.ndarray | None]],
    vlines: list[tuple[str, float]],
    annotations: list[str],
    xlim: tuple[float, float],
    ylim: tuple[float, float],
) -> str:
    """Assemble one figure over the level r; curves are (label, color, x, y,
    breaks).

    Curve samples with |y| above ten times max |ylim| are dropped; the ones
    a little outside ylim are kept, so a curve visibly runs off the clipped
    box instead of stopping short.
    """
    x0, x1 = xlim
    y0, y1 = ylim
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB
    bottom = _MT + ph
    cap = 10.0 * max(abs(y0), abs(y1))

    def xmap(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def ymap(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    box = f'x="{_px(_ML)}" y="{_px(_MT)}" width="{_px(pw)}" height="{_px(ph)}"'
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
        f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect width="{int(_W)}" height="{int(_H)}" fill="#ffffff"/>',
        f'<clipPath id="plotclip"><rect {box}/></clipPath>',
        f'<rect {box} fill="none" stroke="{_AXIS}" stroke-width="1"/>',
    ]

    # ticks
    for t in _nice_ticks(x0, x1):
        tx = xmap(t)
        out.append(_line(tx, bottom, tx, bottom + 4, _AXIS))
        out.append(_text(_px(tx), _px(bottom + 17), 11, _AXIS, f"{t:g}", "middle"))
    for t in _nice_ticks(y0, y1):
        ty = ymap(t)
        out.append(_line(_ML - 4, ty, _ML, ty, _AXIS))
        out.append(_text(_px(_ML - 7), _px(ty + 3.5), 11, _AXIS, f"{t:g}", "end"))

    # title, axis labels, then the params / shape annotations top right
    mid = _px(_MT + ph / 2)
    out.append(_text(_px(_ML), "22", 15, _AXIS, title))
    out.append(_text(_px(_ML + pw / 2), _px(_H - 10), 12, _AXIS, "r", "middle"))
    out.append(_text("16", mid, 12, _AXIS, ylabel, "middle", f"rotate(-90 16 {mid})"))
    for i, note in enumerate(annotations):
        out.append(_text(_px(_W - _MR), _px(14 + 13 * i), 11, _AXIS, note, "end"))

    out.append('<g clip-path="url(#plotclip)">')
    for label, x in vlines:
        out.append(_line(xmap(x), _MT, xmap(x), bottom, _RLINE, dash="3 3"))
        out.append(_text(_px(xmap(x) + 4), _px(_MT + 12), 10, _RLINE, label))
    for label, color, x, y, breaks in curves:
        dash = "" if label == "trace" else ' stroke-dasharray="5 3"'
        d = _path(x, y, cap, xmap, ymap, breaks)
        if d:
            out.append(
                f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
            )
    out.append("</g>")

    # legend, bottom left inside the box
    legend = [(label, color) for label, color, *_ in curves if label != "trace"]
    for i, (label, color) in enumerate(legend):
        y = bottom - 10 - 14 * (len(legend) - 1 - i)
        out.append(_line(_ML + 8, y - 3.5, _ML + 26, y - 3.5, color, "1.5", "5 3"))
        out.append(_text(_px(_ML + 30), _px(y), 11, color, label))

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _guide(samples: Callable[[SolitonParams, np.ndarray], np.ndarray], p: SolitonParams,
           xlim: tuple[float, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A guide curve on 513 levels inside xlim and (-1, 1), as (r, values,
    breaks); the pen breaks where consecutive levels straddle the r = R pole."""
    lo = max(xlim[0], -1.0 + 1e-9)
    hi = min(xlim[1], 1.0 - 1e-9)
    r = np.linspace(lo, hi, 513) if lo < hi else np.empty(0)
    return r, samples(p, r), np.diff(r < p.R, prepend=False)


def _slope_ylim(values: np.ndarray, ymax: float | None) -> tuple[float, float]:
    if ymax is not None:
        return (-ymax, ymax)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return (-1.0, 1.0)
    q = float(np.quantile(np.abs(finite), 0.9))
    top = min(12.0, max(1.0, 1.5 * q))
    return (-top, top)


def _height_ylim(values: np.ndarray) -> tuple[float, float]:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return (-1.0, 1.0)
    lo = min(float(finite.min()), 0.0)
    hi = max(float(finite.max()), 0.0)
    pad = 0.08 * (hi - lo) + 1e-6
    return (lo - pad, hi + pad)


def trace_figures(
    trace: Trace,
    shape_labels: dict[str, str],
    cfg: PlotConfig = PlotConfig(),
) -> dict[str, str]:
    """The three standard figures for one trace, keyed psi / vprime / v.

    shape_labels carries the per-level type names (or a placeholder when
    classification failed); they land in the top-right annotation block.
    A one-sample trace gets a fixed horizontal range of +-0.01 around it.
    """
    span = float(trace.r[-1] - trace.r[0])
    pad = 0.02 * span if span > 0.0 else 0.01
    xlim = (float(trace.r[0]) - pad, float(trace.r[-1]) + pad)
    p = trace.params
    params_note = f"k={p.k} n={p.n} m1={p.m1} m2={p.m2} R={p.R:g}"
    vlines = [("r=R", p.R)] if "R-line" in cfg.overlays and xlim[0] < p.R < xlim[1] else []

    # key, title, y label, samples, y range and guide (overlay, label, color, sampler)
    rows = [
        ("psi", "psi(r)", "psi", trace.psi, _slope_ylim(trace.psi, cfg.ymax),
         ("eta", "eta guide", _ETA, _eta_samples)),
        ("vprime", "V'(r)", "V'", trace.vprime, _slope_ylim(trace.vprime, cfg.ymax),
         ("zeta", "zeta guide", _ZETA, _zeta_samples)),
        ("v", "V(r)", "V", trace.v, _height_ylim(trace.v), None),
    ]
    figs: dict[str, str] = {}
    for key, title, ylabel, y, ylim, guide in rows:
        curves = [("trace", _CURVE, trace.r, y, None)]
        if guide is not None:
            overlay, label, color, samples = guide
            if overlay in cfg.overlays:
                curves.append((label, color, *_guide(samples, p, xlim)))
        figs[key] = render_plot(title, ylabel, curves, vlines,
                                [params_note, f"type {shape_labels[key]}"], xlim, ylim)
    return figs
