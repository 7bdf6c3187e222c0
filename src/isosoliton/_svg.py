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
from functools import partial

import numpy as np

from .catalog import SolitonParams
from .integrator import Trace
from .phase import eta, zeta

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
    for the slope-like curves, plain min/max for the height).  overlays is
    a subset of OVERLAY_CHOICES.
    """

    ymax: float | None = None
    overlays: tuple[str, ...] = OVERLAY_CHOICES

    def __post_init__(self) -> None:
        bad = [o for o in self.overlays if o not in OVERLAY_CHOICES]
        if bad:
            raise ValueError(f"unknown overlays {bad}; choose from {OVERLAY_CHOICES}")
        if self.ymax is not None and not (math.isfinite(self.ymax) and self.ymax > 0.0):
            raise ValueError(f"ymax must be finite and positive, got {self.ymax}")


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


def _path(points: list[tuple[float, float] | None], xmap, ymap) -> str:
    """One path datum; None entries break the polyline into segments."""
    parts: list[str] = []
    pen_up = True
    for pt in points:
        if pt is None:
            pen_up = True
            continue
        cmd = "M" if pen_up else "L"
        parts.append(f"{cmd}{_px(xmap(pt[0]))} {_px(ymap(pt[1]))}")
        pen_up = False
    return "".join(parts)


def render_plot(
    title: str,
    xlabel: str,
    ylabel: str,
    curves: list[tuple[str, str, list[tuple[float, float] | None]]],
    vlines: list[tuple[str, float]],
    annotations: list[str],
    xlim: tuple[float, float],
    ylim: tuple[float, float],
) -> str:
    """Assemble one figure; curves are (label, color, points with gaps)."""
    x0, x1 = xlim
    y0, y1 = ylim
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def xmap(x: float) -> float:
        return _ML + (x - x0) / (x1 - x0) * pw

    def ymap(y: float) -> float:
        return _MT + (y1 - y) / (y1 - y0) * ph

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
        f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">'
    )
    out.append(f'<rect width="{int(_W)}" height="{int(_H)}" fill="#ffffff"/>')
    out.append(
        f'<clipPath id="plotclip"><rect x="{_px(_ML)}" y="{_px(_MT)}" '
        f'width="{_px(pw)}" height="{_px(ph)}"/></clipPath>'
    )

    # axes box and ticks
    out.append(
        f'<rect x="{_px(_ML)}" y="{_px(_MT)}" width="{_px(pw)}" height="{_px(ph)}" '
        f'fill="none" stroke="{_AXIS}" stroke-width="1"/>'
    )
    for t in _nice_ticks(x0, x1):
        tx = xmap(t)
        out.append(
            f'<line x1="{_px(tx)}" y1="{_px(_MT + ph)}" x2="{_px(tx)}" '
            f'y2="{_px(_MT + ph + 4)}" stroke="{_AXIS}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_px(tx)}" y="{_px(_MT + ph + 17)}" {_FONT} font-size="11" '
            f'fill="{_AXIS}" text-anchor="middle">{t:g}</text>'
        )
    for t in _nice_ticks(y0, y1):
        ty = ymap(t)
        out.append(
            f'<line x1="{_px(_ML - 4)}" y1="{_px(ty)}" x2="{_px(_ML)}" '
            f'y2="{_px(ty)}" stroke="{_AXIS}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_px(_ML - 7)}" y="{_px(ty + 3.5)}" {_FONT} font-size="11" '
            f'fill="{_AXIS}" text-anchor="end">{t:g}</text>'
        )

    # titles and axis labels
    out.append(
        f'<text x="{_px(_ML)}" y="22" {_FONT} font-size="15" fill="{_AXIS}">'
        f"{_escape(title)}</text>"
    )
    out.append(
        f'<text x="{_px(_ML + pw / 2)}" y="{_px(_H - 10)}" {_FONT} font-size="12" '
        f'fill="{_AXIS}" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_px(_MT + ph / 2)}" {_FONT} font-size="12" fill="{_AXIS}" '
        f'text-anchor="middle" transform="rotate(-90 16 {_px(_MT + ph / 2)})">'
        f"{_escape(ylabel)}</text>"
    )

    # params / shape annotations, top right
    for i, note in enumerate(annotations):
        out.append(
            f'<text x="{_px(_W - _MR)}" y="{_px(14 + 13 * i)}" {_FONT} font-size="11" '
            f'fill="{_AXIS}" text-anchor="end">{_escape(note)}</text>'
        )

    out.append('<g clip-path="url(#plotclip)">')
    for label, x in vlines:
        out.append(
            f'<line x1="{_px(xmap(x))}" y1="{_px(_MT)}" x2="{_px(xmap(x))}" '
            f'y2="{_px(_MT + ph)}" stroke="{_RLINE}" stroke-width="1" '
            f'stroke-dasharray="3 3"/>'
        )
        out.append(
            f'<text x="{_px(xmap(x) + 4)}" y="{_px(_MT + 12)}" {_FONT} font-size="10" '
            f'fill="{_RLINE}">{_escape(label)}</text>'
        )
    for label, color, points in curves:
        dash = "" if label == "trace" else ' stroke-dasharray="5 3"'
        d = _path(points, xmap, ymap)
        if d:
            out.append(
                f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
            )
    out.append("</g>")

    # legend, bottom left inside the box
    legend = [(label, color) for label, color, _ in curves if label != "trace"]
    for i, (label, color) in enumerate(legend):
        y = _MT + ph - 10 - 14 * (len(legend) - 1 - i)
        out.append(
            f'<line x1="{_px(_ML + 8)}" y1="{_px(y - 3.5)}" x2="{_px(_ML + 26)}" '
            f'y2="{_px(y - 3.5)}" stroke="{color}" stroke-width="1.5" '
            f'stroke-dasharray="5 3"/>'
        )
        out.append(
            f'<text x="{_px(_ML + 30)}" y="{_px(y)}" {_FONT} font-size="11" '
            f'fill="{color}">{_escape(label)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _finite_points(x: np.ndarray, y: np.ndarray, ylim: tuple[float, float]) -> list[tuple[float, float] | None]:
    """Sample pairs with gaps at non-finite or wildly out-of-range values.

    Values a little outside ylim are kept so the curve visibly runs off the
    clipped box instead of stopping short.
    """
    cap = 10.0 * max(abs(ylim[0]), abs(ylim[1]))
    pts: list[tuple[float, float] | None] = []
    for xi, yi in zip(x.tolist(), y.tolist()):
        if not (math.isfinite(xi) and math.isfinite(yi)) or abs(yi) > cap:
            if pts and pts[-1] is not None:
                pts.append(None)
            continue
        pts.append((xi, yi))
    return pts


def _guide_points(
    fn, R: float, xlim: tuple[float, float], ylim: tuple[float, float]
) -> list[tuple[float, float] | None]:
    """Sample a guide curve, breaking at the r = R pole and the domain ends."""
    lo = max(xlim[0], -1.0 + 1e-9)
    hi = min(xlim[1], 1.0 - 1e-9)
    if not lo < hi:
        return []
    rs = np.linspace(lo, hi, 513)
    pts: list[tuple[float, float] | None] = []
    prev_side = None
    for r in rs.tolist():
        side = math.copysign(1.0, r - R)
        if prev_side is not None and side != prev_side and pts and pts[-1] is not None:
            pts.append(None)
        prev_side = side
        v = fn(r, side=side)
        if not math.isfinite(v):
            if pts and pts[-1] is not None:
                pts.append(None)
            continue
        pts.append((r, v))
    return _finite_points(
        np.array([p[0] if p else math.nan for p in pts]),
        np.array([p[1] if p else math.nan for p in pts]),
        ylim,
    )


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
    p: SolitonParams,
    trace: Trace,
    shape_labels: dict[str, str],
    cfg: PlotConfig = PlotConfig(),
) -> dict[str, str]:
    """The three standard figures for one trace, keyed psi / vprime / v.

    shape_labels carries the per-level type names (or a placeholder when
    classification failed); they land in the top-right annotation block.
    """
    span = float(trace.r[-1] - trace.r[0])
    pad = 0.02 * span
    xlim = (float(trace.r[0]) - pad, float(trace.r[-1]) + pad)
    params_note = f"k={p.k} n={p.n} m1={p.m1} m2={p.m2} R={p.R:g}"
    vlines = [("r=R", p.R)] if "R-line" in cfg.overlays and xlim[0] < p.R < xlim[1] else []

    figs: dict[str, str] = {}

    ylim = _slope_ylim(trace.psi, cfg.ymax)
    curves = [("trace", _CURVE, _finite_points(trace.r, trace.psi, ylim))]
    if "eta" in cfg.overlays:
        curves.append(("eta guide", _ETA, _guide_points(partial(eta, p), p.R, xlim, ylim)))
    figs["psi"] = render_plot(
        "psi(r)", "r", "psi", curves, vlines,
        [params_note, f"type {shape_labels['psi']}"], xlim, ylim,
    )

    ylim = _slope_ylim(trace.vprime, cfg.ymax)
    curves = [("trace", _CURVE, _finite_points(trace.r, trace.vprime, ylim))]
    if "zeta" in cfg.overlays:
        curves.append(("zeta guide", _ZETA, _guide_points(partial(zeta, p), p.R, xlim, ylim)))
    figs["vprime"] = render_plot(
        "V'(r)", "r", "V'", curves, vlines,
        [params_note, f"type {shape_labels['vprime']}"], xlim, ylim,
    )

    ylim = _height_ylim(trace.v)
    curves = [("trace", _CURVE, _finite_points(trace.r, trace.v, ylim))]
    figs["v"] = render_plot(
        "V(r)", "r", "V", curves, vlines,
        [params_note, f"type {shape_labels['v']}"], xlim, ylim,
    )
    return figs
