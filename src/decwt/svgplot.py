"""Standalone deterministic SVG polyline plots.

No plotting dependency: curves are mapped to a fixed viewport with 1-2-5
linear ticks or decade ticks on log axes, a legend, and the plotted series
embedded as XML comments so every figure carries its own data. The output is
a pure function of the inputs; identical calls produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import atomic_open

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 640, 440


@dataclass(frozen=True)
class Curve:
    label: str
    x: tuple
    y: tuple
    dash: str = ""

    @staticmethod
    def of(label, x, y, dash=""):
        return Curve(label, tuple(float(v) for v in x),
                     tuple(float(v) for v in y), dash)


def ticks_125(lo: float, hi: float) -> list[float]:
    """At most six tick positions on a 1-2-5 ladder covering [lo, hi]."""
    if not (hi > lo):
        hi = lo + 1.0
    raw = (hi - lo) / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if (hi - lo) / step <= 6:
            break
    first = math.ceil(lo / step - 1e-9)
    out = []
    k = first
    while k * step <= hi + 1e-9 * step:
        v = k * step
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        k += 1
    return out


def ticks_decades(lo: float, hi: float) -> list[float]:
    """Powers of ten inside [lo, hi]; lo, hi > 0."""
    first = math.ceil(math.log10(lo) - 1e-9)
    last = math.floor(math.log10(hi) + 1e-9)
    return [10.0 ** k for k in range(first, last + 1)]


def _fmt_tick(v: float) -> str:
    if v != 0.0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        exp = math.floor(math.log10(abs(v)))
        mant = v / 10.0 ** exp
        if abs(mant - 1.0) < 1e-9:
            return f"1e{exp}"
        return f"{mant:g}e{exp}"
    return f"{v:g}"


def _esc(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;"))


def _comment_safe(text: str) -> str:
    # XML comments cannot contain "--"
    while "--" in text:
        text = text.replace("--", "-")
    return text


def render_plot(
    curves: list[Curve],
    title: str,
    xlabel: str,
    ylabel: str,
    provenance: str,
    ylog: bool = False,
) -> str:
    """Linear x axis; a log y axis when ylog, which drops points with y <= 0
    from the polylines (the embedded data keeps every point)."""
    pad_l, pad_r, pad_t, pad_b = 64, 16, 36, 46
    plot_w = WIDTH - pad_l - pad_r
    plot_h = HEIGHT - pad_t - pad_b

    def finite_pairs(c: Curve):
        for xv, yv in zip(c.x, c.y):
            if not (math.isfinite(xv) and math.isfinite(yv)):
                continue
            if ylog and yv <= 0.0:
                continue
            yield xv, yv

    xs = [v for c in curves for v, _ in finite_pairs(c)]
    ys = [v for c in curves for _, v in finite_pairs(c)]
    if not xs:
        raise ValueError("nothing to plot: no finite (and log-positive) points")

    def bounds(vals, log):
        lo, hi = min(vals), max(vals)
        if log:
            if hi / lo < 10.0 ** 0.5:
                lo, hi = lo / 1.5, hi * 1.5
            return lo, hi
        if hi == lo:
            return lo - 0.5, hi + 0.5
        margin = 0.04 * (hi - lo)
        return lo - margin, hi + margin

    x_lo, x_hi = bounds(xs, False)
    y_lo, y_hi = bounds(ys, ylog)

    def to_px(xv, yv):
        fx = (xv - x_lo) / (x_hi - x_lo)
        if ylog:
            fy = (math.log10(yv) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo))
        else:
            fy = (yv - y_lo) / (y_hi - y_lo)
        return pad_l + fx * plot_w, pad_t + (1.0 - fy) * plot_h

    x_ticks = ticks_125(x_lo, x_hi)
    y_ticks = ticks_decades(y_lo, y_hi) if ylog else ticks_125(y_lo, y_hi)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    parts.append(f"<!-- {_comment_safe(provenance)} -->")
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(
        f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{_esc(title)}</text>'
    )

    # frame
    parts.append(
        f'<rect x="{pad_l}" y="{pad_t}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )

    for tv in x_ticks:
        px, _ = to_px(tv, y_hi)
        parts.append(
            f'<line x1="{px:.2f}" y1="{pad_t + plot_h}" x2="{px:.2f}" '
            f'y2="{pad_t + plot_h + 5}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{px:.2f}" y1="{pad_t}" x2="{px:.2f}" y2="{pad_t + plot_h}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{pad_t + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_esc(_fmt_tick(tv))}</text>'
        )
    for tv in y_ticks:
        _, py = to_px(x_hi, tv)
        parts.append(
            f'<line x1="{pad_l - 5}" y1="{py:.2f}" x2="{pad_l}" y2="{py:.2f}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{pad_l}" y1="{py:.2f}" x2="{pad_l + plot_w}" y2="{py:.2f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{pad_l - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_esc(_fmt_tick(tv))}</text>'
        )

    parts.append(
        f'<text x="{pad_l + plot_w / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{pad_t + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {pad_t + plot_h / 2:.1f})">{_esc(ylabel)}</text>'
    )

    for i, c in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        dash = f' stroke-dasharray="{c.dash}"' if c.dash else ""
        pts = " ".join(f"{px:.3f},{py:.3f}" for px, py in
                       (to_px(xv, yv) for xv, yv in finite_pairs(c)))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} '
            f'points="{pts}"/>'
        )

    # legend, top-right inside the frame
    lx = pad_l + plot_w - 170
    ly = pad_t + 12
    for i, c in enumerate(curves):
        color = PALETTE[i % len(PALETTE)]
        dash = f' stroke-dasharray="{c.dash}"' if c.dash else ""
        y0 = ly + 16 * i
        parts.append(
            f'<line x1="{lx}" y1="{y0}" x2="{lx + 26}" y2="{y0}" '
            f'stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{y0 + 4}" font-family="sans-serif" '
            f'font-size="11">{_esc(c.label)}</text>'
        )

    # embedded data: one comment block per curve, full precision
    for c in curves:
        rows = "\n".join(f"{xv!r},{yv!r}" for xv, yv in zip(c.x, c.y))
        parts.append(f'<!-- data "{_comment_safe(c.label)}" (x,y):\n{rows}\n-->')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)
