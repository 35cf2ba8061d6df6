"""Self-contained SVG log-log plots of error series and fitted power laws.

Fixed 800x600 canvas with decade ticks on both axes; each curve draws its
monotone envelope as a solid polyline and, when a fit is supplied, the
fitted power law as a dashed line over the fit window.  No plotting
dependency is used.
"""

from __future__ import annotations

import math

from .analysis import RateFit

__all__ = ["render_svg"]

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 30, 40, 60
PALETTE = ("#1f6fb2", "#d95f02", "#2ca02c", "#b22222",
           "#7850a0", "#8c6d31", "#17becf", "#444444")


def _ticks(lo: float, hi: float):
    """Decade tick values covering [lo, hi]."""
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0 ** e for e in range(first, last + 1)]


def _fmt_decade(v: float) -> str:
    e = round(math.log10(v))
    if -3 <= e <= 3:
        return f"{v:g}"
    return f"1e{e:d}"


def render_svg(curves, title: str = "") -> str:
    """Render curves to an SVG string.

    Each curve is a dict with keys: "label", "series" (positive values,
    element i plotted at k = i + 1), "q" (the objective dimension, which
    sets the fitted line's exponent) and optionally "fit" (a RateFit whose
    dashed model line spans the fit window).
    """
    xs_all = []
    ys_all = []
    for c in curves:
        series = [v for v in c["series"] if v > 0.0]
        if not series:
            raise ValueError(f"curve {c.get('label')!r} has no positive values")
        xs_all.extend(range(1, len(c["series"]) + 1))
        ys_all.extend(series)
    x_lo, x_hi = 1.0, max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if y_lo == y_hi:
        y_lo, y_hi = y_lo / 10.0, y_hi * 10.0

    lx0, lx1 = math.log10(x_lo), math.log10(x_hi)
    ly0, ly1 = math.log10(y_lo), math.log10(y_hi)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (math.log10(x) - lx0) / max(lx1 - lx0, 1e-12) * plot_w

    def py(y):
        return MARGIN_T + (ly1 - math.log10(y)) / max(ly1 - ly0, 1e-12) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="black"/>',
    ]
    if title:
        parts.append(f'<text x="{WIDTH / 2:.1f}" y="25" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="16">{title}</text>')

    for tv in _ticks(x_lo, x_hi):
        if not x_lo <= tv <= x_hi:
            continue
        x = px(tv)
        parts.append(f'<line x1="{x:.1f}" y1="{MARGIN_T}" x2="{x:.1f}" '
                     f'y2="{MARGIN_T + plot_h}" stroke="#dddddd"/>')
        parts.append(f'<text x="{x:.1f}" y="{MARGIN_T + plot_h + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{_fmt_decade(tv)}</text>')
    for tv in _ticks(y_lo, y_hi):
        if not y_lo <= tv <= y_hi:
            continue
        y = py(tv)
        parts.append(f'<line x1="{MARGIN_L}" y1="{y:.1f}" '
                     f'x2="{MARGIN_L + plot_w}" y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="12">{_fmt_decade(tv)}</text>')

    parts.append(f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 15}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="14">iteration k</text>')
    parts.append(f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" '
                 f'text-anchor="middle" font-family="sans-serif" '
                 f'font-size="14" transform="rotate(-90 18 '
                 f'{MARGIN_T + plot_h / 2:.1f})">Hausdorff error</text>')

    for ci, c in enumerate(curves):
        color = PALETTE[ci % len(PALETTE)]
        pts = [(px(i + 1), py(v)) for i, v in enumerate(c["series"]) if v > 0.0]
        poly = " ".join(f"{x:.2f},{y:.2f}" for x, y in pts)
        parts.append(f'<polyline points="{poly}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        fit: RateFit | None = c.get("fit")
        if fit is not None and math.isfinite(fit.c_hat):
            k0, k1 = fit.window
            # model: delta = lambda * k^(-c_hat / (q - 1))
            qm1 = c["q"] - 1
            y0 = fit.lambda_hat * k0 ** (-fit.c_hat / qm1)
            y1v = fit.lambda_hat * k1 ** (-fit.c_hat / qm1)
            y0 = min(max(y0, y_lo), y_hi)
            y1v = min(max(y1v, y_lo), y_hi)
            parts.append(f'<line x1="{px(k0):.2f}" y1="{py(y0):.2f}" '
                         f'x2="{px(k1):.2f}" y2="{py(y1v):.2f}" '
                         f'stroke="{color}" stroke-width="1.4" '
                         f'stroke-dasharray="6,4"/>')
        ly = MARGIN_T + 16 + 16 * ci
        lx = MARGIN_L + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{c["label"]}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
