"""Minimal deterministic SVG emission for experiment summaries.

No plotting dependency: the charts are diff-able text artifacts, so the
same report always serializes to the same bytes.
"""

from html import escape

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 25, 45, 55


def _fmt(x):
    # fixed decimal formatting keeps the artifact stable across platforms
    return f"{x:.3f}".rstrip("0").rstrip(".")


class SvgCanvas:
    """Tiny append-only SVG builder with a fixed viewport."""

    def __init__(self, title):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">'
            f'{escape(title, quote=False)}</text>',
        ]

    def line(self, x1, y1, x2, y2, color="black", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
            f'y2="{_fmt(y2)}" stroke="{color}" stroke-width="{width}"{d}/>')

    def circle(self, x, y, r=4, color="black"):
        self.parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}"/>')

    def text(self, x, y, s, size=11, anchor="middle", color="black"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="{size}" '
            f'fill="{color}">{escape(s, quote=False)}</text>')

    def polyline(self, points, color="black", width=1.0, dash=None):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>')

    def render(self):
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Axes:
    def __init__(self, canvas, x_range, y_range, x_label, y_label):
        self.c = canvas
        self.x_lo, self.x_hi = x_range
        self.y_lo, self.y_hi = y_range
        x0, x1 = MARGIN_L, WIDTH - MARGIN_R
        y0, y1 = HEIGHT - MARGIN_B, MARGIN_T
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        canvas.line(x0, y0, x1, y0)
        canvas.line(x0, y0, x0, y1)
        canvas.text((x0 + x1) / 2, HEIGHT - 12, x_label, size=13)
        canvas.parts.append(
            f'<text x="18" y="{(y0 + y1) / 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {(y0 + y1) / 2})">'
            f'{escape(y_label, quote=False)}</text>')

    def px(self, x):
        f = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.x0 + f * (self.x1 - self.x0)

    def py(self, y):
        f = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return self.y0 + f * (self.y1 - self.y0)

    def x_tick(self, x, label):
        px = self.px(x)
        self.c.line(px, self.y0, px, self.y0 + 5)
        self.c.text(px, self.y0 + 18, label)

    def y_tick(self, y, label):
        py = self.py(y)
        self.c.line(self.x0 - 5, py, self.x0, py)
        self.c.text(self.x0 - 9, py + 4, label, anchor="end")


def ise_trend_svg(report):
    """p-hat against L with Wilson intervals and the 1 - L^-q curve.

    The asymptotic curve is drawn for comparison only; nothing is
    asserted about it here.
    """
    per_L = report.per_L
    if not per_L:
        raise ValueError("report has no per-L entries")
    q = report.plan.q
    ls = [p.L for p in per_L]
    lo, hi = min(ls), max(ls)
    pad = max(1.0, 0.1 * (hi - lo))
    canvas = SvgCanvas(
        f"Spectral-window hit rate vs box size (alpha={report.plan.alpha:g})")
    ax = _Axes(canvas, (lo - pad, hi + pad), (0.0, 1.05),
               "box side L", "estimated probability")
    for y in (0.0, 0.25, 0.5, 0.75, 1.0):
        ax.y_tick(y, f"{y:g}")
        canvas.line(ax.x0, ax.py(y), ax.x1, ax.py(y),
                    color="#dddddd", width=0.5)
    for L in ls:
        ax.x_tick(L, str(L))

    # asymptotic comparison curve 1 - L^-q, sampled densely
    steps = 120
    curve = []
    for i in range(steps + 1):
        x = (lo - pad) + (hi + pad - (lo - pad)) * i / steps
        if x <= 1:
            continue
        curve.append((ax.px(x), ax.py(1.0 - x ** (-q))))
    canvas.polyline(curve, color="#888888", dash="5,4")
    canvas.text(ax.x1 - 4, ax.py(1.0 - (hi + pad) ** (-q)) - 8,
                f"1 - L^-{q:g} (not asserted)", anchor="end", color="#666666")

    for p in per_L:
        x = ax.px(p.L)
        canvas.line(x, ax.py(p.ci_lo), x, ax.py(p.ci_hi),
                    color="#1f5fa8", width=2)
        for end in (p.ci_lo, p.ci_hi):
            canvas.line(x - 5, ax.py(end), x + 5, ax.py(end),
                        color="#1f5fa8", width=2)
        canvas.circle(x, ax.py(p.p_hat), color="#1f5fa8")
        canvas.text(x, ax.py(p.p_hat) - 12, f"{p.p_hat:.3f}", size=10)
    return canvas.render()


def ids_curve_svg(records, e0=None):
    """Normalized eigenvalue counting curves from (L, record) pairs."""
    records = list(records)
    if not records:
        raise ValueError("no counting records")
    palette = ("#1f5fa8", "#b0413e", "#3c7a3c", "#8a5fa8", "#b07d2e")
    all_e = [e for _, r in records for e in r.energies]
    all_n = [v for _, r in records for v in r.counting]
    e_lo, e_hi = min(all_e), max(all_e)
    n_hi = max(all_n) if all_n else 1.0
    canvas = SvgCanvas("Normalized eigenvalue counting function")
    ax = _Axes(canvas, (e_lo, e_hi), (0.0, 1.05 * max(n_hi, 1e-12)),
               "energy E", "count / L^d")
    for i in range(5):
        e = e_lo + (e_hi - e_lo) * i / 4
        ax.x_tick(e, f"{e:.3g}")
    for i in range(5):
        n = ax.y_hi * i / 4
        ax.y_tick(n, f"{n:.3g}")
    if e0 is not None and e_lo <= e0 <= e_hi:
        canvas.line(ax.px(e0), ax.y0, ax.px(e0), ax.y1,
                    color="#999999", dash="3,3")
        canvas.text(ax.px(e0), ax.y1 - 4, "E0", size=10, color="#666666")
    for i, (L, rec) in enumerate(records):
        color = palette[i % len(palette)]
        pts = [(ax.px(e), ax.py(v))
               for e, v in zip(rec.energies, rec.counting)]
        canvas.polyline(pts, color=color, width=1.5)
        if pts:
            canvas.text(pts[-1][0], pts[-1][1] - 6, f"L={L:g}",
                        size=10, color=color)
    return canvas.render()
