"""Byte-deterministic SVG rendering of a family, its envelope, and the
discriminant set.  No timestamps, no randomness: identical inputs give
identical bytes.
"""

from __future__ import annotations

import numpy as np

from .analysis import parameter_grid
from .discriminant import DiscriminantSet
from .envelope import EnvelopeCurve
from .family import LineCoefficients, LineFamily

WIDTH, HEIGHT = 800, 600
MARGIN_FRACTION = 0.05
MAX_FAMILY_LINES = 61


def _fmt(v: float) -> str:
    out = f"{v:.2f}"
    return "0.00" if out == "-0.00" else out


def _quantile(values: np.ndarray, q: float) -> float:
    """``np.quantile(values, q)`` on the same bits, by numpy's default "linear"
    rule on ``np.partition`` (``np.quantile`` imports ``numpy.ma``). The kth
    set and the neighbours at the top end are numpy's own: equal values such
    as 0.0 and -0.0 land where the same partition puts them."""
    if np.isnan(values).any():
        return float("nan")
    v = (values.size - 1) * q
    lo = hi = -1 if v >= values.size - 1 else int(v)
    if lo >= 0:
        hi = lo + 1
    g = v - lo
    a, b = np.partition(values, sorted({0, -1, lo, hi}))[[lo, hi]].tolist()
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


class _Frame:
    """Affine map from data coordinates to pixels (aspect preserved, y up)."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray, robust: bool):
        if xs.size == 0:
            x_lo, x_hi, y_lo, y_hi = -1.0, 1.0, -1.0, 1.0
        elif robust and xs.size > 20:
            # discriminant clouds blow up near singular parameters; trim tails
            x_lo, x_hi = _quantile(xs, 0.02), _quantile(xs, 0.98)
            y_lo, y_hi = _quantile(ys, 0.02), _quantile(ys, 0.98)
        else:
            x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
            y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
        if x_hi - x_lo < 1e-9:
            x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
        if y_hi - y_lo < 1e-9:
            y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
        pad_x = MARGIN_FRACTION * (x_hi - x_lo)
        pad_y = MARGIN_FRACTION * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y
        span_x, span_y = self.x_hi - self.x_lo, self.y_hi - self.y_lo
        # past 1e16 in magnitude the widening and the padding can vanish in rounding
        self.scale = min(WIDTH / span_x, HEIGHT / span_y) if span_x and span_y else 1.0
        self.cx = 0.5 * (self.x_lo + self.x_hi)
        self.cy = 0.5 * (self.y_lo + self.y_hi)

    def px(self, x: float, y: float) -> tuple[float, float]:
        return (WIDTH / 2 + (x - self.cx) * self.scale,
                HEIGHT / 2 - (y - self.cy) * self.scale)

    def clip_line(self, line: LineCoefficients) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """Clip {P : P . nu = offset} to the data window (Liang-Barsky)."""
        cx, cy = line.nu
        base = (line.offset * cx, line.offset * cy)
        d = (-cy, cx)
        span = 2.0 * max(self.x_hi - self.x_lo, self.y_hi - self.y_lo,
                         abs(base[0]) + abs(base[1]), 1.0)
        p0 = (base[0] - span * d[0], base[1] - span * d[1])
        delta = (2.0 * span * d[0], 2.0 * span * d[1])
        t0, t1 = 0.0, 1.0
        for p, q in (
            (-delta[0], p0[0] - self.x_lo),
            (delta[0], self.x_hi - p0[0]),
            (-delta[1], p0[1] - self.y_lo),
            (delta[1], self.y_hi - p0[1]),
        ):
            if p == 0.0:
                if q < 0.0:
                    return None
                continue
            r = q / p
            if p < 0.0:
                if r > t1:
                    return None
                t0 = max(t0, r)
            else:
                if r < t0:
                    return None
                t1 = min(t1, r)
        if t0 >= t1:
            return None
        a = (p0[0] + t0 * delta[0], p0[1] + t0 * delta[1])
        b = (p0[0] + t1 * delta[0], p0[1] + t1 * delta[1])
        return a, b


def render_scene(family: LineFamily,
                 verdict: str,
                 envelope: EnvelopeCurve | None,
                 disc: DiscriminantSet,
                 singular_ts: tuple[float, ...]) -> str:
    """Compose the figure: thin family lines, the envelope (when present),
    discriminant points, dashed whole-line slices, singular markers."""
    point = disc.kind == 0
    cloud = disc.xs[point], disc.ys[point]
    frame = _Frame(*(cloud if envelope is None else envelope.points.T), robust=envelope is None)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]

    # the family lines, then the singular markers, from one pass of the jets
    n = MAX_FAMILY_LINES
    ts = np.concatenate((parameter_grid(family.domain, n), singular_ts))
    c, s, a = (jet.value.tolist() for jet in family.coeff_jets(ts, 0))

    groups = {
        'class="family" stroke="#b9cfe8" stroke-width="0.7"':
            [LineCoefficients((ci, si), ai) for ci, si, ai in zip(c[:n], s[:n], a[:n])],
        'class="polluted" stroke="#d62728" stroke-width="1.3" stroke-dasharray="7,5"':
            [line for _, line in disc.polluted_lines],
    }
    for group, lines in groups.items():
        parts.append(f'<g {group} fill="none">')
        for seg in filter(None, map(frame.clip_line, lines)):
            (x1, y1), (x2, y2) = (frame.px(*seg[0]), frame.px(*seg[1]))
            parts.append(f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')
        parts.append("</g>")

    parts.append('<g class="discriminant" fill="#3a3a3a">')
    for x, y in zip(*(column.tolist() for column in cloud)):
        px, py = frame.px(x, y)
        if -10 <= px <= WIDTH + 10 and -10 <= py <= HEIGHT + 10:
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.4"/>')
    parts.append("</g>")

    if envelope is not None:
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}"
                          for px, py in (frame.px(x, y) for x, y in envelope.points.tolist()))
        parts.append(f'<polyline class="envelope" points="{coords}" '
                     f'fill="none" stroke="#1a7f37" stroke-width="2.2"/>')

    parts.append('<g class="singular" stroke="#ff7f0e" stroke-width="1.6" fill="none">')
    for ci, si, ai in zip(c[n:], s[n:], a[n:]):
        px, py = frame.px(ai * ci, ai * si)
        r = 5.0
        parts.append(
            f'<path d="M {_fmt(px - r)} {_fmt(py)} L {_fmt(px)} {_fmt(py - r)} '
            f'L {_fmt(px + r)} {_fmt(py)} L {_fmt(px)} {_fmt(py + r)} Z"/>'
        )
    parts.append("</g>")

    label = verdict.replace("_", " ")
    parts.append(
        f'<text x="12" y="22" font-family="monospace" font-size="14" '
        f'fill="#222222">verdict: {label} | mode: {family.mode}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
