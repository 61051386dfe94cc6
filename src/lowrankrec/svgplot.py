"""Tiny dependency-free SVG emitters for experiment summaries.

Output strings are pure functions of the inputs, so plots regenerate
byte-identically.
"""

__all__ = ["line_plot", "heat_map"]

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 40, 55


def _fmt(x):
    return format(float(x), ".6g")


def _frame(title, xlabel, ylabel, body):
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<text x="{_W / 2}" y="{_H - 12}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{xlabel}</text>',
        f'<text x="18" y="{_H / 2}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_H / 2})">{ylabel}</text>',
    ]
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _scale(vals, lo_px, hi_px):
    lo, hi = min(vals), max(vals)
    span = hi - lo if hi > lo else 1.0
    return lambda v: lo_px + (v - lo) / span * (hi_px - lo_px)


def line_plot(xs, ys, title="", xlabel="", ylabel=""):
    """Polyline of ys against xs with axis ticks at the extremes."""
    if len(xs) != len(ys) or not xs:
        raise ValueError("need equal-length nonempty xs, ys")
    sx = _scale(list(xs), _ML, _W - _MR)
    sy = _scale(list(ys) + [0.0, 1.0] if all(0 <= y <= 1 for y in ys) else list(ys),
                _H - _MB, _MT)
    pts = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in zip(xs, ys))
    body = [
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f6fb2" stroke-width="2"/>',
    ]
    for x, y in zip(xs, ys):
        body.append(f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" '
                    f'fill="#1f6fb2"/>')
    body.append(f'<text x="{_ML}" y="{_H - _MB + 18}" font-size="11" '
                f'font-family="sans-serif" text-anchor="middle">{_fmt(min(xs))}</text>')
    body.append(f'<text x="{_W - _MR}" y="{_H - _MB + 18}" font-size="11" '
                f'font-family="sans-serif" text-anchor="middle">{_fmt(max(xs))}</text>')
    lo_y = min(list(ys) + [0.0]) if all(0 <= y <= 1 for y in ys) else min(ys)
    hi_y = max(list(ys) + [1.0]) if all(0 <= y <= 1 for y in ys) else max(ys)
    body.append(f'<text x="{_ML - 6}" y="{_H - _MB}" font-size="11" '
                f'font-family="sans-serif" text-anchor="end">{_fmt(lo_y)}</text>')
    body.append(f'<text x="{_ML - 6}" y="{_MT + 4}" font-size="11" '
                f'font-family="sans-serif" text-anchor="end">{_fmt(hi_y)}</text>')
    return _frame(title, xlabel, ylabel, body)


def heat_map(xs, ys, values, title="", xlabel="", ylabel=""):
    """Grid heat map: values[i][j] drawn at row ys[i], column xs[j], with a
    white-to-blue ramp over [0, max]; a None value is left unfilled."""
    if not ys or not xs or len(values) != len(ys) or any(len(row) != len(xs) for row in values):
        raise ValueError("values must be a len(ys) x len(xs) grid")
    vmax = max((v for row in values for v in row if v is not None), default=0.0) or 1.0
    cw = (_W - _ML - _MR) / len(xs)
    ch = (_H - _MT - _MB) / len(ys)
    body = []
    for i, yv in enumerate(ys):
        for j, xv in enumerate(xs):
            if values[i][j] is None:
                color = "none"
            else:
                frac = max(0.0, min(1.0, values[i][j] / vmax))
                shade = int(round(255 * (1 - frac)))
                color = f"rgb({shade},{shade},255)"
            body.append(
                f'<rect x="{_fmt(_ML + j * cw)}" y="{_fmt(_MT + i * ch)}" '
                f'width="{_fmt(cw)}" height="{_fmt(ch)}" fill="{color}" '
                f'stroke="#999" stroke-width="0.5"/>')
    for j, xv in enumerate(xs):
        body.append(f'<text x="{_fmt(_ML + (j + 0.5) * cw)}" y="{_H - _MB + 16}" '
                    f'font-size="11" font-family="sans-serif" '
                    f'text-anchor="middle">{_fmt(xv)}</text>')
    for i, yv in enumerate(ys):
        body.append(f'<text x="{_ML - 6}" y="{_fmt(_MT + (i + 0.5) * ch + 4)}" '
                    f'font-size="11" font-family="sans-serif" '
                    f'text-anchor="end">{_fmt(yv)}</text>')
    return _frame(title, xlabel, ylabel, body)
