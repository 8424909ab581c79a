"""SVG rendering of 2-D walk traces: one polyline per visited string."""

from __future__ import annotations

from .grid import GridSpec, vertices
from .search import PathTrace

# stroke per level: 0 = seed dot, 1 = edge walk, 2 = square walk
_LEVEL_COLORS = ("#888888", "#1f77b4", "#2ca02c")
_CERT_COLOR = "#d62728"
_CELL = 48  # pixels per grid step
_MARGIN = 36  # pixels around the grid


def trace_svg(spec: GridSpec, lab, trace: PathTrace) -> str:
    """Render a trace over a 2-D grid; the final string is highlighted.

    Vertices carry their labels as small text.  Intended for n=2 only;
    callers are expected to have checked the dimension.
    """
    if spec.n != 2:
        raise ValueError(f"SVG rendering needs a 2-D grid, got n={spec.n}")
    m = spec.m
    size = 2 * _MARGIN + m * _CELL

    def px(v) -> tuple[float, float]:
        return _MARGIN + v[0] * _CELL, _MARGIN + (m - v[1]) * _CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for i in range(m + 1):
        a = _MARGIN + i * _CELL
        parts.append(
            f'<line x1="{a}" y1="{_MARGIN}" x2="{a}" y2="{size - _MARGIN}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{_MARGIN}" y1="{a}" x2="{size - _MARGIN}" y2="{a}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )

    last = len(trace.steps) - 1
    for i, step in enumerate(trace.steps):
        pts = [px(v) for v in vertices(step.string)]
        color = _CERT_COLOR if i == last else _LEVEL_COLORS[min(step.level, 2)]
        width = 4 if i == last else 2
        if len(pts) == 1:
            x, y = pts[0]
            parts.append(f'<circle cx="{x}" cy="{y}" r="5" fill="{color}"/>')
        else:
            coords = " ".join(f"{x},{y}" for x, y in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="{width}" stroke-linecap="round"/>'
            )

    seen = set()
    for step in trace.steps:
        for v in vertices(step.string):
            if v in seen:
                continue
            seen.add(v)
            x, y = px(v)
            parts.append(f'<circle cx="{x}" cy="{y}" r="3" fill="#333333"/>')
            parts.append(
                f'<text x="{x + 6}" y="{y - 6}" font-size="12" '
                f'font-family="monospace" fill="#333333">{lab.label(v)}</text>'
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
