"""Deterministic SVG rendering of circle configurations.

One <circle> element per circle, the central circle stroked distinctly, the
viewBox padded 10% beyond the bounding box, stroke width 0.5% of the box.
Numbers are written at 12 significant digits; equal inputs give equal bytes.
"""

from __future__ import annotations

from typing import Sequence

from .document import fmt

_CENTRAL_STROKE = "#c0392b"
_PETAL_STROKE = "#2c3e50"


def flower_svg(circles: Sequence[tuple[float, float, float]]) -> str:
    """SVG document for a list of (cx, cy, r) circles, the central circle
    first; y-axis points up."""
    if not circles:
        raise ValueError("nothing to render")
    xmin = min(cx - r for cx, cy, r in circles)
    xmax = max(cx + r for cx, cy, r in circles)
    ymin = min(cy - r for cx, cy, r in circles)
    ymax = max(cy + r for cx, cy, r in circles)
    span = max(xmax - xmin, ymax - ymin)
    pad = 0.10 * span
    width = (xmax - xmin) + 2.0 * pad
    height = (ymax - ymin) + 2.0 * pad
    stroke = fmt(0.005 * span, 12)

    view = f"{fmt(xmin - pad, 12)} {fmt(-(ymax + pad), 12)} {fmt(width, 12)} {fmt(height, 12)}"
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{view}">',
    ]
    for i, (cx, cy, r) in enumerate(circles):
        color = _CENTRAL_STROKE if i == 0 else _PETAL_STROKE
        lines.append(
            f'  <circle cx="{fmt(cx, 12)}" cy="{fmt(-cy, 12)}" r="{fmt(r, 12)}" '
            f'fill="none" stroke="{color}" stroke-width="{stroke}"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
