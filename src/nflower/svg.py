"""Deterministic SVG rendering of circle configurations.

One <circle> element per circle, the central circle stroked distinctly, the
viewBox padded 10% beyond the bounding box, stroke width 0.5% of the box.
Numbers are written at 12 significant digits; equal inputs give equal bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

from .document import _checked_circles
from .formats import _filled

_CENTRAL_STROKE = "#c0392b"
_PETAL_STROKE = "#2c3e50"

_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%.12g %.12g %.12g %.12g">\n'
)
_ROW = '  <circle cx="%.12g" cy="%.12g" r="%.12g" fill="none" stroke="{}" stroke-width="{}"/>\n'


def _padded_box(circles) -> tuple[tuple[float, float, float, float], float]:
    """The viewBox (x, y, width, height), y pointing down, and the span of
    the circles' bounding box."""
    xmin = ymin = math.inf
    xmax = ymax = -math.inf
    for cx, cy, r in circles:  # first of equal values wins, as in min() and max()
        if cx - r < xmin:
            xmin = cx - r
        if cx + r > xmax:
            xmax = cx + r
        if cy - r < ymin:
            ymin = cy - r
        if cy + r > ymax:
            ymax = cy + r
    span = max(xmax - xmin, ymax - ymin)
    pad = 0.10 * span
    return (xmin - pad, -(ymax + pad), (xmax - xmin) + 2.0 * pad, (ymax - ymin) + 2.0 * pad), span


def flower_svg(circles: Sequence[tuple[float, float, float]]) -> str:
    """SVG document for a list of (cx, cy, r) circles, the central circle
    first; y-axis points up.  Each centre must be finite and each radius
    positive and finite (ValueError otherwise).  Where the padded box would
    overflow, everything is drawn at the power-of-two scale that brings the
    largest |centre| + r below 2^1021, so the picture is the same (a radius
    that this scale would round to 0 keeps its value)."""
    if not circles:
        raise ValueError("nothing to render")
    circles = _checked_circles(circles, len(circles))
    box, span = _padded_box(circles)
    x, y, width, height = box
    if not (abs(x) < math.inf and abs(y) < math.inf and width < math.inf and height < math.inf):
        # Formed at a quarter scale, the largest |centre| + r is finite.
        far = max(0.25 * max(abs(cx), abs(cy)) + 0.25 * r for cx, cy, r in circles)
        scale = 2.0 ** (1019 - math.frexp(far)[1])
        circles = [(cx * scale, cy * scale, r * scale or r) for cx, cy, r in circles]
        box, span = _padded_box(circles)
    stroke = _filled("%.12g", [0.005 * span])
    rows = _ROW.format(_CENTRAL_STROKE, stroke) + _ROW.format(_PETAL_STROKE, stroke) * (len(circles) - 1)
    values = [*box]
    for cx, cy, r in circles:
        values += cx, -cy, r
    return _filled(_HEAD + rows + "</svg>\n", values)
