"""Flower documents: the JSON interchange format of the command line tool.

Serialization is deterministic: fixed key order, floats at 17 significant
digits (exact round trip), no timestamps.  Reports elsewhere display 12
significant digits; documents keep full precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .euclid import _checked_petals

DEFAULT_TOLERANCE = 1e-9


def fmt17(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid "-0"
    return f"{x:.17g}"


def fmt12(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid "-0"
    return f"{x:.12g}"


@dataclass(frozen=True)
class FlowerDocument:
    """A solved flower: curvatures, tolerance, and optionally the realized
    circles (central first, then petals in order)."""

    n: int
    central_curvature: float
    petal_curvatures: tuple[float, ...]
    tolerance: float = DEFAULT_TOLERANCE
    circles: tuple[tuple[float, float, float], ...] | None = None

    def __post_init__(self):
        if self.n < 3 or self.n != len(self.petal_curvatures):
            raise ValueError("n must be >= 3 and match the petal curvature count")
        object.__setattr__(self, "petal_curvatures", tuple(_checked_petals(self.petal_curvatures)))
        if not (math.isfinite(self.central_curvature) and self.central_curvature > 0.0):
            raise ValueError("central curvature must be positive and finite")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be positive and finite")
        if self.circles is not None:
            circles = tuple(tuple(float(v) for v in c) for c in self.circles)
            if len(circles) != self.n + 1 or any(len(c) != 3 for c in circles):
                raise ValueError("circles must be n+1 triples (cx, cy, r), central first")
            object.__setattr__(self, "circles", circles)

    def to_json(self) -> str:
        lines = ["{"]
        lines.append(f'  "n": {self.n},')
        lines.append(f'  "central_curvature": {fmt17(self.central_curvature)},')
        petals = ", ".join(fmt17(k) for k in self.petal_curvatures)
        lines.append(f'  "petal_curvatures": [{petals}],')
        tail = "," if self.circles is not None else ""
        lines.append(f'  "tolerance": {fmt17(self.tolerance)}{tail}')
        if self.circles is not None:
            lines.append('  "circles": [')
            for i, (cx, cy, r) in enumerate(self.circles):
                sep = "," if i + 1 < len(self.circles) else ""
                lines.append(f"    [{fmt17(cx)}, {fmt17(cy)}, {fmt17(r)}]{sep}")
            lines.append("  ]")
        lines.append("}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FlowerDocument":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError("document must be a JSON object")
        try:
            n = int(raw["n"])
            central = float(raw["central_curvature"])
            petals = tuple(float(k) for k in raw["petal_curvatures"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"bad document fields: {exc}") from exc
        tolerance = float(raw.get("tolerance", DEFAULT_TOLERANCE))
        circles = None
        if raw.get("circles") is not None:
            try:
                circles = tuple(tuple(float(v) for v in c) for c in raw["circles"])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad circles field: {exc}") from exc
        return cls(n, central, petals, tolerance, circles)
