"""Flower documents: the JSON interchange format of the command line tool.

Serialization is deterministic: fixed key order, floats at 17 significant
digits (exact round trip), no timestamps.  Reports elsewhere display 12
significant digits; documents keep full precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .euclid import _checked_petals, _check_reciprocal, _positive_finite

DEFAULT_TOLERANCE = 1e-9


def fmt(x: float, digits: int) -> str:
    """x at `digits` significant digits."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # avoid "-0"
    return "%.*g" % (digits, x)


def _number(v, what: str) -> float:
    """A JSON number as a float; a bool or a string is not a number."""
    if type(v) is not float and type(v) is not int:
        raise ValueError(f"{what}: expected a JSON number, got {v!r}")
    return float(v)


def _numbers(values, what: str) -> list:
    """values, after checking that it is a JSON array of JSON numbers."""
    if type(values) is not list:
        raise ValueError(f"{what}: expected a JSON array, got {values!r}")
    for v in values:
        if type(v) is not float and type(v) is not int:
            raise ValueError(f"{what}: expected JSON numbers, got {v!r}")
    return values


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
        _positive_finite(self.central_curvature, "central curvature")
        _check_reciprocal(self.central_curvature, "central curvature")
        _positive_finite(self.tolerance, "tolerance")
        if self.circles is not None:
            circles = tuple(tuple(float(v) for v in c) for c in self.circles)
            if len(circles) != self.n + 1 or any(len(c) != 3 for c in circles):
                raise ValueError("circles must be n+1 triples (cx, cy, r), central first")
            for cx, cy, r in circles:
                # 0 < r < inf is False for a NaN radius too.
                if not (math.isfinite(cx) and math.isfinite(cy) and 0.0 < r < math.inf):
                    raise ValueError("circle centres must be finite and radii positive and finite")
            object.__setattr__(self, "circles", circles)

    def to_json(self) -> str:
        lines = ["{"]
        lines.append(f'  "n": {self.n},')
        lines.append(f'  "central_curvature": {fmt(self.central_curvature, 17)},')
        petals = ", ".join(fmt(k, 17) for k in self.petal_curvatures)
        lines.append(f'  "petal_curvatures": [{petals}],')
        tail = "," if self.circles is not None else ""
        lines.append(f'  "tolerance": {fmt(self.tolerance, 17)}{tail}')
        if self.circles is not None:
            lines.append('  "circles": [')
            for i, (cx, cy, r) in enumerate(self.circles):
                sep = "," if i + 1 < len(self.circles) else ""
                lines.append(f"    [{fmt(cx, 17)}, {fmt(cy, 17)}, {fmt(r, 17)}]{sep}")
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
            n, central, petals = raw["n"], raw["central_curvature"], raw["petal_curvatures"]
        except KeyError as exc:
            raise ValueError(f"bad document fields: missing {exc}") from exc
        if type(n) is not int:  # a bool is not an int here
            raise ValueError(f"n: expected a JSON integer, got {n!r}")
        circles = raw.get("circles")
        if circles is not None:
            if type(circles) is not list:
                raise ValueError(f"circles: expected a JSON array, got {circles!r}")
            circles = [_numbers(c, "circle") for c in circles]
        # __post_init__ turns the petal curvatures and circles into floats.
        try:
            return cls(
                n,
                _number(central, "central_curvature"),
                _numbers(petals, "petal_curvatures"),
                _number(raw.get("tolerance", DEFAULT_TOLERANCE), "tolerance"),
                circles,
            )
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise ValueError(f"bad document fields: {exc}") from exc
