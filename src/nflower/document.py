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


def _filled(template: str, values) -> str:
    """template % values, each value passed as a float; adding 0.0 turns -0
    into 0, so no "-0" is printed.  The template's % fields set the digits:
    the one number formatter of documents, SVGs and reports."""
    return template % tuple([float(v) + 0.0 for v in values])


def _integer(v, what: str) -> int:
    """A JSON integer; a bool or a float is not one."""
    if type(v) is not int:
        raise ValueError(f"{what}: expected a JSON integer, got {v!r}")
    return v


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


def _checked_circles(circles, count: int) -> tuple[tuple[float, float, float], ...]:
    """The circles as float triples (cx, cy, r), in one pass, after checking
    that there are `count` of them, each with a finite centre and a positive,
    finite radius.  A value that is not a number fails first, then the count
    and shape, then the values."""
    inf = math.inf
    rows = []
    shaped = finite = True
    for c in circles:
        try:
            cx, cy, r = c
        except (TypeError, ValueError):  # not a triple; a non-number still fails first
            try:
                values = iter(c)
            except TypeError:  # a bare value: if a number, it fails on the shape
                values = (c,)
            for v in values:
                float(v)
            shaped = False
            continue
        cx, cy, r = row = (float(cx), float(cy), float(r))
        # Each comparison is False for a NaN too.
        finite = finite and abs(cx) < inf and abs(cy) < inf and 0.0 < r < inf
        rows.append(row)
    if not shaped or len(rows) != count:
        raise ValueError("circles must be n+1 triples (cx, cy, r), central first")
    if not finite:
        raise ValueError("circle centres must be finite and radii positive and finite")
    return tuple(rows)


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
        n = _integer(self.n, "n")
        if n < 3 or n != len(self.petal_curvatures):
            raise ValueError("n must be >= 3 and match the petal curvature count")
        object.__setattr__(self, "petal_curvatures", tuple(_checked_petals(self.petal_curvatures)))
        _positive_finite(self.central_curvature, "central curvature")
        _check_reciprocal(self.central_curvature, "central curvature")
        _positive_finite(self.tolerance, "tolerance")
        if self.circles is not None:
            object.__setattr__(self, "circles", _checked_circles(self.circles, n + 1))

    def to_json(self) -> str:
        """The document as JSON text: one template, filled once."""
        n = self.n
        values = [self.central_curvature, *self.petal_curvatures, self.tolerance]
        tail = "\n"
        if self.circles is not None:
            rows = "    [%.17g, %.17g, %.17g],\n" * n + "    [%.17g, %.17g, %.17g]"
            tail = f',\n  "circles": [\n{rows}\n  ]\n'
            for c in self.circles:
                values += c
        petals = "%.17g, " * (n - 1) + "%.17g"
        template = (
            f'{{\n  "n": {n},\n  "central_curvature": %.17g,\n'
            f'  "petal_curvatures": [{petals}],\n  "tolerance": %.17g{tail}}}\n'
        )
        return _filled(template, values)

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
        _integer(n, "n")  # __post_init__'s rule, here so that n is reported first
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
