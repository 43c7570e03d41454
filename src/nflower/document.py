"""Flower documents: the JSON interchange format of the command line tool.

Serialization is deterministic: fixed key order, floats at 17 significant
digits (exact round trip), no timestamps.  Reports elsewhere display 12
significant digits; documents keep full precision.  FlowerDocument, in
`_records`, is the record over the field tuple these functions work on.
"""

from __future__ import annotations

import math

from .euclid import _checked_petals, _check_reciprocal, _positive_finite, _records_getattr
from .formats import DEFAULT_TOLERANCE, _filled


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


def _checked_document(n, central_curvature, petal_curvatures, tolerance, circles) -> tuple:
    """The fields, checked, with the petal curvatures and circles as float tuples."""
    _integer(n, "n")
    if n < 3 or n != len(petal_curvatures):
        raise ValueError("n must be >= 3 and match the petal curvature count")
    petal_curvatures = tuple(_checked_petals(petal_curvatures))
    _positive_finite(central_curvature, "central curvature")
    _check_reciprocal(central_curvature, "central curvature")
    _positive_finite(tolerance, "tolerance")
    if circles is not None:
        circles = _checked_circles(circles, n + 1)
    return n, central_curvature, petal_curvatures, tolerance, circles


def _document_json(n, central_curvature, petal_curvatures, tolerance, circles) -> str:
    """The checked fields as JSON text: one template, filled once."""
    values = [central_curvature, *petal_curvatures, tolerance]
    tail = "\n"
    if circles is not None:
        rows = "    [%.17g, %.17g, %.17g],\n" * n + "    [%.17g, %.17g, %.17g]"
        tail = f',\n  "circles": [\n{rows}\n  ]\n'
        for c in circles:
            values += c
    petals = "%.17g, " * (n - 1) + "%.17g"
    template = (
        f'{{\n  "n": {n},\n  "central_curvature": %.17g,\n'
        f'  "petal_curvatures": [{petals}],\n  "tolerance": %.17g{tail}}}\n'
    )
    return _filled(template, values)


def _read_document(text: str, make=_checked_document):
    """make(*fields) of a document's JSON text: _checked_document's tuple,
    or the record of FlowerDocument.from_json.  Only a reader loads json."""
    import json

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
    _integer(n, "n")  # _checked_document's rule, here so that n is reported first
    circles = raw.get("circles")
    if circles is not None:
        if type(circles) is not list:
            raise ValueError(f"circles: expected a JSON array, got {circles!r}")
        circles = [_numbers(c, "circle") for c in circles]
    # The check turns the petal curvatures and circles into floats.
    try:
        return make(
            n,
            _number(central, "central_curvature"),
            _numbers(petals, "petal_curvatures"),
            _number(raw.get("tolerance", DEFAULT_TOLERANCE), "tolerance"),
            circles,
        )
    except OverflowError as exc:  # a JSON integer beyond the float range
        raise ValueError(f"bad document fields: {exc}") from exc


__getattr__ = _records_getattr(__name__, ("FlowerDocument",))
