"""The record classes: frozen dataclasses over the float kernels of `euclid`,
`solve` and `document`, which name them and import this module on first use,
so that the command line, which runs only the kernels, loads no `dataclasses`."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .document import _checked_document, _document_json, _read_document
from .euclid import _positive_finite
from .formats import DEFAULT_TOLERANCE


@dataclass(frozen=True)
class Circle:
    """Circle in the Euclidean plane by center (cx, cy) and radius r > 0."""

    cx: float
    cy: float
    r: float

    def __post_init__(self):
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError("circle centre must be finite")
        _positive_finite(self.r, "circle radius")

    @property
    def curvature(self) -> float:
        return 1.0 / self.r

    def center_distance(self, other: "Circle") -> float:
        return math.hypot(self.cx - other.cx, self.cy - other.cy)


@dataclass(frozen=True)
class FlowerLayout:
    """A realized flower: central circle, petals in cyclic order, and the
    central angles between consecutive petal centers."""

    central: Circle
    petals: tuple[Circle, ...]
    gap_angles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "petals", tuple(self.petals))
        object.__setattr__(self, "gap_angles", tuple(map(float, self.gap_angles)))
        if len(self.petals) < 3:
            raise ValueError("a flower needs at least 3 petals")
        if len(self.gap_angles) != len(self.petals):
            raise ValueError("need one gap angle per petal")


@dataclass(frozen=True)
class CentralSolve:
    """Central curvature of a flower with its cross-check data."""

    central_curvature: float  # geometric (angle-sum) root
    polished_curvature: float  # root of the relation residual
    residual: float  # relation over |P| at the geometric root: sin(theta) - t
    residual_scale: float  # term magnitude over |P|: 1 + t, in (1, 2]


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
        _, _, petals, _, circles = _checked_document(
            self.n, self.central_curvature, self.petal_curvatures, self.tolerance, self.circles
        )
        object.__setattr__(self, "petal_curvatures", petals)
        object.__setattr__(self, "circles", circles)

    def to_json(self) -> str:
        """The document as JSON text: one template, filled once."""
        return _document_json(
            self.n, self.central_curvature, self.petal_curvatures, self.tolerance, self.circles
        )

    @classmethod
    def from_json(cls, text: str) -> "FlowerDocument":
        return _read_document(text, cls)
