"""Horocycles of the hyperbolic plane and their real spinor coordinates.

A horocycle in the upper half-plane model is a circle tangent to the real
line (or a horizontal line, when tangent at infinity).  A nonzero real pair
(xi, eta) encodes the horocycle tangent at xi/eta with Euclidean radius
1/(2 eta^2); the two pairs +-(xi, eta) encode the same curve with its two
spin lifts.  The antisymmetric bracket of two such pairs is a signed lambda
length: exp(rho/2) up to sign, where rho is the signed distance between the
horocycles, so tangency means bracket +-1.

The disc and upper half-plane models are exchanged by the Cayley transform.
Horocycle images under that transform have closed forms: a disc horocycle
tangent at exp(i theta) with radius rho is tangent at -cot(theta/2) with
radius rho / (2 (1 - rho) sin^2(theta/2)), since its disc curvature 1/rho is
xi^2 + eta^2 + 1 for its spinor (Penner, "The decorated Teichmuller space of
punctured surfaces", CMP 113, 1987, on lambda lengths).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .euclid import _positive_finite
from .solve import _checked_spinor

_DET_TOL = 1e-12


@dataclass(frozen=True)
class Spinor:
    """Nonzero real pair (xi, eta)."""

    xi: float
    eta: float

    def __post_init__(self):
        _checked_spinor(self.xi, self.eta)

    def __neg__(self) -> "Spinor":
        return Spinor(-self.xi, -self.eta)


@dataclass(frozen=True)
class Horocycle:
    """Upper half-plane horocycle.

    Either tangent to the real line at a finite point, with a Euclidean
    radius, or tangent at infinity, appearing as the horizontal line at
    the given Euclidean height.
    """

    tangency: float
    radius: float | None = None
    height: float | None = None

    def __post_init__(self):
        if math.isinf(self.tangency):
            if self.height is None or self.radius is not None:
                raise ValueError("horocycle at infinity takes a height, not a radius")
            _positive_finite(self.height, "height")
        else:
            if self.radius is None or self.height is not None:
                raise ValueError("horocycle at a finite point takes a radius, not a height")
            _positive_finite(self.radius, "radius")

    @property
    def curvature(self) -> float:
        if self.radius is None:
            raise ValueError("horocycle at infinity has no curvature")
        return 1.0 / self.radius


@dataclass(frozen=True)
class DiscHorocycle:
    """Disc-model horocycle: tangent to the unit circle at exp(i * angle)
    from the inside, with Euclidean radius in (0, 1)."""

    tangency_angle: float
    radius: float

    def __post_init__(self):
        if not math.isfinite(self.tangency_angle):
            raise ValueError("tangency angle must be finite")
        if not 0.0 < self.radius < 1.0:  # a NaN fails too
            raise ValueError(f"disc horocycle radius must be in (0, 1), got {self.radius}")

    @property
    def curvature(self) -> float:
        return 1.0 / self.radius

    @property
    def center(self) -> complex:
        return (1.0 - self.radius) * complex(math.cos(self.tangency_angle), math.sin(self.tangency_angle))


def bracket(a: Spinor, b: Spinor) -> float:
    """Antisymmetric bilinear form: the determinant xi_a eta_b - eta_a xi_b."""
    return a.xi * b.eta - a.eta * b.xi


def spinor_to_horocycle(s: Spinor) -> Horocycle:
    """Horocycle of a spinor: tangency xi/eta and radius 1/(2 eta^2), or the
    horizontal line at height xi^2 when eta = 0."""
    if s.eta == 0.0:
        return Horocycle(math.inf, height=s.xi * s.xi)
    return Horocycle(s.xi / s.eta, radius=1.0 / (2.0 * s.eta * s.eta))


def horocycle_to_spinor(h: Horocycle) -> Spinor:
    """The eta > 0 spinor of a horocycle tangent at a finite point."""
    if h.radius is None:
        raise ValueError("horocycle at infinity: choose the (xi, 0) representative directly")
    eta = 1.0 / math.sqrt(2.0 * h.radius)
    return Spinor(h.tangency * eta, eta)


def uhp_to_disc(z: complex | float) -> complex:
    """Cayley transform (z - i)/(z + i) from the closed upper half-plane to
    the closed disc; infinity maps to 1."""
    if isinstance(z, (int, float)) and math.isinf(z):
        return complex(1.0, 0.0)
    z = complex(z)
    return (z - 1j) / (z + 1j)


def disc_to_uhp(z: complex) -> complex | float:
    """Inverse Cayley transform (z + 1)i/(1 - z); the boundary point 1 maps
    to infinity (returned as math.inf)."""
    z = complex(z)
    if z == 1.0:
        return math.inf
    return (z + 1.0) * 1j / (1.0 - z)


def circumcircle(z1: complex, z2: complex, z3: complex) -> tuple[complex, float]:
    """Center and radius of the circle through three points."""
    # Work relative to z1: avoids squaring large coordinates.
    a, b = z2 - z1, z3 - z1
    d = 2.0 * (a.real * b.imag - a.imag * b.real)
    if d == 0.0:
        raise ValueError("points are collinear")
    qa, qb = abs(a) ** 2, abs(b) ** 2
    ux = (b.imag * qa - a.imag * qb) / d
    uy = (a.real * qb - b.real * qa) / d
    center = z1 + complex(ux, uy)
    return center, math.hypot(ux, uy)


def disc_horocycle_to_uhp(h: DiscHorocycle) -> Horocycle:
    """Image of a disc horocycle in the upper half-plane model, in closed
    form: tangency -cot(theta/2) and radius rho / (2 (1 - rho) sin^2(theta/2))
    for tangency angle theta and radius rho.  Horocycles tangent at angle 0
    would map to a horizontal line and are rejected.
    """
    rho = h.radius
    half = math.remainder(h.tangency_angle, 2.0 * math.pi) / 2.0
    sin_half = math.sin(half)
    if abs(sin_half) < 1e-12:
        raise ValueError("disc horocycle tangent at 1 maps to a horocycle at infinity")
    radius = rho / (2.0 * (1.0 - rho) * sin_half * sin_half)
    return Horocycle(-math.cos(half) / sin_half, radius=radius)


def uhp_horocycle_to_disc(h: Horocycle) -> DiscHorocycle:
    """Image of an upper half-plane horocycle in the disc, in closed form,
    inverting disc_horocycle_to_uhp: tangency angle 2 atan2(1, -p), in
    (0, 2 pi), and radius 1 / (1 + (p^2 + 1) / (2 r)) for tangency p and
    radius r.  The line at height h, tangent at infinity, maps to the
    horocycle tangent at 1 with radius 1 / (1 + h).
    """
    if h.radius is None:
        return DiscHorocycle(0.0, 1.0 / (1.0 + h.height))
    p = h.tangency
    return DiscHorocycle(2.0 * math.atan2(1.0, -p), 1.0 / (1.0 + (p * p + 1.0) / (2.0 * h.radius)))


def disc_curvature_of_spinor(s: Spinor) -> float:
    """Euclidean curvature, in the disc model, of the horocycle of a spinor:
    xi^2 + eta^2 + 1.  For eta = 0 that is the horocycle tangent at 1, the
    image of the line at height xi^2."""
    return s.xi * s.xi + s.eta * s.eta + 1.0


def rotate_spinor(s: Spinor) -> Spinor:
    """Spinor of the horocycle rotated by pi about the model center:
    (xi, eta) -> (-eta, xi).  Four applications return the start."""
    return Spinor(-s.eta, s.xi)


def lambda_length_geometric(h1: Horocycle, h2: Horocycle) -> float:
    """Unsigned lambda length between two finite-tangency horocycles:
    |p - q| sqrt(k1 k2) / 2 for tangency points p, q and curvatures k1, k2.

    Equals 1 exactly when the horocycles are tangent, and matches the
    absolute bracket of their eta > 0 spinors.
    """
    if h1.radius is None or h2.radius is None:
        raise ValueError("both horocycles must have finite tangency points")
    if h1.tangency == h2.tangency:
        raise ValueError("equal tangency points: horocycles are parallel")
    return abs(h1.tangency - h2.tangency) * math.sqrt(h1.curvature * h2.curvature) / 2.0


def apply_sl2(matrix: Sequence[Sequence[float]], s: Spinor) -> Spinor:
    """Act on a spinor by a real 2x2 matrix of determinant 1."""
    (a, b), (c, d) = matrix
    if abs(a * d - b * c - 1.0) > _DET_TOL:
        raise ValueError(f"matrix determinant {a * d - b * c} is not 1")
    return Spinor(a * s.xi + b * s.eta, c * s.xi + d * s.eta)
