"""Euclidean circle primitives, n-flower layout, and inversion in the unit circle.

An n-flower is a central circle with n petal circles externally tangent to it
in cyclic order, each petal also tangent to its two neighbours.  The central
radius is pinned down by the petal radii alone: the angles subtended at the
central center by consecutive petal pairs must sum to a full turn.  Each angle
is taken in Kahan's half-angle form, accurate for thin triangles.  That
angle-sum function is strictly decreasing in the central radius and increasing
in every petal radius, so the symmetric flowers of the smallest and the largest
petal bracket the unique solution, and a safeguarded Newton iteration finds it.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Sequence

TWO_PI = 2.0 * math.pi

# Tolerance of validate_flower (relative) and inverted_flower (absolute).
TANGENCY_TOL = 1e-9


class NumericFailure(ArithmeticError):
    """A numerical procedure lost its bracket, failed to converge, or
    produced a result that violates a cross-check."""


def _records_getattr(module: str, names: tuple[str, ...]):
    """The PEP 562 __getattr__ of `module` for its record classes `names`.
    Its functions look them up on the module, sys.modules[__name__], so
    `_records` is imported once, not on each call."""

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from . import _records

        value = vars(sys.modules[module])[name] = getattr(_records, name)
        return value

    return __getattr__


__getattr__ = _records_getattr(__name__, ("Circle", "FlowerLayout"))


# Petal curvatures and radii lie in [_SMALLEST, _LARGEST], a range that
# taking reciprocals maps onto itself: below _SMALLEST (a subnormal) 1/v
# overflows, and above _LARGEST 1/v falls below _SMALLEST, so a curvature
# there would turn into a radius that fails this check.
_SMALLEST = math.nextafter(1.0 / sys.float_info.max, 1.0)
_LARGEST = 1.0 / _SMALLEST


def _checked_petals(values: Sequence[float], what: str = "petal curvatures") -> list[float]:
    """The values as floats, after checking that there are at least 3 and
    that each is positive and finite with a finite reciprocal; the one input
    check of every entry point that takes petals.  A value in
    [_SMALLEST, _LARGEST] passes both rules, so each value is tested once;
    the rules run one after the other, over all values, only when a value
    fails, so that the first rule broken by any value is the one reported."""
    vals = [float(v) for v in values]
    if len(vals) < 3:
        raise ValueError("a flower needs at least 3 petals")
    for v in vals:
        if not _SMALLEST <= v <= _LARGEST:  # also False for a NaN
            for w in vals:
                _positive_finite(w, what)
            for w in vals:
                _check_reciprocal(w, what)
    return vals


def _positive_finite(v: float, what: str) -> float:
    """v, after raising ValueError naming `what` unless 0 < v < inf (a NaN
    fails too): the one positive-and-finite check of inputs."""
    if not 0.0 < v < math.inf:
        raise ValueError(f"{what} must be positive and finite")
    return v


def _check_reciprocal(v: float, what: str) -> None:
    """Raise ValueError naming v unless it lies in [_SMALLEST, _LARGEST],
    where its reciprocal is finite: the range check of every curvature and
    radius."""
    if not _SMALLEST <= v <= _LARGEST:
        raise ValueError(
            f"{what} must lie in [{_SMALLEST!r}, {_LARGEST!r}], where the reciprocal "
            f"is finite, got {v!r}"
        )


def angle_gap(R: float, r_a: float, r_b: float) -> float:
    """Central angle between the centers of two petals of radii r_a, r_b,
    both tangent to a central circle of radius R and to each other.

    Half-angle form on the triangle with sides R+r_a, R+r_b, r_a+r_b
    (semi-perimeter R+r_a+r_b): 2 atan(sqrt(r_a r_b / (R (R+r_a+r_b)))).
    Unlike acos of the law-of-cosines ratio it keeps full relative accuracy
    for thin triangles (Kahan, "Miscalculating Area and Angles of a
    Needle-like Triangle").  The two quotients are formed first, so no
    product of radii underflows to a zero denominator, and the smaller radius
    is divided by R, so no quotient overflows where q is finite (a radius
    near 1e308 against a much smaller R); where R+r_a+r_b overflows, see
    _far_gap.
    """
    _positive_finite(R, "central radius")
    _positive_finite(r_a, "petal radius")
    _positive_finite(r_b, "petal radius")
    d = R + r_a + r_b
    if d == math.inf:
        q = _far_gap(R, r_a, r_b)[0]
    else:
        q = r_a / R * (r_b / d) if r_a < r_b else r_b / R * (r_a / d)
    return 2.0 * math.atan(math.sqrt(q))


def _far_gap(R: float, r_a: float, r_b: float) -> tuple[float, float]:
    """q of angle_gap and R/(R+r_a+r_b) where that sum overflows, so it is
    formed at a quarter scale: the largest radius scales exactly, and one
    that loses bits lies far below the sum's last bit."""
    d = 0.25 * R + 0.25 * r_a + 0.25 * r_b
    return min(r_a, r_b) / R * (0.25 * max(r_a, r_b) / d), 0.25 * R / d


def angle_sum(R: float, petal_radii: Sequence[float]) -> float:
    """Sum of angle_gap over consecutive petal pairs (cyclic), the last
    paired with the first; the first value of _angle_sum_and_log_slope,
    after checking the inputs as angle_gap does."""
    _positive_finite(R, "central radius")
    if len(petal_radii) == 0:
        raise ValueError("need at least one petal radius")
    for r in petal_radii:
        _positive_finite(r, "petal radius")
    return _angle_sum_and_log_slope(R, petal_radii)[0]


def _angle_sum_and_log_slope(R: float, petal_radii: Sequence[float]) -> tuple[float, float]:
    """angle_sum(R, petal_radii) and its derivative in ln R, in one pass.

    Each gap is 2 atan(sqrt(q)) with
    q = min(r_a, r_b)/R * (max(r_a, r_b)/(R+r_a+r_b)), formed as in angle_gap;
    its derivative in ln R is -sqrt(q)/(1+q) * (1 + R/(R+r_a+r_b)),
    R times the derivative in R.  Both values are unchanged when R and the
    radii are scaled together, so the slope does not underflow for large R.
    The gaps are added in order, starting with the last petal and the first,
    so the sum is the same on every Python version.
    """
    sqrt, atan, inf = math.sqrt, math.atan, math.inf
    total = slope = 0.0
    r_a = petal_radii[-1]
    for r_b in petal_radii:
        d = R + r_a + r_b
        if d == inf:
            q, R_d = _far_gap(R, r_a, r_b)
        else:
            q = r_a / R * (r_b / d) if r_a < r_b else r_b / R * (r_a / d)
            R_d = R / d
        sq = sqrt(q)
        total += atan(sq)
        slope += sq / (1.0 + q) * (1.0 + R_d)
        r_a = r_b
    return 2.0 * total, -slope


def _geometric_midpoint(lo: float, hi: float) -> float:
    """sqrt(lo * hi), which scales exactly with lo and hi by powers of two;
    sqrt(lo) * sqrt(hi) where the product under- or overflows.  A subnormal
    product keeps too few bits for its root to split the bracket."""
    p = lo * hi
    return math.sqrt(p) if sys.float_info.min <= p < math.inf else math.sqrt(lo) * math.sqrt(hi)


def solve_central_radius(petal_radii: Sequence[float]) -> float:
    """Radius of the central circle around which the given petals close up.

    The angle sum increases with every petal radius, so the root lies between
    the central radii r * (1 - sin(pi/n)) / sin(pi/n) of the symmetric flowers
    of the smallest and the largest petal.  Newton's method on ln R starts from
    the symmetric flower of the mean of sqrt(r_j r_{j+1}); a step that leaves
    the bracket falls back to its geometric midpoint sqrt(lo * hi), and the
    iteration stops once a step is below 1e-14 R (or after 100 steps; the
    final check decides).  Every operation commutes with scaling the radii
    by a power of two, so such scaling is exact.
    The angle sum at the root must be a full turn to within
    max(1e-12, 2 pi n eps), since rounding in a sum of n angles grows with n;
    a root whose reciprocal overflows raises NumericFailure.
    """
    radii = _checked_petals(petal_radii, "petal radii")
    n = len(radii)
    s = math.sin(math.pi / n)
    c = (1.0 - s) / s
    lo, hi = min(radii) * c, max(radii) * c
    if not (lo > 0.0 and hi < math.inf):
        raise NumericFailure("petal radii too extreme to bracket the central radius")
    # Added left to right: from Python 3.12 on, sum() of floats is compensated.
    seed = 0.0
    for a, b in zip(radii, radii[1:] + radii[:1]):
        seed += math.sqrt(a * b)
    R = c * seed / n
    if not lo <= R <= hi:  # rounding, or a product of radii under- or overflowed
        R = _geometric_midpoint(lo, hi)
    for _ in range(100):
        total, slope = _angle_sum_and_log_slope(R, radii)
        g = total - TWO_PI
        if not math.isfinite(g):
            raise NumericFailure("angle sum is not finite; NaN propagation in the bracket")
        if g > 0.0:
            lo = R
        elif g < 0.0:
            hi = R
        else:
            break
        # Newton step on ln R.  exp overflows above 709, and a zero slope or a
        # step that long leaves the bracket anyway.
        nxt = R * math.exp(min(-g / slope, 700.0)) if slope else 0.0
        if not lo < nxt < hi:
            nxt = _geometric_midpoint(lo, hi)
        done = abs(nxt - R) <= 1e-14 * nxt
        R = nxt
        if done:
            break
    residual = _angle_sum_and_log_slope(R, radii)[0] - TWO_PI
    tol = max(1e-12, TWO_PI * n * sys.float_info.epsilon)
    if not abs(residual) <= tol:  # also catches NaN
        raise NumericFailure(f"angle sum residual {residual:.3e} exceeds tol {tol:.3e}")
    if R < _SMALLEST:
        raise NumericFailure(f"central radius {R!r} is too small: its curvature 1/R overflows")
    return R


@lru_cache(maxsize=1)
def _solved_flower(radii: tuple[float, ...]) -> tuple[float, tuple[float, ...]]:
    """solve_central_radius(radii) and the gap angles there (angle_gap
    between each petal and the next, the last paired with the first), for a
    tuple of float radii: the one geometric solve behind both views of a
    flower, layout_flower and descartes.geometric_spinor_chain.  The last
    flower is kept, so laying out a flower and then building its chain
    solves once.  Only radii that solve_central_radius accepted are kept,
    since a failure raises and is not kept; the values are those of a fresh
    solve, and the gaps are a tuple that no caller can change."""
    R = solve_central_radius(radii)
    return R, tuple([angle_gap(R, r_a, r_b) for r_a, r_b in zip(radii, [*radii[1:], radii[0]])])


def _flower_circles(radii: tuple[float, ...]) -> tuple[list[tuple[float, float, float]], tuple[float, ...]]:
    """layout_flower's circles as (cx, cy, r) triples, central first, and its
    gap angles, for a tuple of float radii: what `nflower layout` writes."""
    R, gaps = _solved_flower(radii)
    circles = [(0.0, 0.0, R)]
    theta = 0.0
    for j, r in enumerate(radii):
        d = R + r
        if d == math.inf:
            raise NumericFailure(f"central radius {R!r} plus petal radius {r!r} overflows")
        circles.append((d * math.cos(theta), d * math.sin(theta), r))
        theta += gaps[j]
    return circles, gaps


def layout_flower(petal_radii: Sequence[float]) -> FlowerLayout:
    """Lay out the flower with the central circle at the origin.

    Petal j sits at polar angle sum(gap_angles[:j]) and distance R + r_j;
    where that distance overflows, NumericFailure names R and r_j.
    """
    circles, gaps = _flower_circles(tuple([float(r) for r in petal_radii]))  # checked by the solve
    records = sys.modules[__name__]
    central, *petals = [records.Circle(*c) for c in circles]
    return records.FlowerLayout(central, tuple(petals), gaps)


def tangency_residuals(central: Circle, petals: Sequence[Circle]) -> tuple[list[float], list[float]]:
    """Center-distance residuals of a purported flower.

    Returns (central tangency residuals, consecutive petal tangency residuals
    including the wrap-around pair); all are zero for an exact flower.
    """
    return _tangency_residuals([(c.cx, c.cy, c.r) for c in (central, *petals)])


def _tangency_residuals(circles) -> tuple[list[float], list[float]]:
    """tangency_residuals of circles given as (cx, cy, r), central first."""
    (x0, y0, R), *petals = circles
    cen = [math.hypot(x0 - x, y0 - y) - (R + r) for x, y, r in petals]
    pairs = zip(petals, [*petals[1:], petals[0]])
    adj = [math.hypot(xa - xb, ya - yb) - (ra + rb) for (xa, ya, ra), (xb, yb, rb) in pairs]
    return cen, adj


def _worst_tangency(circles) -> tuple[float, float]:
    """Largest central and neighbour tangency residuals of (cx, cy, r) triples,
    central first, over R + r_j and R + r_a + r_b: far petals' Cartesian centres
    lose digits to their distance from the origin, so r_a + r_b is too small."""
    if max(r for _, _, r in circles) > 2.0**1020:
        # Far centres' differences and radius sums would overflow, and every
        # residual over its scale is homogeneous, so take a quarter scale.  A
        # radius that underflows to 0 keeps its value, far below every scale.
        circles = [(cx * 0.25, cy * 0.25, r * 0.25 or r) for cx, cy, r in circles]
    cen, adj = _tangency_residuals(circles)
    R, petals = circles[0][2], [r for _, _, r in circles[1:]]
    worst_cen = max(abs(x) / (R + r) for x, r in zip(cen, petals))
    worst_adj = max(abs(x) / (R + ra + rb) for x, ra, rb in zip(adj, petals, [*petals[1:], petals[0]]))
    return worst_cen, worst_adj


def validate_flower(layout: FlowerLayout) -> bool:
    """Check the relative tangency residuals (as `verify` does) and the
    gap-angle sum of a layout to TANGENCY_TOL."""
    cen, adj = _worst_tangency([(c.cx, c.cy, c.r) for c in (layout.central, *layout.petals)])
    gap = abs(sum(layout.gap_angles) - TWO_PI)
    return cen <= TANGENCY_TOL and adj <= TANGENCY_TOL and gap <= TANGENCY_TOL


def invert_in_unit_circle(c: Circle) -> Circle:
    """Image of a circle under inversion in the unit circle at the origin.

    The image circle has center c/(|c|^2 - r^2) and radius r/||c|^2 - r^2|.
    Circles through the origin map to lines and are rejected.
    """
    cx, cy, r = c.cx, c.cy, c.r
    d = cx * cx + cy * cy - r * r
    if abs(d) <= 1e-15 * (cx * cx + cy * cy + r * r):
        raise ValueError("circle passes through the origin; image is a line")
    return sys.modules[__name__].Circle(cx / d, cy / d, r / abs(d))


def inverted_flower(layout: FlowerLayout) -> list[Circle]:
    """Invert the petals of a unit-central layout in the central circle.

    Each image is internally tangent to the unit circle, with curvature equal
    to the petal curvature plus 2.  The caller rescales the layout so that the
    central circle is the unit circle at the origin.
    """
    cen = layout.central
    if abs(cen.r - 1.0) > TANGENCY_TOL or math.hypot(cen.cx, cen.cy) > TANGENCY_TOL:
        raise ValueError("layout must be normalized to a unit central circle at the origin")
    return [invert_in_unit_circle(p) for p in layout.petals]


def classic_descartes_residual(k_inf: float, k1: float, k2: float, k3: float) -> float:
    """Residual of the Descartes circle relation for a 3-flower:
    (k_inf + k1 + k2 + k3)^2 - 2 (k_inf^2 + k1^2 + k2^2 + k3^2); exact on ints."""
    s = k_inf + k1 + k2 + k3
    return s * s - 2 * (k_inf * k_inf + k1 * k1 + k2 * k2 + k3 * k3)


def classic_descartes_scale(k_inf: float, k1: float, k2: float, k3: float) -> float:
    """Magnitude of the terms of the Descartes relation, for relative checks."""
    s = abs(k_inf) + abs(k1) + abs(k2) + abs(k3)
    return s * s + 2 * (k_inf * k_inf + k1 * k1 + k2 * k2 + k3 * k3)


def four_flower_poly_residual(k_inf: float, k1: float, k2: float, k3: float, k4: float) -> float:
    """Residual of the degree-4 curvature relation for a 4-flower; exact on
    ints.  A float power that overflows raises NumericFailure."""
    try:
        return (
            16 * k_inf**4
            - 8 * k_inf**2 * (k1 * k2 + k2 * k3 + k3 * k4 + k4 * k1 + 2 * k1 * k3 + 2 * k2 * k4)
            + (k1 * k1 + k3 * k3) * (k2 * k2 + k4 * k4)
            - 16 * k_inf * (k1 * k2 * k3 + k2 * k3 * k4 + k3 * k4 * k1 + k4 * k1 * k2)
            - 12 * k1 * k2 * k3 * k4
            - 2 * (k1 * k2 + k3 * k4) * (k2 * k3 + k4 * k1)
        )
    except OverflowError as exc:  # a float power
        raise NumericFailure(f"4-flower relation overflows: {exc}") from None


def four_flower_poly_scale(k_inf: float, k1: float, k2: float, k3: float, k4: float) -> float:
    """Magnitude of the terms of the 4-flower relation, for relative checks."""
    a1, a2, a3, a4 = abs(k1), abs(k2), abs(k3), abs(k4)
    return (
        16 * k_inf**4
        + 8 * k_inf**2 * (a1 * a2 + a2 * a3 + a3 * a4 + a4 * a1 + 2 * a1 * a3 + 2 * a2 * a4)
        + (a1 * a1 + a3 * a3) * (a2 * a2 + a4 * a4)
        + 16 * abs(k_inf) * (a1 * a2 * a3 + a2 * a3 * a4 + a3 * a4 * a1 + a4 * a1 * a2)
        + 12 * a1 * a2 * a3 * a4
        + 2 * (a1 * a2 + a3 * a4) * (a2 * a3 + a4 * a1)
    )
