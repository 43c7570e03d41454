"""The central curvature solve: the geometric root, checked by the relation.

This is the path of `solve_report` and `nflower solve`, apart from the rest
of the relation layer (`descartes`), so that a solve imports only `euclid`.
`descartes` re-exports every name here.

The relation divided by |P| is sin(theta) - t, with theta summing
atan2(1, m_j) over the m-variables m_j = sqrt((k_j + 1)(k_{j-1} + 1) - 1)
of the normalized petal curvatures k_j and t = 1/sqrt((k_0 + 1)(k_{n-1} + 1))
(see `descartes` for the forms it equals).  It is O(n) and finite for every
n, and it is the one form that checks the geometric root, that the root
bisection runs on and that `verify` evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# solve_central_radius is looked up on the module at each call, so that a
# caller who replaces euclid.solve_central_radius (a tracer, a test) sees
# the calls made here too.
from . import euclid
from .euclid import NumericFailure, _checked_petals, _positive_finite
from .formats import DEFAULT_TOLERANCE


def _normalized_relation(petals: Sequence[float], k: float) -> tuple[float, float]:
    """The relation over |P| at petal curvatures petals (3 or more, each
    >= 0) and central curvature k, in one pass: (sin(theta) - t, 1 + t),
    theta summing atan2(1, m_j) with m_j = sqrt(p_j p_{j-1} - 1),
    p_j = petals[j] / k + 1, and t = 1/sqrt(p_0 p_{n-1}) in [0, 1].  The
    relation is homogeneous, so dividing by k here is the whole
    normalization: no caller builds a list of normalized curvatures.  It
    forms the float operations of descartes._phase_form(m_from_normalized(
    [p / k for p in petals]), t) in the same order, so the two agree to the
    bit wherever the m-variables are finite, but keeps no list of them.
    The one kernel of the solve path: the check of the geometric root, each
    bisection step and `verify`."""
    it = iter(petals)
    first = prev = next(it) / k + 1.0
    theta = 0.0
    for q in it:
        p = q / k + 1.0
        theta += math.atan2(1.0, math.sqrt(p * prev - 1.0))
        prev = p
    t = 1.0 / math.sqrt(first * prev)
    return math.sin(theta) - t, 1.0 + t


@dataclass(frozen=True)
class CentralSolve:
    """Central curvature of a flower with its cross-check data."""

    central_curvature: float  # geometric (angle-sum) root
    polished_curvature: float  # root of the relation residual
    residual: float  # relation over |P| at the geometric root: sin(theta) - t
    residual_scale: float  # term magnitude over |P|: 1 + t, in (1, 2]


def solve_report(petals: Sequence[float], tol: float = DEFAULT_TOLERANCE) -> CentralSolve:
    """Solve for the central curvature and verify it two ways.

    The geometric root comes from the safeguarded Newton iteration on the
    angle sum of the radii (solve_central_radius); the relation residual at
    that root must vanish to `tol` relative to the term magnitude, and an
    independent bisection of the residual inside a +-10% bracket must land
    on the same root to `tol` relative to it.  Both the check and the
    bisection evaluate the relation divided by |P|, sin(theta) - t with t in
    [0, 1], on one list of scaled petal curvatures, each at its candidate
    central curvature (see _normalized_relation), so the value stays finite
    for any n; a NaN at a bracket end or midpoint would still raise
    NumericFailure, and +-inf would count by its sign.  An exact zero at a
    bracket end or a midpoint is the root.
    """
    ks = _checked_petals(petals)
    _positive_finite(tol, "tol")

    k0 = 1.0 / euclid.solve_central_radius([1.0 / k for k in ks])
    # For k0 >= 0.5 the check and the bisection run on the curvatures times
    # down = 2^-e, e = frexp(k0)[1], which puts k0 in [0.5, 1), so 1.1 k0
    # cannot overflow.  Each quotient p/k stays the same float, or a
    # subnormal either way, which the m-variables add to 1; dividing by
    # `down` maps a root back exactly, to inf beyond the float range.
    down = 2.0 ** -max(math.frexp(k0)[1], 0)
    scaled = [p * down for p in ks]
    res, scale = _normalized_relation(scaled, k0 * down)
    if not abs(res) <= tol * scale:
        raise NumericFailure(
            f"geometric root fails the relation: residual {res:.3e}, scale {scale:.3e}"
        )

    def f(k: float) -> float:
        fk = _normalized_relation(scaled, k)[0]
        if math.isnan(fk):
            raise NumericFailure(
                f"relation residual is not finite at n = {len(ks)}: nan at k = {k / down!r}"
            )
        return fk

    lo, hi = 0.9 * (k0 * down), 1.1 * (k0 * down)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        hi = lo
    elif fhi == 0.0:
        lo = hi
    elif (flo > 0.0) == (fhi > 0.0):
        raise NumericFailure("relation residual does not change sign across the +-10% bracket")
    # Halving [0.9 k, 1.1 k] reaches adjacent floats in about 55 steps.
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fm = f(mid)
        if fm == 0.0:
            lo = hi = mid
        elif (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    kp = mid / down
    if abs(kp - k0) > tol * k0:
        raise NumericFailure(f"geometric and relation roots disagree: {k0!r} vs {kp!r}")
    return CentralSolve(k0, kp, res, scale)


def solve_central_curvature(petals: Sequence[float], tol: float = DEFAULT_TOLERANCE) -> float:
    """Central curvature of the flower with the given petal curvatures."""
    return solve_report(petals, tol).central_curvature
