"""The central curvature solve: the geometric root, checked by the relation.

This is the path of `solve_report` and `nflower solve`, apart from the rest
of the relation layer (`descartes`), so that a solve imports only `euclid`;
with the m-variables and their spinor chain, it is all `nflower spinors`
runs.  The command line and `solve_central_curvature` call the float
kernels; `solve_report` wraps the solve's tuple in CentralSolve (`_records`).
`descartes` re-exports them.

The relation divided by |P| is sin(theta) - t, with theta summing
atan2(1, m_j) over the m-variables m_j = sqrt((k_j + 1)(k_{j-1} + 1) - 1)
of the normalized petal curvatures k_j and t = 1/sqrt((k_0 + 1)(k_{n-1} + 1))
(see `descartes` for the forms it equals).  It is O(n) and finite for every
n, and it is the one form that checks the geometric root, that the root
bisection runs on and that `verify` evaluates.  atan2(1, m_j) is half of
gap angle j at the central circle and t is the sine of half the closing
gap, so the relation over |P| is the angle-sum condition in half-angle
form; the solve and `verify` evaluate it with the petals rotated so that
the tightest gap closes the cycle (_tightest_last), where the root is
simple.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

# solve_central_radius is looked up on the module at each call, so that a
# caller who replaces euclid.solve_central_radius (a tracer, a test) sees
# the calls made here too.
from . import euclid
from .euclid import NumericFailure, _checked_petals, _positive_finite, _records_getattr
from .formats import DEFAULT_TOLERANCE


def _radicand(a: float, b: float) -> float:
    """m_j^2 = (a + 1)(b + 1) - 1 of two normalized petal curvatures, formed
    as hi (lo + 1) + lo with hi = max(a, b): only positive terms, so nothing
    cancels when both are tiny, and no 0 * inf where one overflows and the
    other underflows."""
    return a * (b + 1.0) + b if a > b else b * (a + 1.0) + a


def _tightest_last(petals: Sequence[float], k: float) -> list[float]:
    """petals rotated so that the pair with the largest radicand at central
    curvature k, the tightest gap, closes the cycle (petals[-1], petals[0]);
    the input order when that pair closes it already.  There the closing
    gap is at most 2 pi / n, so the relation's root is simple."""
    a = [p / k for p in petals]
    rads = [_radicand(x, y) for x, y in zip(a[-1:] + a, a)]
    j = rads.index(max(rads))
    return [*petals[j:], *petals[:j]]


def _normalized_relation(petals: Sequence[float], k: float) -> tuple[float, float]:
    """The relation over |P| at petal curvatures petals (3 or more, each
    >= 0) and central curvature k, in one pass: (sin(theta) - t, 1 + t),
    theta summing atan2(1, m_j) with m_j^2 the _radicand (formed inline)
    of a_j = petals[j] / k and a_{j-1}, and t = 1/sqrt((a_0 + 1)(a_{n-1} + 1))
    in [0, 1].  The relation is homogeneous, so dividing by k here is the
    whole normalization: no caller builds a list of normalized curvatures.
    It forms the float operations of descartes._phase_form(m_from_normalized(
    [p / k for p in petals]), t) in the same order, so the two agree to the
    bit wherever the m-variables are finite, but keeps no list of them.
    The one kernel of the solve path: the check of the geometric root, each
    bisection step and `verify`."""
    it = iter(petals)
    first = prev = next(it) / k
    theta = 0.0
    for q in it:
        a = q / k
        theta += math.atan2(1.0, math.sqrt(a * (prev + 1.0) + prev if a > prev else prev * (a + 1.0) + a))
        prev = a
    t = 1.0 / math.sqrt((first + 1.0) * (prev + 1.0))
    return math.sin(theta) - t, 1.0 + t


def solve_report(petals: Sequence[float], tol: float = DEFAULT_TOLERANCE) -> CentralSolve:
    """Solve for the central curvature and verify it two ways.

    The geometric root comes from the safeguarded Newton iteration on the
    angle sum of the radii (solve_central_radius); the relation residual at
    that root must vanish to `tol` relative to the term magnitude, the
    residual must change sign across the window k0 (1 +- 2 tol), clipped to
    +-10%, and an independent bisection of the residual in that window must
    land on the same root to `tol` relative to it.  Both the check and the
    bisection evaluate the relation divided by |P|, sin(theta) - t with t in
    [0, 1], on one list of scaled petal curvatures, each at its candidate
    central curvature (see _normalized_relation), so the value stays finite
    for any n; a NaN at a window end or midpoint would still raise
    NumericFailure, and +-inf would count by its sign.  An exact zero at a
    window end or a midpoint is the root.
    """
    return sys.modules[__name__].CentralSolve(*_solve(petals, tol))


def _solve(petals: Sequence[float], tol: float) -> tuple[float, float, float, float]:
    """solve_report's fields as a tuple, for the callers that read no record."""
    ks = _checked_petals(petals)
    _positive_finite(tol, "tol")

    k0 = 1.0 / euclid.solve_central_radius([1.0 / k for k in ks])
    # For k0 >= 0.5 the check and the bisection run on the curvatures times
    # down = 2^-e, e = frexp(k0)[1], which puts k0 in [0.5, 1), so 1.1 k0
    # cannot overflow.  Each quotient p/k stays the same float, or a
    # subnormal either way, which the m-variables add to 1; dividing by
    # `down` maps a root back exactly, to inf beyond the float range.
    down = 2.0 ** -max(math.frexp(k0)[1], 0)
    kd = k0 * down
    scaled = _tightest_last([p * down for p in ks], kd)
    res, scale = _normalized_relation(scaled, kd)
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

    # The relation's root is accepted on one sign change across the window
    # k (1 -+ 2 tol), clipped to [0.9 k, 1.1 k]: a zero at an end is the
    # root.  The bisection halves [0.9 k, 1.1 k] to adjacent floats (about
    # 55 steps), so its midpoints are those of a bisection of that bracket,
    # but one below the window takes flo's value and one above it fhi's,
    # unevaluated; the lower end moves only to a midpoint of flo's sign.
    lo, hi = 0.9 * kd, 1.1 * kd
    wlo, whi = max(lo, (1.0 - 2.0 * tol) * kd), min(hi, (1.0 + 2.0 * tol) * kd)
    flo, fhi = f(wlo), f(whi)
    if flo == 0.0:
        lo = hi = wlo
    elif fhi == 0.0:
        lo = hi = whi
    elif (flo > 0.0) == (fhi > 0.0):
        raise NumericFailure("relation residual does not change sign across k0 (1 +- 2 tol)")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        fm = flo if mid < wlo else fhi if mid > whi else f(mid)
        if fm == 0.0:
            lo = hi = mid
        elif (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    kp = mid / down
    if abs(kp - k0) > tol * k0:
        raise NumericFailure(f"geometric and relation roots disagree: {k0!r} vs {kp!r}")
    return k0, kp, res, scale


def solve_central_curvature(petals: Sequence[float], tol: float = DEFAULT_TOLERANCE) -> float:
    """Central curvature of the flower with the given petal curvatures:
    solve_report's central_curvature, without building the record."""
    return _solve(petals, tol)[0]


def m_from_normalized(kappas: Sequence[float]) -> tuple[float, ...]:
    """m-variables of normalized petal curvatures (central curvature 1);
    a negative radicand or a non-finite value raises ValueError."""
    ks = list(map(float, kappas))
    if len(ks) < 3:
        raise ValueError("need at least 3 petal curvatures")
    rads = [ks[0] + 1.0] + [_radicand(a, b) for a, b in zip(ks[1:], ks)]
    for j, rad in enumerate(rads):
        if rad < 0.0:
            raise ValueError(f"negative radicand {rad} at index {j}")
    m = tuple(map(math.sqrt, rads))
    for v in m:
        if not math.isfinite(v):
            raise ValueError(f"m-variables must be finite and >= 0, got {v}")
    return m


# The chain on (xi, eta) pairs, and the checks of Spinor and SpinorChain.
_BRACKET_TOL = 1e-9  # relative tolerance of a chain's consecutive brackets


def _checked_spinor(xi: float, eta: float) -> tuple[float, float]:
    """(xi, eta), unless a component is not finite or both are 0."""
    if not (math.isfinite(xi) and math.isfinite(eta)):
        raise ValueError("spinor components must be finite")
    if xi == 0.0 and eta == 0.0:
        raise ValueError("the zero pair is not a spinor")
    return xi, eta


def _bracket_is_minus_one(a: tuple[float, float], b: tuple[float, float], tol: float) -> bool:
    """Whether the bracket xi_a eta_b - eta_a xi_b of two pairs is -1 within
    tol times max(1, |z_a||z_b|), z = xi + i eta, the scale of its rounding;
    False for a NaN or infinite residual.  The scale is formed last."""
    (xa, ea), (xb, eb) = a, b
    d = abs(xa * eb - ea * xb + 1.0)
    return d <= tol or (d < math.inf and d <= tol * math.hypot(xa, ea) * math.hypot(xb, eb))


def _check_chain(pairs: Sequence[tuple[float, float]]) -> None:
    """Raise ValueError on the first rule of descartes.SpinorChain the pairs break."""
    if len(pairs) < 3:
        raise ValueError("a chain needs at least 3 spinors")
    xi0, eta0 = pairs[0]
    if abs(xi0) > _BRACKET_TOL * max(1.0, abs(eta0)):
        raise ValueError(f"chain must start at tangency 0, got xi_0 = {xi0}")
    if eta0 <= 0.0:
        raise ValueError("eta_0 must be positive")
    for j, (a, b) in enumerate(zip(pairs, pairs[1:])):
        if not _bracket_is_minus_one(a, b, _BRACKET_TOL):
            raise ValueError(f"consecutive bracket {j},{j + 1} is {a[0] * b[1] - a[1] * b[0]}, expected -1")


def _spinor_pairs(m: tuple[float, ...], make=_checked_spinor) -> list:
    """make(xi, eta) of each spinor of descartes.spinor_recursion, for 3 or
    more float m-variables, as it is formed: a checked pair, or the Spinor
    record, which runs the same check."""
    if m[0] == 0.0:
        raise NumericFailure("degenerate chain: m_0 = 0 gives eta_0 = 0")
    xi, eta = 0.0, m[0]
    spinors = [make(xi, eta)]
    for j, mj in enumerate(m[1:]):
        g = xi * xi + eta * eta
        if g == 0.0:
            raise NumericFailure(f"degenerate chain: |z_{j}|^2 underflows to 0")
        xi, eta = (mj * xi + eta) / g, (mj * eta - xi) / g
        spinors.append(make(xi, eta))
    return spinors


__getattr__ = _records_getattr(__name__, ("CentralSolve",))
