"""The generalized Descartes relation for n-flowers, in the m-variables.

Normalize a flower so the central circle is the unit circle; write k_j for
the normalized petal curvatures.  The auxiliary variables

    m_0 = sqrt(k_0 + 1),   m_j = sqrt((k_j + 1)(k_{j-1} + 1) - 1)

satisfy a single polynomial equation exactly when the curvatures close up
into a flower.  Its left side, Im prod_{j>=1}(m_j + i) (times m_0^2 for
odd n), is evaluated three ways: as that complex product (the function the
root bisection runs on), in phase form (the check of the geometric root) and
as a subset sum of elementary symmetric polynomials (the public subset API).
The polynomial itself is expanded over the integers, and the central
curvature solver cross-checks the equation's root against the geometric
angle-sum oracle from the layout module.

The same m-variables drive a recursion producing spinor coordinates
(xi_j, eta_j) of the flat flower: consecutive brackets are -1 by
construction, and the closing bracket returns to -1 exactly on flowers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .euclid import (
    FlowerSpec,
    NumericFailure,
    invert_in_unit_circle,
    layout_flower,
    solve_central_radius,
    Circle,
)
from .hyperbolic import (
    DiscHorocycle,
    Spinor,
    bracket,
    disc_horocycle_to_uhp,
    horocycle_to_spinor,
)
from .polynomial import PolynomialZZ

# Cap for descartes_polynomial alone: its expansion has 2^(n-2) terms.
MAX_POLYNOMIAL_N = 24

_BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class MVector:
    """The auxiliary variables m_0..m_{n-1}; all entries are non-negative."""

    m: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", tuple(float(v) for v in self.m))
        for v in self.m:
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"m-variables must be finite and >= 0, got {v}")

    def __len__(self) -> int:
        return len(self.m)

    def __iter__(self):
        return iter(self.m)

    def __getitem__(self, j: int) -> float:
        return self.m[j]


@dataclass(frozen=True)
class SpinorChain:
    """Spinors of a flat flower: xi_0 = 0, eta_0 > 0, and each consecutive
    bracket equals -1 (within 1e-9).  eta_j of later spinors may carry either
    sign; the closing bracket is -1 exactly when the chain comes from a
    genuine flower."""

    spinors: tuple[Spinor, ...]

    def __post_init__(self):
        object.__setattr__(self, "spinors", tuple(self.spinors))
        s = self.spinors
        if len(s) < 3:
            raise ValueError("a chain needs at least 3 spinors")
        if abs(s[0].xi) > _BRACKET_TOL * max(1.0, abs(s[0].eta)):
            raise ValueError(f"chain must start at tangency 0, got xi_0 = {s[0].xi}")
        if s[0].eta <= 0.0:
            raise ValueError("eta_0 must be positive")
        for j in range(len(s) - 1):
            b = bracket(s[j], s[j + 1])
            if abs(b + 1.0) > _BRACKET_TOL:
                raise ValueError(f"consecutive bracket {j},{j + 1} is {b}, expected -1")

    def __len__(self) -> int:
        return len(self.spinors)

    def __getitem__(self, j: int) -> Spinor:
        return self.spinors[j]

    @property
    def xis(self) -> tuple[float, ...]:
        return tuple(s.xi for s in self.spinors)

    @property
    def etas(self) -> tuple[float, ...]:
        return tuple(s.eta for s in self.spinors)


def _m_values(m: MVector | Sequence[float], minimum: int = 3) -> tuple[float, ...]:
    vals = tuple(m.m) if isinstance(m, MVector) else tuple(float(v) for v in m)
    if len(vals) < minimum:
        raise ValueError(f"need at least {minimum} m-variables, got {len(vals)}")
    return vals


def normalize_curvatures(flower: FlowerSpec) -> list[float]:
    """Petal curvatures rescaled so the central curvature becomes 1."""
    if flower.central_curvature is None:
        raise ValueError("central curvature is required for normalization")
    return [k / flower.central_curvature for k in flower.petal_curvatures]


def m_from_normalized(kappas: Sequence[float]) -> MVector:
    """m-variables of normalized petal curvatures (central curvature 1)."""
    ks = [float(k) for k in kappas]
    if len(ks) < 3:
        raise ValueError("need at least 3 petal curvatures")
    out = []
    for j, k in enumerate(ks):
        if j == 0:
            rad = k + 1.0
        else:
            rad = (k + 1.0) * (ks[j - 1] + 1.0) - 1.0
        if rad < 0.0:
            raise ValueError(f"negative radicand {rad} at index {j}")
        out.append(math.sqrt(rad))
    return MVector(tuple(out))


def kappa_plus_one(m: MVector | Sequence[float], j: int) -> float:
    """Normalized petal curvature plus one, reconstructed from the
    m-variables as a ratio of products of (m^2 + 1) factors.

    j = 0 returns m_0^2; empty products are 1.
    """
    vals = _m_values(m, minimum=1)
    if not 0 <= j < len(vals):
        raise ValueError(f"index {j} out of range for {len(vals)} variables")
    m0sq = vals[0] * vals[0]
    if j == 0:
        return m0sq
    if j % 2 == 0:
        num = m0sq
        for k in range(1, j // 2 + 1):
            num *= vals[2 * k] * vals[2 * k] + 1.0
        den = 1.0
        for k in range(1, j // 2 + 1):
            den *= vals[2 * k - 1] * vals[2 * k - 1] + 1.0
        return num / den
    num = 1.0
    for k in range(0, (j - 1) // 2 + 1):
        num *= vals[2 * k + 1] * vals[2 * k + 1] + 1.0
    den = m0sq
    for k in range(1, (j - 1) // 2 + 1):
        den *= vals[2 * k] * vals[2 * k] + 1.0
    if den == 0.0:
        raise ValueError("zero denominator: m_0 = 0 in the odd case")
    return num / den


def _rhs_product(vals: Sequence[float]) -> float:
    """Product of (m^2 + 1) over odd indices (odd n) or even indices (even n)."""
    n = len(vals)
    idx = range(1, n - 1, 2) if n % 2 else range(2, n - 1, 2)
    out = 1.0
    for k in idx:
        out *= vals[k] * vals[k] + 1.0
    return out


def _subset_sum(vals: Sequence[float]) -> tuple[float, float]:
    """Signed and absolute subset sums over K in {1..n-1} with |K| = n-2-2l,
    sign (-1)^l, times m_0^2 for odd n.  The sum over |K| = k is the
    elementary symmetric polynomial e_k of m_1..m_{n-1}, built in O(n^2)."""
    n = len(vals)
    e = [1.0] + [0.0] * (n - 2)
    for v in vals[1:]:
        for k in range(n - 2, 0, -1):
            e[k] += v * e[k - 1]
    signed = 0.0
    absolute = 0.0
    for i, size in enumerate(range(n - 2, -1, -2)):
        signed += -e[size] if i % 2 else e[size]
        absolute += e[size]
    w = vals[0] * vals[0] if n % 2 else 1.0
    return w * signed, w * absolute


def descartes_lhs_subset(m: MVector | Sequence[float]) -> float:
    """Left side of the relation in subset-sum form (m_0^2 times the signed
    subset sum for odd n, the bare sum for even n)."""
    return _subset_sum(_m_values(m))[0]


def descartes_residual_subset(m: MVector | Sequence[float]) -> float:
    """Relation residual, real subset-sum form: lhs - rhs.  Zero exactly on
    m-vectors of flowers."""
    vals = _m_values(m)
    return descartes_lhs_subset(vals) - _rhs_product(vals)


def descartes_residual_scale(m: MVector | Sequence[float]) -> float:
    """Total magnitude of the relation's terms; residuals are compared
    relative to this."""
    vals = _m_values(m)
    return _subset_sum(vals)[1] + _rhs_product(vals)


def residual_with_scale(m: MVector | Sequence[float]) -> tuple[float, float]:
    """Relation residual and term magnitude in O(n), in phase form: the lhs
    Im prod_{j>=1}(m_j + i) is |P| sin(sum_j atan2(1, m_j)), times m_0^2 for
    odd n, and the scale is that |P| (times m_0^2) plus the rhs product.
    solve_report checks its geometric root with this; the root bisection runs
    on descartes_residual_complex.  Overflow gives inf or nan, not an error.
    """
    vals = _m_values(m)
    theta = 0.0
    mag = 1.0
    for v in vals[1:]:
        theta += math.atan2(1.0, v)
        mag *= math.hypot(v, 1.0)
    if len(vals) % 2:
        mag *= vals[0] * vals[0]
    rhs = _rhs_product(vals)
    return mag * math.sin(theta) - rhs, mag + rhs


def descartes_residual_complex(m: MVector | Sequence[float]) -> float:
    """Relation residual via the complex product form
    (i/2)(prod(m_j - i) - prod(m_j + i)), times m_0^2 for odd n, minus the
    same rhs product.  The intermediate value must be real; a residual
    imaginary part beyond rounding noise raises NumericFailure."""
    vals = _m_values(m)
    p_minus = complex(1.0, 0.0)
    p_plus = complex(1.0, 0.0)
    for v in vals[1:]:
        p_minus *= complex(v, -1.0)
        p_plus *= complex(v, 1.0)
    lhs = 0.5j * (p_minus - p_plus)
    if len(vals) % 2:
        lhs *= vals[0] * vals[0]
    scale = max(1.0, abs(p_minus)) * max(1.0, vals[0] * vals[0])
    if abs(lhs.imag) > 1e-12 * scale:
        raise NumericFailure(f"imaginary residue {lhs.imag} in complex-form evaluation")
    return lhs.real - _rhs_product(vals)


def descartes_polynomial(n: int) -> PolynomialZZ:
    """The relation lhs - rhs as an exact integer polynomial in
    m_0..m_{n-1}.  Exponential in n; capped at n = 24."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_POLYNOMIAL_N:
        raise ValueError(f"subset enumeration capped at n = {MAX_POLYNOMIAL_N}")

    coeffs: dict[tuple[int, ...], int] = {}
    base = [0] * n
    if n % 2:
        base[0] = 2
    for size in range(n - 2, -1, -2):
        sign = 1 if ((n - 2 - size) // 2) % 2 == 0 else -1
        for combo in combinations(range(1, n), size):
            exps = base.copy()
            for k in combo:
                exps[k] = 1
            key = tuple(exps)
            coeffs[key] = coeffs.get(key, 0) + sign
    lhs = PolynomialZZ.from_dict(n, coeffs)

    rhs = PolynomialZZ.constant(n, 1)
    idx = range(1, n - 1, 2) if n % 2 else range(2, n - 1, 2)
    for k in idx:
        sq = [0] * n
        sq[k] = 2
        rhs = rhs * PolynomialZZ.from_dict(n, {tuple(sq): 1, (0,) * n: 1})
    return lhs - rhs


def spinor_recursion(m: MVector | Sequence[float]) -> SpinorChain:
    """Spinor chain generated from the m-variables.

    Starts at (0, m_0) and steps by
        eta_{j+1} = (-xi_j + eta_j m_{j+1}) / g_j,
        xi_{j+1}  = (eta_{j+1}/eta_j) xi_j + 1/eta_j,
    with g_j = kappa_plus_one(m, j).  The positive branch of the defining
    quadratic is always taken; for symmetric inputs later eta_j can still
    come out negative, which is recorded, not corrected.
    """
    vals = _m_values(m)
    n = len(vals)
    if vals[0] == 0.0:
        raise NumericFailure("degenerate chain: m_0 = 0 gives eta_0 = 0")
    xs = [0.0]
    es = [vals[0]]
    for j in range(n - 1):
        g = kappa_plus_one(vals, j)
        if g <= 0.0:
            raise ValueError(f"non-positive curvature product g_{j} = {g}")
        if es[j] == 0.0:
            raise NumericFailure(f"degenerate chain: eta_{j} = 0")
        eta_next = (-xs[j] + es[j] * vals[j + 1]) / g
        xi_next = (eta_next / es[j]) * xs[j] + 1.0 / es[j]
        xs.append(xi_next)
        es.append(eta_next)
    if es[-1] == 0.0:
        raise NumericFailure(f"degenerate chain: eta_{n - 1} = 0")
    return SpinorChain(tuple(Spinor(x, e) for x, e in zip(xs, es)))


def eta_closed_form(m: MVector | Sequence[float], j: int) -> float:
    """eta_j directly from the m-variables:
    2 Re(prod_{k<=j}(m_k - i)) over twice the alternating (m^2 + 1) product,
    with an m_0 factor on the side depending on the parity of j."""
    vals = _m_values(m)
    if not 0 <= j < len(vals):
        raise ValueError(f"index {j} out of range")
    if j == 0:
        return vals[0]
    p_minus = complex(1.0, 0.0)
    for k in range(1, j + 1):
        p_minus *= complex(vals[k], -1.0)
    s = p_minus + p_minus.conjugate()
    if abs(s.imag) > 1e-12 * max(1.0, abs(p_minus)):
        raise NumericFailure(f"imaginary residue {s.imag} in closed-form evaluation")
    if j % 2 == 0:
        den = 2.0
        for k in range(1, j // 2 + 1):
            den *= vals[2 * k - 1] * vals[2 * k - 1] + 1.0
        return vals[0] * s.real / den
    den = 2.0 * vals[0]
    for k in range(1, (j - 1) // 2 + 1):
        den *= vals[2 * k] * vals[2 * k] + 1.0
    if den == 0.0:
        raise ValueError("zero denominator: m_0 = 0")
    return s.real / den


def xi_from_etas(etas: Sequence[float], j: int) -> float:
    """xi_j from the eta values by the telescoping sum:
    1/eta_{j-1} + eta_j * sum_{k=1}^{j-1} 1/(eta_{k-1} eta_k)."""
    if j < 1 or j >= len(etas):
        raise ValueError(f"index {j} out of range")
    if any(e == 0.0 for e in etas[: j + 1]):
        raise ValueError("zero eta in telescoping sum")
    acc = sum(1.0 / (etas[k - 1] * etas[k]) for k in range(1, j))
    return 1.0 / etas[j - 1] + etas[j] * acc


def closure_residuals(chain: SpinorChain) -> tuple[float, float]:
    """How far the chain is from closing into a flower.

    Returns (bracket residual, eta-sum residual): the closing bracket plus 1,
    and sum 1/(eta_j eta_{j+1}) minus 1/(eta_0 eta_{n-1}).  Both vanish
    exactly on chains of genuine flowers.
    """
    s = chain.spinors
    n = len(s)
    bres = bracket(s[0], s[n - 1]) + 1.0
    es = chain.etas
    eres = sum(1.0 / (es[j] * es[j + 1]) for j in range(n - 1)) - 1.0 / (es[0] * es[n - 1])
    return bres, eres


@dataclass(frozen=True)
class ParallelogramInvariants:
    """Oriented areas and dot products of consecutive chain vectors
    z_j = (xi_j, eta_j).

    areas[j-1] = Im(z_{j-1} conj(z_j)), +1 on flowers; closing_area is the
    first/last pair taken with reversed orientation, Im(conj(z_0) z_{n-1}),
    -1 on flowers; dots[j-1] = Re(z_{j-1} conj(z_j)), m_j on flowers.
    """

    areas: tuple[float, ...]
    closing_area: float
    dots: tuple[float, ...]


def parallelogram_invariants(chain: SpinorChain) -> ParallelogramInvariants:
    s = chain.spinors
    n = len(s)
    areas = tuple(s[j - 1].eta * s[j].xi - s[j - 1].xi * s[j].eta for j in range(1, n))
    dots = tuple(s[j - 1].xi * s[j].xi + s[j - 1].eta * s[j].eta for j in range(1, n))
    closing = s[0].xi * s[n - 1].eta - s[0].eta * s[n - 1].xi
    return ParallelogramInvariants(areas, closing, dots)


def flat_curvatures(chain: SpinorChain) -> list[float]:
    """Euclidean curvatures 2 eta_j^2 of the chain's horocycles."""
    return [2.0 * e * e for e in chain.etas]


def flat_flower_residual(kappas: Sequence[float]) -> float:
    """Closure residual of a flat flower with the given horocycle curvatures:
    sum_j 1/sqrt(k_j k_{j+1}) - 1/sqrt(k_0 k_{n-1})."""
    ks = [float(k) for k in kappas]
    if len(ks) < 3:
        raise ValueError("need at least 3 curvatures")
    if any(not math.isfinite(k) or k <= 0.0 for k in ks):
        raise ValueError("curvatures must be positive and finite")
    n = len(ks)
    return sum(1.0 / math.sqrt(ks[j] * ks[j + 1]) for j in range(n - 1)) - 1.0 / math.sqrt(
        ks[0] * ks[n - 1]
    )


@dataclass(frozen=True)
class GeometricChain:
    """Spinor chain built from an actual layout, with its bookkeeping.

    chain position i corresponds to petal (start + i) mod n of the input;
    disc_curvatures are the Euclidean curvatures of the inverted petals in
    chain order.
    """

    chain: SpinorChain
    start: int
    central_curvature: float
    disc_curvatures: tuple[float, ...]


def geometric_spinor_chain(
    petal_curvatures: Sequence[float], tol: float = 1e-12, start: int | None = None
) -> GeometricChain:
    """Run a flower through the whole geometric pipeline and return the
    resulting spinor chain: lay out, rescale to a unit central circle, invert
    the petals into the disc, move to the upper half-plane, and take the
    eta > 0 spinor of each horocycle, translated so the chain starts at 0.

    All eta are positive here, unlike in spinor_recursion.  The chain is cut
    at the widest gap by default (best numerical conditioning); pass `start`
    to cut before a specific petal instead.
    """
    ks = [float(k) for k in petal_curvatures]
    if len(ks) < 3:
        raise ValueError("a flower needs at least 3 petals")
    if any(not math.isfinite(k) or k <= 0.0 for k in ks):
        raise ValueError("petal curvatures must be positive and finite")
    n = len(ks)
    layout = layout_flower([1.0 / k for k in ks], tol)
    R = layout.central.r
    gaps = layout.gap_angles
    if start is None:
        # widest gap precedes the chain start
        start = (max(range(n), key=lambda j: gaps[j]) + 1) % n
    order = [(start + i) % n for i in range(n)]
    gaps_o = [gaps[j] for j in order]

    # Tangency angles in (0, 2 pi): rotate so the cut gap straddles angle 0.
    delta = gaps_o[-1] / 2.0
    spinors = []
    disc_curv = []
    theta = delta
    for i, j in enumerate(order):
        r_norm = layout.petals[j].r / R
        d_norm = 1.0 + r_norm
        petal = Circle(d_norm * math.cos(theta), d_norm * math.sin(theta), r_norm)
        image = invert_in_unit_circle(petal)
        disc_curv.append(image.curvature)
        h = disc_horocycle_to_uhp(DiscHorocycle(theta, image.r))
        spinors.append(horocycle_to_spinor(h))
        theta += gaps_o[i]

    p0 = spinors[0].xi / spinors[0].eta
    shifted = [Spinor(0.0, spinors[0].eta)]
    shifted += [Spinor(s.xi - p0 * s.eta, s.eta) for s in spinors[1:]]
    return GeometricChain(SpinorChain(tuple(shifted)), start, 1.0 / R, tuple(disc_curv))


@dataclass(frozen=True)
class CentralSolve:
    """Central curvature of a flower with its cross-check data."""

    central_curvature: float  # geometric (angle-sum) root
    polished_curvature: float  # root of the relation residual
    residual: float  # phase-form residual at the geometric root
    residual_scale: float


def solve_report(petals: Sequence[float], tol: float = 1e-9) -> CentralSolve:
    """Solve for the central curvature and verify it two ways.

    The geometric root comes from the angle-sum bisection on radii; the
    relation residual at that root must vanish to `tol` relative to the term
    magnitude, and an independent bisection of the residual inside a +-10%
    bracket must land on the same root to `tol`.
    """
    ks = [float(k) for k in petals]
    if len(ks) < 3:
        raise ValueError("a flower needs at least 3 petals")
    if any(not math.isfinite(k) or k <= 0.0 for k in ks):
        raise ValueError("petal curvatures must be positive and finite")
    if not tol > 0.0:
        raise ValueError("tol must be positive")

    R = solve_central_radius([1.0 / k for k in ks])
    k0 = 1.0 / R
    m = m_from_normalized([k / k0 for k in ks])
    res, scale = residual_with_scale(m)
    if not (math.isfinite(res) and math.isfinite(scale)):
        raise NumericFailure(f"relation residual is not finite at n = {len(ks)}: {res} vs {scale}")
    if abs(res) > tol * scale:
        raise NumericFailure(
            f"geometric root fails the relation: residual {res:.3e}, scale {scale:.3e}"
        )

    def f(k: float) -> float:
        return descartes_residual_complex(m_from_normalized([p / k for p in ks]))

    lo, hi = 0.9 * k0, 1.1 * k0
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        kp = lo
    elif fhi == 0.0:
        kp = hi
    elif (flo > 0.0) == (fhi > 0.0):
        raise NumericFailure("relation residual does not change sign across the +-10% bracket")
    else:
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            fm = f(mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0.0) == (flo > 0.0):
                lo, flo = mid, fm
            else:
                hi = mid
        kp = 0.5 * (lo + hi)
    if abs(kp - k0) > tol * max(1.0, abs(k0)):
        raise NumericFailure(
            f"geometric and relation roots disagree: {k0!r} vs {kp!r}"
        )
    return CentralSolve(k0, kp, res, scale)


def solve_central_curvature(petals: Sequence[float], tol: float = 1e-9) -> float:
    """Central curvature of the flower with the given petal curvatures."""
    return solve_report(petals, tol).central_curvature
