"""The generalized Descartes relation for n-flowers, in the m-variables.

Normalize a flower so the central circle is the unit circle; write k_j for
the normalized petal curvatures.  The auxiliary variables

    m_0 = sqrt(k_0 + 1),   m_j = sqrt((k_j + 1)(k_{j-1} + 1) - 1)

satisfy a single polynomial equation exactly when the curvatures close up
into a flower.  Its left side, Im prod_{j>=1}(m_j + i) (times m_0^2 for
odd n), is |P| sin(theta) with theta = sum_j atan2(1, m_j).  Because
m_j^2 + 1 = (k_j + 1)(k_{j-1} + 1), the right side over |P| is
t = 1/sqrt((k_0 + 1)(k_{n-1} + 1)), so the relation divided by |P| is
sin(theta) - t: O(n), finite for every n, and the one form on the solve
path (the check of the geometric root, the root bisection and `verify`).
The relation is homogeneous, so that path passes the unnormalized petal
curvatures with a candidate central curvature, and one pass divides each
petal by it and forms each m_j and its angle, keeping no list of
normalized curvatures or m-variables.
The complex product and a subset sum of elementary symmetric polynomials
keep the absolute scale; they are public API and the tests' reference
forms.  The polynomial itself is expanded over the integers, and the
central curvature solver cross-checks the equation's root against the
geometric angle-sum oracle from the layout module.

The same m-variables drive a recursion producing spinor coordinates
(xi_j, eta_j) of the flat flower: with z_j = xi_j + i eta_j each step is
z_j = (m_j - i) z_{j-1} / |z_{j-1}|^2, consecutive brackets are -1 by
construction, and the closing bracket returns to -1 exactly on flowers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import itemgetter
from typing import Sequence

from .euclid import (
    NumericFailure,
    _checked_petals,
    _inverted,
    _positive_finite,
    _solved_flower,
    solve_central_radius,
)
from .hyperbolic import Spinor, _bracket_is_minus_one, _disc_to_uhp, _spinor_coordinates, bracket
from .polynomial import PolynomialZZ

# Cap for descartes_polynomial alone: its expansion has 2^(n-2) lhs terms and
# 2^floor((n-1)/2) rhs terms (for even n the two constants merge or cancel),
# about 4.2 million at n = 24.
MAX_POLYNOMIAL_N = 24

# descartes_polynomial keeps the polynomials up to this n for the life of the
# process: n = 3..12 together, with their serialized text, hold about 0.45 MB
# (tracemalloc), while n = 14 alone would hold 1.0 MB and n = 18 18.8 MB.
_KEPT_N = 12

_BRACKET_TOL = 1e-9


@dataclass(frozen=True)
class SpinorChain:
    """Spinors of a flat flower: xi_0 = 0, eta_0 > 0, and each consecutive
    bracket equals -1, within 1e-9 of max(1, |z_j||z_{j+1}|) with
    z = xi + i eta (a NaN or infinite bracket never does).  eta_j of later
    spinors may carry either sign or be 0, a horocycle tangent at infinity;
    the closing bracket is -1 exactly when the chain comes from a genuine
    flower."""

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
            if not _bracket_is_minus_one(s[j], s[j + 1], _BRACKET_TOL):
                b = bracket(s[j], s[j + 1])
                raise ValueError(f"consecutive bracket {j},{j + 1} is {b}, expected -1")

    def __len__(self) -> int:
        return len(self.spinors)

    def __getitem__(self, j: int) -> Spinor:
        return self.spinors[j]

    @property
    def xis(self) -> tuple[float, ...]:
        return tuple([s.xi for s in self.spinors])

    @property
    def etas(self) -> tuple[float, ...]:
        return tuple([s.eta for s in self.spinors])


def _m_values(m: Sequence[float], minimum: int = 3) -> tuple[float, ...]:
    vals = tuple(map(float, m))
    if len(vals) < minimum:
        raise ValueError(f"need at least {minimum} m-variables, got {len(vals)}")
    return vals


def m_from_normalized(kappas: Sequence[float]) -> tuple[float, ...]:
    """m-variables of normalized petal curvatures (central curvature 1);
    a negative radicand or a non-finite value raises ValueError."""
    ps = [k + 1.0 for k in map(float, kappas)]
    if len(ps) < 3:
        raise ValueError("need at least 3 petal curvatures")
    rads = [ps[0]] + [a * b - 1.0 for a, b in zip(ps[1:], ps)]
    for j, rad in enumerate(rads):
        if rad < 0.0:
            raise ValueError(f"negative radicand {rad} at index {j}")
    m = tuple(map(math.sqrt, rads))
    for v in m:
        if not math.isfinite(v):
            raise ValueError(f"m-variables must be finite and >= 0, got {v}")
    return m


def kappa_plus_one(m: Sequence[float], j: int) -> float:
    """Normalized petal curvature plus one, reconstructed from the
    m-variables: m_0^2 times the even-index (m^2 + 1) product over 2..j,
    against the odd-index one over 1..j, the even product on top for even j
    (so j = 0 gives m_0^2)."""
    vals = _m_values(m, minimum=1)
    if not 0 <= j < len(vals):
        raise ValueError(f"index {j} out of range for {len(vals)} variables")
    even = _factor_product(vals, range(2, j + 1, 2), vals[0] * vals[0])
    odd = _factor_product(vals, range(1, j + 1, 2))
    if j % 2 == 0:
        return even / odd
    if even == 0.0:
        raise ValueError("zero denominator: m_0 = 0 in the odd case")
    return odd / even


def _factor_product(vals: Sequence[float], indices: Sequence[int], start: float = 1.0) -> float:
    """start * prod_{k in indices}(m_k^2 + 1), multiplied in index order."""
    for k in indices:
        start *= vals[k] * vals[k] + 1.0
    return start


def _rhs_product(vals: Sequence[float]) -> float:
    """Product of (m^2 + 1) over odd indices (odd n) or even indices (even n)."""
    n = len(vals)
    return _factor_product(vals, range(1, n - 1, 2) if n % 2 else range(2, n - 1, 2))


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


def descartes_lhs_subset(m: Sequence[float]) -> float:
    """Left side of the relation in subset-sum form (m_0^2 times the signed
    subset sum for odd n, the bare sum for even n)."""
    return _subset_sum(_m_values(m))[0]


def descartes_residual_subset(m: Sequence[float]) -> float:
    """Relation residual, real subset-sum form: lhs - rhs.  Zero exactly on
    m-vectors of flowers."""
    vals = _m_values(m)
    return descartes_lhs_subset(vals) - _rhs_product(vals)


def descartes_residual_scale(m: Sequence[float]) -> float:
    """Total magnitude of the relation's terms; residuals are compared
    relative to this."""
    vals = _m_values(m)
    return _subset_sum(vals)[1] + _rhs_product(vals)


def residual_with_scale(m: Sequence[float]) -> tuple[float, float]:
    """Relation residual and term magnitude, both divided by the lhs
    magnitude |P| = prod_{j>=1} |m_j + i| (times m_0^2 for odd n), in O(n):
    (sin(theta) - t, 1 + t) with theta = sum_j atan2(1, m_j).  Since
    m_j^2 + 1 = p_j p_{j-1} for p_j = kappa_j + 1, the rhs over that |P| is
    t = 1/sqrt(p_0 p_{n-1}).  p_{n-1} comes from p_0 = m_0^2 and
    p_j = (m_j^2 + 1)/p_{j-1}, run on the square roots (sqrt(p_j) =
    hypot(m_j, 1)/sqrt(p_{j-1})) so that no product is formed and nothing
    overflows.  The relative residual is that of the complex and subset
    forms; m_0 = 0 raises ValueError.
    """
    vals = _m_values(m)
    if vals[0] == 0.0:
        raise ValueError("zero denominator: m_0 = 0")
    root_p = vals[0]
    for v in vals[1:]:
        root_p = math.hypot(v, 1.0) / root_p
    return _phase_form(vals, 1.0 / (vals[0] * root_p))


def _phase_form(vals: Sequence[float], t: float) -> tuple[float, float]:
    """residual_with_scale's kernel: (sin(theta) - t, 1 + t) for the
    m-variables vals and the rhs-over-|P| value t."""
    theta = 0.0
    for v in vals[1:]:
        theta += math.atan2(1.0, v)
    return math.sin(theta) - t, 1.0 + t


def _normalized_relation(petals: Sequence[float], k: float) -> tuple[float, float]:
    """The relation over |P| at petal curvatures petals (3 or more, each
    >= 0) and central curvature k, in one pass: (sin(theta) - t, 1 + t),
    theta summing atan2(1, m_j) with m_j = sqrt(p_j p_{j-1} - 1),
    p_j = petals[j] / k + 1, and t = 1/sqrt(p_0 p_{n-1}) in [0, 1].  The
    relation is homogeneous, so dividing by k here is the whole
    normalization: no caller builds a list of normalized curvatures.  It
    forms the float operations of _phase_form(m_from_normalized(
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


def descartes_residual_complex(m: Sequence[float]) -> float:
    """Relation residual via the complex product form: Im prod_{j>=1}(m_j + i),
    exactly (i/2)(prod(m_j - i) - prod(m_j + i)) for real m_j, times m_0^2
    for odd n, minus the same rhs product.  Public API and a reference form
    for the tests; the solver uses the phase form."""
    vals = _m_values(m)
    p_plus = complex(1.0, 0.0)
    for v in vals[1:]:
        p_plus *= complex(v, 1.0)
    lhs = p_plus.imag
    if len(vals) % 2:
        lhs *= vals[0] * vals[0]
    return lhs - _rhs_product(vals)


def _monomial_terms(n: int, coeff: int, lead: int, positions: range, size: int, power: int):
    """Terms coeff * m_0^lead * prod_{k in S} m_k^power over the subsets S of
    `positions` with |S| = size.  combinations of an ascending range come in
    lexicographic order of index tuples, which is descending lexicographic
    order of the exponent vectors."""
    out = []
    for combo in combinations(positions, size):
        exps = [0] * n
        exps[0] = lead
        for k in combo:
            exps[k] = power
        out.append((coeff, tuple(exps)))
    return out


def descartes_polynomial(n: int) -> PolynomialZZ:
    """The relation lhs - rhs as an exact integer polynomial in
    m_0..m_{n-1}, terms in graded lexicographic order.

    The lhs has 2^(n-2) terms +-m_0^(2[n odd]) prod_{k in S} m_k, S running
    over the subsets of {1..n-1} with |S| = n (mod 2) and sign
    (-1)^((n-2-|S|)/2); the rhs prod_{k in idx}(m_k^2 + 1) contributes the
    2^floor((n-1)/2) terms -prod_{k in T} m_k^2, T a subset of idx (the odd
    indices of 1..n-2 for odd n, the even ones for even n).  The two
    families share only the constant exponent vector, so the terms are
    written out degree by degree, each family already in order and one sort
    per degree merging the two runs, and no coefficient is ever summed but
    the constant: -1 for odd n, -2 for n = 0 (mod 4), none for n = 2 (mod 4).
    Exponential in n; capped at n = MAX_POLYNOMIAL_N.  Polynomials up to
    n = _KEPT_N are built once per process and the same instance is
    returned on every later call; larger ones are built on each call.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n > MAX_POLYNOMIAL_N:
        raise ValueError(f"subset enumeration capped at n = {MAX_POLYNOMIAL_N}")
    if n <= _KEPT_N:
        return _relation_polynomial(n)
    return _relation_polynomial.__wrapped__(n)


@lru_cache(maxsize=None, typed=True)
def _relation_polynomial(n: int) -> PolynomialZZ:
    """descartes_polynomial(n) without the bounds check.  typed=True keeps
    5.0 apart from 5, so a float n still fails as it does uncached."""
    odd = n % 2
    idx = range(1, n - 1, 2) if odd else range(2, n - 1, 2)
    terms = []
    for degree in range(n if odd else n - 2, 0, -1):
        size = degree - 2 * odd
        lhs = []
        if degree % 2 == odd and size >= 0:
            sign = -1 if (n - 2 - size) // 2 % 2 else 1
            lhs = _monomial_terms(n, sign, 2 * odd, range(1, n), size, 1)
        rhs = []
        if degree % 2 == 0:
            rhs = _monomial_terms(n, -1, 0, idx, degree // 2, 2)
        terms += sorted(lhs + rhs, key=itemgetter(1), reverse=True)
    constant = -1 if odd else (-2 if n % 4 == 0 else 0)
    if constant:
        terms.append((constant, (0,) * n))
    return PolynomialZZ(n, tuple(terms))


def spinor_recursion(m: Sequence[float]) -> SpinorChain:
    """Spinor chain generated from the m-variables.

    Starts at z_0 = i m_0 and steps by z_j = (m_j - i) z_{j-1} / g, with
    z = xi + i eta and g = |z_{j-1}|^2, which is kappa_plus_one(m, j - 1):
        xi_j  = (m_j xi_{j-1} + eta_{j-1}) / g,
        eta_j = (m_j eta_{j-1} - xi_{j-1}) / g.
    The only division is by that positive norm, so an eta_j of 0 (a
    horocycle tangent at infinity, as in symmetric flowers of even n) is an
    ordinary step.  Later eta_j can come out negative, which is recorded,
    not corrected.
    """
    vals = _m_values(m)
    if vals[0] == 0.0:
        raise NumericFailure("degenerate chain: m_0 = 0 gives eta_0 = 0")
    xi, eta = 0.0, vals[0]
    spinors = [Spinor(xi, eta)]
    for mj in vals[1:]:
        g = xi * xi + eta * eta
        xi, eta = (mj * xi + eta) / g, (mj * eta - xi) / g
        spinors.append(Spinor(xi, eta))
    return SpinorChain(tuple(spinors))


def eta_closed_form(m: Sequence[float], j: int) -> float:
    """eta_j directly from the m-variables:
    2 Re(prod_{k<=j}(m_k - i)) over twice the alternating (m^2 + 1) product,
    with an m_0 factor on the side depending on the parity of j."""
    vals = _m_values(m)
    if not 0 <= j < len(vals):
        raise ValueError(f"index {j} out of range")
    p_minus = complex(1.0, 0.0)
    for k in range(1, j + 1):
        p_minus *= complex(vals[k], -1.0)
    if j % 2 == 0:
        return vals[0] * (2.0 * p_minus.real) / _factor_product(vals, range(1, j, 2), 2.0)
    den = _factor_product(vals, range(2, j, 2), 2.0 * vals[0])
    if den == 0.0:
        raise ValueError("zero denominator: m_0 = 0")
    return 2.0 * p_minus.real / den


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
    exactly on chains of genuine flowers whose horocycles all have finite
    tangency.  The eta-sum residual means nothing when a horocycle is tangent
    at infinity (eta near 0): four equal petals give -1.0 while the bracket
    closes.  An eta of exactly 0 raises NumericFailure.
    """
    s = chain.spinors
    n = len(s)
    bres = bracket(s[0], s[n - 1]) + 1.0
    es = chain.etas
    if 0.0 in es:
        raise NumericFailure(f"eta_{es.index(0.0)} = 0: the eta-sum residual is undefined")
    eres = sum([1.0 / (es[j] * es[j + 1]) for j in range(n - 1)]) - 1.0 / (es[0] * es[n - 1])
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
    ks = _checked_petals(kappas, "curvatures")
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


def geometric_spinor_chain(petal_curvatures: Sequence[float]) -> GeometricChain:
    """Run a flower through the whole geometric pipeline and return the
    resulting spinor chain: lay out, rescale to a unit central circle, invert
    the petals into the disc, move to the upper half-plane, and take the
    eta > 0 spinor of each horocycle, translated so the chain starts at 0.

    It builds only the spinors it returns.  R and the gap angles come from
    euclid._solved_flower, as in layout_flower, so no layout or placed petal
    is built, and a flower just laid out is not solved again.  Per petal,
    the inverted radius, the half-plane horocycle and the spinor coordinates
    are floats from _inverted, _disc_to_uhp and _spinor_coordinates, the
    helpers that invert_in_unit_circle, disc_horocycle_to_uhp and
    horocycle_to_spinor call, so no Circle, DiscHorocycle or Horocycle is
    built; _disc_to_uhp applies the horocycle classes' rules (disc radius in
    (0, 1), no tangency at 1, a positive, finite image radius).  The result
    equals the composition of those public functions to the bit.

    All eta are positive here, unlike in spinor_recursion.  The chain is cut
    at the widest gap (best numerical conditioning); `start` of the result
    says where.
    """
    ks = _checked_petals(petal_curvatures)
    n = len(ks)
    radii = tuple([1.0 / k for k in ks])
    R, gaps = _solved_flower(radii)
    # widest gap precedes the chain start
    start = (max(range(n), key=gaps.__getitem__) + 1) % n

    # Tangency angles in (0, 2 pi): rotate so the cut gap straddles angle 0.
    theta = gaps[start - 1] / 2.0
    spinors = []
    disc_curv = []
    for j in [*range(start, n), *range(start)]:
        r_norm = radii[j] / R
        d_norm = 1.0 + r_norm
        rho = _inverted(d_norm * math.cos(theta), d_norm * math.sin(theta), r_norm)[2]
        xi, eta = _spinor_coordinates(*_disc_to_uhp(theta, rho))
        disc_curv.append(1.0 / rho)
        if spinors:
            spinors.append(Spinor(xi - p0 * eta, eta))
        else:  # translate the chain so that it starts at 0
            spinors.append(Spinor(0.0, eta))
            p0 = xi / eta
        theta += gaps[j]
    return GeometricChain(SpinorChain(tuple(spinors)), start, 1.0 / R, tuple(disc_curv))


@dataclass(frozen=True)
class CentralSolve:
    """Central curvature of a flower with its cross-check data."""

    central_curvature: float  # geometric (angle-sum) root
    polished_curvature: float  # root of the relation residual
    residual: float  # relation over |P| at the geometric root: sin(theta) - t
    residual_scale: float  # term magnitude over |P|: 1 + t, in (1, 2]


def solve_report(petals: Sequence[float], tol: float = 1e-9) -> CentralSolve:
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

    k0 = 1.0 / solve_central_radius([1.0 / k for k in ks])
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


def solve_central_curvature(petals: Sequence[float], tol: float = 1e-9) -> float:
    """Central curvature of the flower with the given petal curvatures."""
    return solve_report(petals, tol).central_curvature
