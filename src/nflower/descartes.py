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
That path is the module `solve`, which imports only `euclid`; its names
are re-exported here.
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
from typing import TYPE_CHECKING, Sequence

from .euclid import NumericFailure, _checked_petals, _solved_flower
from .expansion import MAX_POLYNOMIAL_N, _relation_terms
from .hyperbolic import Spinor, _bracket_is_minus_one, bracket

# Re-exported, with MAX_POLYNOMIAL_N above: the names of the solve path.
from .solve import CentralSolve, _normalized_relation, solve_central_curvature, solve_report

if TYPE_CHECKING:
    from .polynomial import PolynomialZZ

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


def descartes_polynomial(n: int) -> PolynomialZZ:
    """The relation lhs - rhs as an exact integer polynomial in
    m_0..m_{n-1}, terms in graded lexicographic order, built from the term
    stream of `expansion`, which says what the terms are.  Exponential in n;
    capped at n = MAX_POLYNOMIAL_N.  Polynomials up to n = _KEPT_N are built
    once per process and the same instance is returned on every later call;
    larger ones are built on each call.
    """
    if n <= _KEPT_N:
        return _relation_polynomial(n)
    return _relation_polynomial.__wrapped__(n)


@lru_cache(maxsize=None, typed=True)
def _relation_polynomial(n: int) -> PolynomialZZ:
    """descartes_polynomial(n), kept.  typed=True keeps 5.0 apart from 5, so
    a float n still fails as it does uncached."""
    # Imported here, where a polynomial is built, so that the `spinors`
    # command, which imports this module, does not load it.
    from .polynomial import PolynomialZZ

    return PolynomialZZ(n, tuple(_relation_terms(n)))


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
    -1 on flowers; dots[j-1] = Re(z_{j-1} conj(z_j)), m_j on the chains that
    spinor_recursion builds from flowers.  geometric_spinor_chain's chain of
    a flower is that one moved by an SL2(R) map, which keeps the areas but
    not the dots.
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
    """Spinor chain of the flower's own horocycles, in closed form.

    Rescaled to a unit central circle and inverted in it, petal j becomes
    the disc horocycle tangent at angle theta_j with radius rho = r/(1 + 2r),
    r = r_j/R, so its disc curvature is 2 + R/r_j and (1 - rho)/rho is
    q_j^2 = 1 + R/r_j.  Its eta > 0 spinor in the upper half-plane, less
    cot(theta_0/2) eta_j so that the chain starts at 0, is

        eta_j = q_j sin(theta_j/2),
        xi_j  = q_j sin((theta_j - theta_0)/2) / sin(theta_0/2),

    by cot a - cot b = sin(b - a)/(sin a sin b).  R and the gap angles come
    from euclid._solved_flower, as in layout_flower.  The chain is cut at
    the widest gap, which `start` records: theta_0 is half that gap and
    theta_j - theta_0 a running sum of the others, so no tangency is formed
    as a difference and sin(theta_0/2) is at least sin(pi/(2n)).

    All eta are positive, unlike in spinor_recursion.  Once the petals pass
    their check, a disc curvature that overflows or a chain that fails
    SpinorChain's check raises NumericFailure, not ValueError; where the
    disc curvatures are finite, so are q_j and every spinor component.
    """
    ks = _checked_petals(petal_curvatures)
    n = len(ks)
    radii = tuple([1.0 / k for k in ks])
    R, gaps = _solved_flower(radii)
    # widest gap precedes the chain start
    start = (max(range(n), key=gaps.__getitem__) + 1) % n

    half0 = gaps[start - 1] / 4.0  # theta_0 / 2
    sin0 = math.sin(half0)
    spinors = []
    disc_curv = []
    half = 0.0  # (theta_j - theta_0) / 2
    for j in [*range(start, n), *range(start)]:
        disc = 2.0 + R / radii[j]
        if disc == math.inf:
            raise NumericFailure(f"geometric_spinor_chain: disc curvature of petal {j} overflows")
        q = math.sqrt(disc - 1.0)
        disc_curv.append(disc)
        spinors.append(Spinor(q * (math.sin(half) / sin0), q * math.sin(half0 + half)))
        half += gaps[j] / 2.0
    try:
        chain = SpinorChain(tuple(spinors))
    except ValueError as exc:
        raise NumericFailure(f"geometric_spinor_chain: {exc}") from exc
    return GeometricChain(chain, start, 1.0 / R, tuple(disc_curv))
