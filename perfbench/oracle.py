"""Checks of nflower's outputs, computed apart from the program.

Nothing here imports nflower.  Each check raises CheckFailed with a reason
when an output is wrong; a run counts the operation as failed.  The
reference computations are:

* central curvature: the half-angle gap sum
  sum 2 atan(sqrt(r_a r_b / (R (R + r_a + r_b)))) over consecutive petals
  equals 2 pi at R = 1/k0, plus the classic Descartes formula for n = 3 and
  k0 = k s / (1 - s), s = sin(pi/n), for n equal petals;
* layouts: tangency recomputed from centres and radii;
* SVG: the circles parsed back with xml.etree;
* spinor chains: consecutive and closing brackets equal -1, and the
  flat-flower sum closes;
* relation polynomials: parsed here, they vanish at the m-variables of a
  flower solved here, and at other points equal
  Im prod_{j>=1}(m_j + i) (times m_0^2 for odd n) - prod_K (m_k^2 + 1).
"""

from __future__ import annotations

import json
import math
import re
import xml.etree.ElementTree as ET

TWO_PI = 2.0 * math.pi

# The solver contract: answers agree with the truth to 1e-9 relative.
SOLVE_TOL = 1e-9
# Tangency of a realised flower, relative to the sizes involved.
TANGENCY_TOL = 1e-9
# Brackets and the flat-flower sum of a chain.
CHAIN_TOL = 1e-8
# Numbers printed at 12 significant digits.
PRINT12_TOL = 1e-11

_SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float, floor: float = 1.0) -> bool:
    return abs(a - b) <= rel * max(floor, abs(a), abs(b))


# ---------------------------------------------------------------- curvature

def gap_sum(R: float, radii) -> float:
    """Half-angle form of the central angle sum of a flower."""
    n = len(radii)
    total = 0.0
    for j in range(n):
        a, b = radii[j], radii[(j + 1) % n]
        total += 2.0 * math.atan(math.sqrt(a * b / (R * (R + a + b))))
    return total


def _gap_sum_log_slope(R: float, radii) -> float:
    """R times the derivative of gap_sum in R (negative)."""
    n = len(radii)
    total = 0.0
    for j in range(n):
        a, b = radii[j], radii[(j + 1) % n]
        u = a * b / (R * (R + a + b))
        total -= math.sqrt(u) * (2.0 * R + a + b) / ((1.0 + u) * (R + a + b))
    return total


def central_curvature(petals) -> float:
    """Central curvature by bisection on the half-angle gap sum."""
    radii = [1.0 / k for k in petals]
    lo = hi = sum(radii) / len(radii)
    while gap_sum(lo, radii) <= TWO_PI:
        lo *= 0.5
    while gap_sum(hi, radii) >= TWO_PI:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return 2.0 / (lo + hi)
        if gap_sum(mid, radii) > TWO_PI:
            lo = mid
        else:
            hi = mid


def check_central(petals, k0: float) -> None:
    """k0 closes the flower of the given petal curvatures to SOLVE_TOL relative."""
    _require(isinstance(k0, float) and math.isfinite(k0) and k0 > 0.0, f"bad curvature {k0!r}")
    radii = [1.0 / k for k in petals]
    R = 1.0 / k0
    rel = abs(gap_sum(R, radii) - TWO_PI) / abs(_gap_sum_log_slope(R, radii))
    _require(rel <= SOLVE_TOL, f"central curvature {k0!r} misses the gap-sum oracle by {rel:.2e}")
    n = len(petals)
    if n == 3:
        k1, k2, k3 = petals
        classic = k1 + k2 + k3 + 2.0 * math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
        _require(_close(k0, classic, SOLVE_TOL, 0.0), f"{k0!r} differs from Descartes' {classic!r}")
    if all(k == petals[0] for k in petals):
        s = math.sin(math.pi / n)
        closed = petals[0] * s / (1.0 - s)
        _require(_close(k0, closed, SOLVE_TOL, 0.0), f"{k0!r} differs from the closed form {closed!r}")


def m_variables(petals, k0: float) -> list[float]:
    """m_0 = sqrt(kappa_0 + 1), m_j = sqrt((kappa_j + 1)(kappa_{j-1} + 1) - 1)
    of the curvatures normalised by k0."""
    kp = [k / k0 + 1.0 for k in petals]
    return [math.sqrt(kp[0])] + [math.sqrt(kp[j] * kp[j - 1] - 1.0) for j in range(1, len(kp))]


# ------------------------------------------------------------------ layouts

def check_layout(petals, circles) -> None:
    """circles = [(cx, cy, r)], central first, realise the flower."""
    n = len(petals)
    _require(len(circles) == n + 1, f"{len(circles)} circles for {n} petals")
    cx, cy, R = circles[0]
    check_central(petals, 1.0 / R)
    ring = circles[1:]
    for j, ((px, py, r), k) in enumerate(zip(ring, petals)):
        _require(_close(r, 1.0 / k, 1e-12, 0.0), f"petal {j} radius {r!r} is not 1/{k!r}")
        d = math.hypot(px - cx, py - cy)
        _require(abs(d - (R + r)) <= TANGENCY_TOL * (R + r), f"petal {j} is off the central circle")
        qx, qy, q = ring[(j + 1) % n]
        d = math.hypot(px - qx, py - qy)
        _require(abs(d - (r + q)) <= TANGENCY_TOL * (R + r + q), f"petals {j}, {j + 1} do not touch")


# ---------------------------------------------------------------- documents

def check_document_json(text: str, n: int, central: float, petals, circles) -> None:
    """stdlib json reads back exactly the numbers of the document."""
    raw = json.loads(text)
    _require(raw["n"] == n, "document n differs")
    _require(raw["central_curvature"] == central, "document central curvature differs")
    _require(raw["petal_curvatures"] == list(petals), "document petal curvatures differ")
    _require([tuple(c) for c in raw["circles"]] == [tuple(c) for c in circles],
             "document circles differ")


# ---------------------------------------------------------------------- svg

def check_svg(text: str, circles) -> None:
    """The SVG holds one circle per (cx, cy, r), y-axis flipped, at 12 digits."""
    root = ET.fromstring(text)
    found = root.findall(f"{_SVG_NS}circle")
    _require(len(found) == len(circles), f"SVG has {len(found)} circles, expected {len(circles)}")
    span = max(abs(v) for c in circles for v in c)
    for el, (cx, cy, r) in zip(found, circles):
        got = (float(el.get("cx")), -float(el.get("cy")), float(el.get("r")))
        for g, want in zip(got, (cx, cy, r)):
            _require(abs(g - want) <= PRINT12_TOL * span, f"SVG circle {got} is not {(cx, cy, r)}")


# ------------------------------------------------------------------- chains

def check_chain(xis, etas, positive: bool = False) -> None:
    """Spinor chain of a flat flower: bracket(s_j, s_j+1) = -1, the closing
    bracket(s_0, s_n-1) = -1, and sum 1/(eta_j eta_j+1) = 1/(eta_0 eta_n-1)."""
    n = len(etas)
    _require(len(xis) == n and n >= 3, "bad chain length")
    _require(xis[0] == 0.0, "chain does not start at tangency 0")
    if positive:
        _require(all(e > 0.0 for e in etas), "a geometric chain has eta <= 0")
    for j in range(n - 1):
        b = xis[j] * etas[j + 1] - etas[j] * xis[j + 1]
        _require(abs(b + 1.0) <= CHAIN_TOL, f"bracket {j},{j + 1} is {b!r}")
    b = xis[0] * etas[n - 1] - etas[0] * xis[n - 1]
    _require(abs(b + 1.0) <= CHAIN_TOL, f"closing bracket is {b!r}")
    terms = [1.0 / (etas[j] * etas[j + 1]) for j in range(n - 1)]
    close = 1.0 / (etas[0] * etas[n - 1])
    scale = sum(abs(t) for t in terms) + abs(close)
    _require(abs(sum(terms) - close) <= CHAIN_TOL * scale, "flat-flower sum does not close")


# -------------------------------------------------------------- polynomials

def parse_polynomial(text: str, n: int) -> list[tuple[int, tuple[int, ...]]]:
    terms = []
    seen = set()
    for line in text.splitlines():
        fields = [int(f) for f in line.split()]
        _require(len(fields) == n + 1, f"term line {line!r} is not for {n} variables")
        exps = tuple(fields[1:])
        _require(fields[0] != 0 and exps not in seen, f"bad or repeated term {line!r}")
        seen.add(exps)
        terms.append((fields[0], exps))
    _require(bool(terms), "empty polynomial")
    return terms


def _evaluate(terms, x) -> tuple[float, float]:
    """Value and sum of term magnitudes."""
    value = scale = 0.0
    for c, exps in terms:
        t = float(c)
        for v, e in zip(x, exps):
            if e:
                t *= v ** e
        value += t
        scale += abs(t)
    return value, scale


def relation(x) -> float:
    """Im prod_{j>=1}(x_j + i), times x_0^2 for odd n, minus the product of
    (x_k^2 + 1) over odd k (odd n) or even k >= 2 (even n), k <= n - 2."""
    n = len(x)
    p = complex(1.0, 0.0)
    for v in x[1:]:
        p *= complex(v, 1.0)
    lhs = p.imag * (x[0] * x[0] if n % 2 else 1.0)
    rhs = 1.0
    for k in range(1 if n % 2 else 2, n - 1, 2):
        rhs *= x[k] * x[k] + 1.0
    return lhs - rhs


def check_polynomial(text: str, n: int, flower_m, points) -> None:
    """The polynomial vanishes at a flower's m-variables and equals the
    relation at the given points."""
    terms = parse_polynomial(text, n)
    value, scale = _evaluate(terms, flower_m)
    _require(abs(value) <= SOLVE_TOL * scale, f"polynomial is {value:.3e} at a flower (scale {scale:.3e})")
    for x in points:
        value, scale = _evaluate(terms, x)
        want = relation(x)
        _require(abs(value - want) <= SOLVE_TOL * scale, f"polynomial is {value!r}, relation {want!r}")


# ---------------------------------------------------------------- cli texts

_SOLVE_RE = re.compile(
    r"central curvature: (\S+)\n"
    r"relation residual: (\S+) \(relative (\S+)\)\n"
    r"root agreement: geometric (\S+), equation (\S+), difference (\S+)\n\Z"
)


def check_cli_solve(text: str, petals) -> None:
    match = _SOLVE_RE.match(text)
    _require(match is not None, f"unexpected solve output {text[:80]!r}")
    k0, _, rel, geo, eq, _ = (float(v) for v in match.groups())
    check_central(petals, k0)
    _require(geo == k0 and _close(eq, k0, SOLVE_TOL), "geometric and equation roots disagree")
    _require(rel <= SOLVE_TOL, f"relative relation residual {rel!r}")


def check_cli_verify(text: str, returncode: int, n: int) -> None:
    lines = text.splitlines()
    _require(returncode == 0, f"verify exited {returncode}")
    _require(all(line.startswith("PASS ") for line in lines), "verify printed a non-PASS line")
    names = {line[5:].split(" (")[0] for line in lines}
    want = {"central tangency", "petal adjacency", "declared curvatures", "descartes relation"}
    want |= {3: {"classic 3-flower relation"}, 4: {"4-flower quartic relation"}}.get(n, set())
    _require(names == want, f"verify ran {sorted(names)}")


def check_cli_spinors(text: str, petals) -> None:
    lines = text.splitlines()
    _require(lines[0].startswith("central curvature: "), "spinors output has no curvature line")
    k0 = float(lines[0].split(": ")[1])
    check_central(petals, k0)
    rows = [[float(v) for v in line.split()] for line in lines[2:]]
    _require([int(r[0]) for r in rows] == list(range(len(petals))), "spinor rows are not j = 0..n-1")
    xis, etas = [r[1] for r in rows], [r[2] for r in rows]
    check_chain(xis, etas)
    for r, mv in zip(rows, m_variables(petals, k0)):
        _require(_close(r[3], mv, SOLVE_TOL), f"m-variable {r[3]!r} is not {mv!r}")
        _require(_close(r[4], 2.0 * r[2] * r[2], PRINT12_TOL * 10), "flat curvature is not 2 eta^2")
