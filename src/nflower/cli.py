"""Command line front end.

Subcommands: solve, verify, layout, render, spinors, polynomial.
Exit codes: 0 pass, 1 verification fail, 2 usage or parse error, 3 numeric
failure.  `-` reads from standard input.  Reports display 12 significant
digits; documents carry 17.

Each subcommand imports the modules it runs when it runs, so a `solve`
process loads `euclid` and `solve` but not the spinor, polynomial, document
or SVG code, and `polynomial` loads no geometry.  The top level imports
only what the parser needs.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from typing import TYPE_CHECKING, Sequence

from .expansion import MAX_POLYNOMIAL_N, _relation_terms
from .formats import DEFAULT_TOLERANCE, _filled, _term_row

if TYPE_CHECKING:
    from .document import FlowerDocument

# Rows of `polynomial` per write: one write for the n <= 14 polynomials,
# about 0.4 MB of text for the largest.
_ROWS_PER_WRITE = 8192


def _parse_petals(text: str) -> list[float]:
    from .euclid import _checked_petals

    try:
        petals = [float(f) for f in text.split(",") if f.strip()]
    except ValueError as exc:
        raise ValueError(f"bad petal list {text!r}: {exc}") from exc
    return _checked_petals(petals)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _num(x: float) -> float:
    """Report number: rounded to 12 significant digits."""
    return float(_filled("%.12g", [x]))


def cmd_solve(args) -> int:
    from .solve import solve_report

    petals = _parse_petals(args.petals)
    rep = solve_report(petals, args.tol)
    rel = abs(rep.residual) / rep.residual_scale
    diff = abs(rep.polished_curvature - rep.central_curvature)
    if args.json:
        print(json.dumps({
            "central_curvature": _num(rep.central_curvature),
            "residual": _num(rep.residual),
            "residual_relative": _num(rel),
            "geometric_root": _num(rep.central_curvature),
            "equation_root": _num(rep.polished_curvature),
            "root_difference": _num(diff),
        }))
    else:
        print(_filled(
            "central curvature: %.12g\n"
            "relation residual: %.12g (relative %.12g)\n"
            "root agreement: geometric %.12g, equation %.12g, difference %.12g",
            [rep.central_curvature, rep.residual, rel, rep.central_curvature, rep.polished_curvature, diff],
        ))
    return 0


def _verify_checks(doc: FlowerDocument, tol: float) -> list[tuple[str, bool, float, float]]:
    """(name, passed, value, threshold) rows for a document."""
    from .euclid import (
        TWO_PI,
        Circle,
        _worst_tangency,
        angle_sum,
        classic_descartes_residual,
        classic_descartes_scale,
        four_flower_poly_residual,
        four_flower_poly_scale,
    )
    from .solve import _normalized_relation

    checks: list[tuple[str, bool, float, float]] = []
    if doc.circles is not None:
        central = Circle(*doc.circles[0])
        petals = [Circle(*c) for c in doc.circles[1:]]
        cen, adj = _worst_tangency(central, petals)
        checks.append(("central tangency", cen <= doc.tolerance, cen, doc.tolerance))
        checks.append(("petal adjacency", adj <= doc.tolerance, adj, doc.tolerance))
        devs = [abs(central.curvature - doc.central_curvature) / doc.central_curvature]
        devs += [abs(p.curvature - k) / k for p, k in zip(petals, doc.petal_curvatures)]
        worst = max(devs)
        checks.append(("declared curvatures", worst <= doc.tolerance, worst, doc.tolerance))
    else:
        # Without circles nothing else pins the central curvature: the
        # relation over |P| also vanishes where k0 is far too small, and
        # for n = 2 mod 4 where it is far too large.  So the half-angle gap
        # sum at the declared curvatures must be a full turn.
        S = angle_sum(1.0 / doc.central_curvature, [1.0 / k for k in doc.petal_curvatures])
        rel = abs(S - TWO_PI) / TWO_PI
        checks.append(("angle sum", rel <= tol, rel, tol))

    res, scale = _normalized_relation(doc.petal_curvatures, doc.central_curvature)
    rel = abs(res) / scale
    checks.append(("descartes relation", rel <= tol, rel, tol))

    if doc.n in (3, 4):
        # Both relations are homogeneous polynomials, evaluated exactly on
        # the curvatures times their common power-of-two denominator; the
        # int quotient is correctly rounded.
        ratios = [k.as_integer_ratio() for k in (doc.central_curvature, *doc.petal_curvatures)]
        D = max(den for _, den in ratios)
        ks = [num * (D // den) for num, den in ratios]
        if doc.n == 3:
            name = "classic 3-flower relation"
            res, scale = classic_descartes_residual(*ks), classic_descartes_scale(*ks)
        else:
            name = "4-flower quartic relation"
            res, scale = four_flower_poly_residual(*ks), four_flower_poly_scale(*ks)
        rel = abs(res) / scale
        checks.append((name, rel <= tol, rel, tol))
    return checks


def cmd_verify(args) -> int:
    from .document import FlowerDocument

    doc = FlowerDocument.from_json(_read_input(args.file))
    checks = _verify_checks(doc, args.tol)
    ok = all(passed for _, passed, _, _ in checks)
    if args.json:
        print(json.dumps({
            "passed": ok,
            "checks": [
                {"name": name, "passed": passed, "value": _num(value), "threshold": _num(thr)}
                for name, passed, value, thr in checks
            ],
        }))
    else:
        lines = [f"{'PASS' if passed else 'FAIL'} {name} (value %.12g, threshold %.12g)"
                 for name, passed, _, _ in checks]
        print(_filled("\n".join(lines), [v for _, _, value, thr in checks for v in (value, thr)]))
    return 0 if ok else 1


def cmd_layout(args) -> int:
    from .document import FlowerDocument
    from .euclid import layout_flower

    petals = _parse_petals(args.petals)
    layout = layout_flower([1.0 / k for k in petals])
    circles = [(layout.central.cx, layout.central.cy, layout.central.r)]
    circles += [(p.cx, p.cy, p.r) for p in layout.petals]
    doc = FlowerDocument(
        n=len(petals),
        central_curvature=layout.central.curvature,
        petal_curvatures=tuple(petals),
        tolerance=args.tol,
        circles=tuple(circles),
    )
    sys.stdout.write(doc.to_json())
    return 0


def cmd_render(args) -> int:
    from .document import FlowerDocument
    from .svg import flower_svg

    doc = FlowerDocument.from_json(_read_input(args.file))
    if doc.circles is None:
        raise ValueError("document has no circles; produce it with `layout`")
    svg = flower_svg(doc.circles)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def cmd_spinors(args) -> int:
    from .descartes import m_from_normalized, spinor_recursion
    from .euclid import NumericFailure
    from .hyperbolic import _bracket_is_minus_one, bracket
    from .solve import solve_report

    petals = _parse_petals(args.petals)
    rep = solve_report(petals, args.tol)
    k0 = rep.central_curvature
    stage = "m_from_normalized"
    try:
        m = m_from_normalized([k / k0 for k in petals])
        stage = "spinor_recursion"
        chain = spinor_recursion(m)
    except ValueError as exc:  # the petals passed their check, so this is numeric
        raise NumericFailure(f"{stage}: {exc}") from exc
    if not _bracket_is_minus_one(chain[0], chain[-1], args.tol):
        closing = bracket(chain[0], chain[-1]) + 1.0
        raise NumericFailure(f"spinor chain does not close: bracket residual {closing:.3e}")
    rows = [
        (j, s.xi, s.eta, m[j], 2.0 * s.eta * s.eta)
        for j, s in enumerate(chain.spinors)
    ]
    if args.json:
        print(json.dumps({
            "central_curvature": _num(k0),
            "spinors": [
                {"j": j, "xi": _num(x), "eta": _num(e), "m": _num(mv), "flat_curvature": _num(fc)}
                for j, x, e, mv, fc in rows
            ],
        }))
    else:
        head = f"central curvature: %.12g\n{'j':>3} {'xi':>18} {'eta':>18} {'m':>18} {'flat_curv':>18}"
        lines = [head, *[f"{j:>3} %18.12g %18.12g %18.12g %18.12g" for j, *_ in rows]]
        print(_filled("\n".join(lines), [k0, *[v for _, *values in rows for v in values]]))
    return 0


def cmd_polynomial(args) -> int:
    """Write the relation polynomial's rows as they are generated, a chunk
    at a time, so that neither the terms nor the text are kept."""
    terms = _relation_terms(args.n)  # a bad n raises before any output
    row = _term_row(args.n)
    while chunk := [row % (c, *exps) for c, exps in islice(terms, _ROWS_PER_WRITE)]:
        sys.stdout.write("".join(chunk))
    return 0


def _tolerance(text: str) -> float:
    """The --tol value: a positive, finite real, or argparse's usage error."""
    from .euclid import _positive_finite

    try:
        return _positive_finite(float(text), "--tol")
    except ValueError:  # not a number, or not positive and finite
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the options it reads.
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=DEFAULT_TOLERANCE,
                     help="verification tolerance, positive and finite (default 1e-9)")
    report = argparse.ArgumentParser(add_help=False, parents=[tol])
    report.add_argument("--json", action="store_true", help="machine-readable reports")

    parser = argparse.ArgumentParser(
        prog="nflower",
        description="Solve, verify, lay out, and render tangent-circle flowers.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("solve", parents=[report], help="central curvature from petal curvatures")
    p.add_argument("petals", help="comma-separated petal curvatures, e.g. 1,1,1")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", parents=[report], help="check a flower document")
    p.add_argument("file", help="flower document path, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("layout", parents=[tol], help="emit a flower document with circles")
    p.add_argument("petals", help="comma-separated petal curvatures")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("render", help="render a flower document to SVG")
    p.add_argument("file", help="flower document path, or - for stdin")
    p.add_argument("out", help="output SVG path, or - for stdout")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("spinors", parents=[report], help="spinor table of the flat flower")
    p.add_argument("petals", help="comma-separated petal curvatures")
    p.set_defaults(func=cmd_spinors)

    p = sub.add_parser("polynomial", help="integer relation polynomial")
    p.add_argument("n", type=int, help=f"number of petals (3..{MAX_POLYNOMIAL_N})")
    p.set_defaults(func=cmd_polynomial)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NumericFailure, or OverflowError from a float
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
