"""Command line front end.

Subcommands: solve, verify, layout, render, spinors, polynomial.
Exit codes: 0 pass, 1 verification fail, 2 usage or parse error, 3 numeric
failure, 141 stdout closed.  `-` reads from standard input.  Reports display
12 significant digits; documents carry 17.

Each subcommand imports the modules it runs when it runs, so a `solve`
process loads `euclid` and `solve` but not the spinor, polynomial, document
or SVG code, and `polynomial` loads no geometry.  A plain call, a
subcommand and exactly its positionals with no option, runs without a
parser; any other argv builds the argparse parser, and only then is
`argparse` loaded.  Both read one table of the subcommands.  The
subcommands run the float kernels that the record classes wrap, so none
loads `dataclasses`, nor `json` without JSON.  A write to a closed stdout
exits 141, silently, as SIGPIPE would.
"""

from __future__ import annotations

import os
import sys
from itertools import islice
from types import SimpleNamespace
from typing import Sequence

from .formats import DEFAULT_TOLERANCE, MAX_POLYNOMIAL_N, _filled, _relation_terms, _term_row

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


def _print_json(report: dict) -> None:
    """A --json report; json is loaded only here, where one is written."""
    import json

    print(json.dumps(report))


def cmd_solve(args) -> int:
    from .solve import _solve

    petals = _parse_petals(args.petals)
    k0, kp, res, scale = _solve(petals, args.tol)
    rel = abs(res) / scale
    diff = abs(kp - k0)
    if args.json:
        _print_json({
            "central_curvature": _num(k0),
            "residual": _num(res),
            "residual_relative": _num(rel),
            "geometric_root": _num(k0),
            "equation_root": _num(kp),
            "root_difference": _num(diff),
        })
    else:
        print(_filled(
            "central curvature: %.12g\n"
            "relation residual: %.12g (relative %.12g)\n"
            "root agreement: geometric %.12g, equation %.12g, difference %.12g",
            [k0, res, rel, k0, kp, diff],
        ))
    return 0


def _verify_checks(doc: tuple, tol: float) -> list[tuple[str, bool, float, float]]:
    """(name, passed, value, threshold) rows for a document's checked fields
    (n, central curvature, petal curvatures, tolerance, circles)."""
    from .euclid import TWO_PI, _worst_tangency, angle_sum, classic_descartes_residual, classic_descartes_scale
    from .euclid import four_flower_poly_residual, four_flower_poly_scale
    from .solve import _normalized_relation, _tightest_last

    n, k0, ks, doc_tol, circles = doc
    checks: list[tuple[str, bool, float, float]] = []
    if circles is not None:
        cen, adj = _worst_tangency(circles)
        checks.append(("central tangency", cen <= doc_tol, cen, doc_tol))
        checks.append(("petal adjacency", adj <= doc_tol, adj, doc_tol))
        worst = max(abs(1.0 / r - k) / k for (_, _, r), k in zip(circles, (k0, *ks)))
        checks.append(("declared curvatures", worst <= doc_tol, worst, doc_tol))
    else:
        # Without circles nothing else pins the central curvature: the
        # relation over |P| also vanishes where k0 is far too small, and
        # for n = 2 mod 4 where it is far too large.  So the half-angle gap
        # sum at the declared curvatures must be a full turn.
        S = angle_sum(1.0 / k0, [1.0 / k for k in ks])
        rel = abs(S - TWO_PI) / TWO_PI
        checks.append(("angle sum", rel <= tol, rel, tol))

    res, scale = _normalized_relation(_tightest_last(ks, k0), k0)
    rel = abs(res) / scale
    checks.append(("descartes relation", rel <= tol, rel, tol))

    if n in (3, 4):
        # Both relations are homogeneous polynomials, evaluated exactly on
        # the curvatures times their common power-of-two denominator; the
        # int quotient is correctly rounded.
        ratios = [k.as_integer_ratio() for k in (k0, *ks)]
        D = max(den for _, den in ratios)
        ks = [num * (D // den) for num, den in ratios]
        if n == 3:
            name = "classic 3-flower relation"
            res, scale = classic_descartes_residual(*ks), classic_descartes_scale(*ks)
        else:
            name = "4-flower quartic relation"
            res, scale = four_flower_poly_residual(*ks), four_flower_poly_scale(*ks)
        rel = abs(res) / scale
        checks.append((name, rel <= tol, rel, tol))
    return checks


def cmd_verify(args) -> int:
    from .document import _read_document

    checks = _verify_checks(_read_document(_read_input(args.file)), args.tol)
    ok = all(passed for _, passed, _, _ in checks)
    if args.json:
        _print_json({
            "passed": ok,
            "checks": [
                {"name": name, "passed": passed, "value": _num(value), "threshold": _num(thr)}
                for name, passed, value, thr in checks
            ],
        })
    else:
        lines = [f"{'PASS' if passed else 'FAIL'} {name} (value %.12g, threshold %.12g)"
                 for name, passed, _, _ in checks]
        print(_filled("\n".join(lines), [v for _, _, value, thr in checks for v in (value, thr)]))
    return 0 if ok else 1


def cmd_layout(args) -> int:
    from .document import _document_json
    from .euclid import _flower_circles

    petals = _parse_petals(args.petals)
    circles, _ = _flower_circles(tuple([1.0 / k for k in petals]))
    sys.stdout.write(_document_json(len(petals), 1.0 / circles[0][2], petals, args.tol, circles))
    return 0


def cmd_render(args) -> int:
    from .document import _read_document
    from .svg import flower_svg

    circles = _read_document(_read_input(args.file))[4]
    if circles is None:
        raise ValueError("document has no circles; produce it with `layout`")
    svg = flower_svg(circles)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(svg)
    return 0


def cmd_spinors(args) -> int:
    from .euclid import NumericFailure
    from .solve import _bracket_is_minus_one, _check_chain, _solve, _spinor_pairs, m_from_normalized

    petals = _parse_petals(args.petals)
    k0 = _solve(petals, args.tol)[0]
    stage = "m_from_normalized"
    try:
        m = m_from_normalized([k / k0 for k in petals])
        stage = "spinor_recursion"
        chain = _spinor_pairs(m)
        _check_chain(chain)
    except ValueError as exc:  # the petals passed their check, so this is numeric
        raise NumericFailure(f"{stage}: {exc}") from exc
    if not _bracket_is_minus_one(chain[0], chain[-1], args.tol):
        closing = chain[0][0] * chain[-1][1] - chain[0][1] * chain[-1][0] + 1.0
        raise NumericFailure(f"spinor chain does not close: bracket residual {closing:.3e}")
    rows = [(j, xi, eta, m[j], 2.0 * eta * eta) for j, (xi, eta) in enumerate(chain)]
    if args.json:
        _print_json({
            "central_curvature": _num(k0),
            "spinors": [
                {"j": j, "xi": _num(x), "eta": _num(e), "m": _num(mv), "flat_curvature": _num(fc)}
                for j, x, e, mv, fc in rows
            ],
        })
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
    import argparse

    from .euclid import _positive_finite

    try:
        return _positive_finite(float(text), "--tol")
    except ValueError:  # not a number, or not positive and finite
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}") from None


# The grammar, written once for the parser and for plain calls.  Each
# option: its default, and its other argparse keywords.
_OPTIONS = {
    "tol": (DEFAULT_TOLERANCE, {"type": _tolerance,
                                "help": "verification tolerance, positive and finite (default 1e-9)"}),
    "json": (False, {"action": "store_true", "help": "machine-readable reports"}),
}

# Each subcommand: its help, its positionals (name, type, help), the
# options it reads (it takes no other), and its kernel.
_COMMANDS = {
    "solve": ("central curvature from petal curvatures",
              (("petals", str, "comma-separated petal curvatures, e.g. 1,1,1"),), ("tol", "json"), cmd_solve),
    "verify": ("check a flower document",
               (("file", str, "flower document path, or - for stdin"),), ("tol", "json"), cmd_verify),
    "layout": ("emit a flower document with circles",
               (("petals", str, "comma-separated petal curvatures"),), ("tol",), cmd_layout),
    "render": ("render a flower document to SVG",
               (("file", str, "flower document path, or - for stdin"),
                ("out", str, "output SVG path, or - for stdout")), (), cmd_render),
    "spinors": ("spinor table of the flat flower",
                (("petals", str, "comma-separated petal curvatures"),), ("tol", "json"), cmd_spinors),
    "polynomial": ("integer relation polynomial",
                   (("n", int, f"number of petals (3..{MAX_POLYNOMIAL_N})"),), (), cmd_polynomial),
}


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="nflower",
        description="Solve, verify, lay out, and render tangent-circle flowers.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (help_text, positionals, options, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            default, keywords = _OPTIONS[option]
            p.add_argument(f"--{option}", default=default, **keywords)
        for arg, kind, arg_help in positionals:
            p.add_argument(arg, type=kind, help=arg_help)
        p.set_defaults(func=func)
    return parser


def _plain_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes argparse sets for a known subcommand followed by
    exactly its positionals, none of them an option (a lone `-` is stdin),
    without building the parser; None for any other argv, which argparse
    parses: an option, `-h`, `--` or a negative number, a wrong count, an
    unknown or missing command, or an `n` that int() refuses."""
    entry = _COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    _, positionals, options, func = entry
    values = argv[1:]
    if len(values) != len(positionals) or any(v.startswith("-") and v != "-" for v in values):
        return None
    try:
        args = {name: kind(value) for (name, kind, _), value in zip(positionals, values)}
    except ValueError:
        return None
    return SimpleNamespace(command=argv[0], func=func, **args,
                           **{option: _OPTIONS[option][0] for option in options})


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv)
    if args is None:
        parser = _build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code else 0
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 2
    try:
        code = args.func(args)
        # Write what stdout still buffers here, so that a closed pipe or a
        # full disk meets the handlers below and not the flush at exit.
        sys.stdout.flush()
        return code
    except OSError as exc:
        try:
            sys.stdout.flush()
        except OSError:
            # stdout itself failed and keeps its buffer: point it at devnull
            # so that the flush at exit stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            # The reader closed stdout, as `| head` does: no usage error;
            # exit as a process killed by SIGPIPE would.
            return 141
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # NumericFailure, or OverflowError from a float
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
