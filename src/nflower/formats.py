"""What the program's text formats share: the default tolerance a document
records, the one number formatter, and the row of a polynomial term.

It imports nothing, so the command line can build its parser and print a
report or a polynomial without loading the geometry.
"""

# A document's tolerance when it names none, `--tol` when it is not given,
# and solve_report's `tol`.
DEFAULT_TOLERANCE = 1e-9


def _filled(template: str, values) -> str:
    """template % values, each value passed as a float; adding 0.0 turns -0
    into 0, so no "-0" is printed.  The template's % fields set the digits:
    the one number formatter of documents, SVGs and reports."""
    return template % tuple([float(v) + 0.0 for v in values])


def _term_row(nvars: int) -> str:
    """The %-template of one polynomial term in nvars variables,
    `<coefficient> <e_0> ... <e_{nvars-1}>` and a newline, filled with
    (c, *exps) in one call; "%s" prints every int, float and bool exactly
    as str() does."""
    return "%s " + " ".join(["%s"] * nvars) + "\n"
