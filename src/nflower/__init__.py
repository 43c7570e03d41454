"""Tangent-circle flowers: Euclidean layout, circle inversion, horocycle
spinors, and the generalized Descartes relation for the central curvature.

The names below, and the modules that export them, are resolved on first
use (PEP 562), so `import nflower` loads no submodule and
`from nflower import solve_report` loads only what the solve runs.
"""

__version__ = "0.1.0"

# module -> the names it exports through the package
_EXPORTS = {
    "euclid": (
        "Circle",
        "FlowerLayout",
        "NumericFailure",
        "angle_gap",
        "angle_sum",
        "classic_descartes_residual",
        "four_flower_poly_residual",
        "invert_in_unit_circle",
        "inverted_flower",
        "layout_flower",
        "solve_central_radius",
        "tangency_residuals",
        "validate_flower",
    ),
    "hyperbolic": (
        "DiscHorocycle",
        "Horocycle",
        "Spinor",
        "apply_sl2",
        "bracket",
        "disc_curvature_of_spinor",
        "disc_horocycle_to_uhp",
        "disc_to_uhp",
        "horocycle_to_spinor",
        "lambda_length_geometric",
        "rotate_spinor",
        "spinor_to_horocycle",
        "uhp_horocycle_to_disc",
        "uhp_to_disc",
    ),
    "solve": (
        "CentralSolve",
        "solve_central_curvature",
        "solve_report",
    ),
    "descartes": (
        "GeometricChain",
        "ParallelogramInvariants",
        "SpinorChain",
        "closure_residuals",
        "descartes_polynomial",
        "descartes_residual_complex",
        "descartes_residual_scale",
        "descartes_residual_subset",
        "eta_closed_form",
        "flat_curvatures",
        "flat_flower_residual",
        "geometric_spinor_chain",
        "kappa_plus_one",
        "m_from_normalized",
        "parallelogram_invariants",
        "spinor_recursion",
        "xi_from_etas",
    ),
    "polynomial": ("PolynomialZZ",),
    "document": ("FlowerDocument",),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS:  # a submodule, which its import binds here
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups do not come here
    return value


def __dir__():
    return sorted({*globals(), *__all__})
