"""Tangent-circle flowers: Euclidean layout, circle inversion, horocycle
spinors, and the generalized Descartes relation for the central curvature."""

from .euclid import (
    Circle,
    FlowerLayout,
    NumericFailure,
    angle_gap,
    angle_sum,
    classic_descartes_residual,
    four_flower_poly_residual,
    invert_in_unit_circle,
    inverted_flower,
    layout_flower,
    solve_central_radius,
    tangency_residuals,
    validate_flower,
)
from .hyperbolic import (
    DiscHorocycle,
    Horocycle,
    Spinor,
    apply_sl2,
    bracket,
    disc_curvature_of_spinor,
    disc_horocycle_to_uhp,
    disc_to_uhp,
    horocycle_to_spinor,
    lambda_length_geometric,
    rotate_spinor,
    spinor_to_horocycle,
    uhp_horocycle_to_disc,
    uhp_to_disc,
)
from .descartes import (
    CentralSolve,
    GeometricChain,
    ParallelogramInvariants,
    SpinorChain,
    closure_residuals,
    descartes_polynomial,
    descartes_residual_complex,
    descartes_residual_scale,
    descartes_residual_subset,
    eta_closed_form,
    flat_curvatures,
    flat_flower_residual,
    geometric_spinor_chain,
    kappa_plus_one,
    m_from_normalized,
    parallelogram_invariants,
    solve_central_curvature,
    solve_report,
    spinor_recursion,
    xi_from_etas,
)
from .polynomial import PolynomialZZ
from .document import FlowerDocument

__version__ = "0.1.0"
