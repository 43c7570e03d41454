import cmath
import math
import random

import pytest

from nflower import hyperbolic
from nflower.descartes import geometric_spinor_chain
from nflower.hyperbolic import (
    DiscHorocycle,
    Horocycle,
    Spinor,
    apply_sl2,
    bracket,
    circumcircle,
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


def random_spinor(rng, eta_floor=0.0):
    while True:
        s = Spinor(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(s.eta) > eta_floor and (s.xi, s.eta) != (0.0, 0.0):
            return s


def random_sl2(rng):
    while True:
        a = rng.uniform(-2, 2)
        if abs(a) < 0.2:
            continue
        b, c = rng.uniform(-2, 2), rng.uniform(-2, 2)
        return ((a, b), (c, (1.0 + b * c) / a))


class TestSpinor:
    def test_zero_pair_rejected(self):
        with pytest.raises(ValueError):
            Spinor(0.0, 0.0)

    def test_negation(self):
        assert -Spinor(1.0, -2.0) == Spinor(-1.0, 2.0)

    @pytest.mark.parametrize("xi, eta", [(math.nan, 1.0), (1.0, math.inf)])
    def test_non_finite_rejected(self, xi, eta):
        with pytest.raises(ValueError, match="spinor components must be finite"):
            Spinor(xi, eta)


class TestBracket:
    def test_identity_determinant(self):
        assert bracket(Spinor(1, 0), Spinor(0, 1)) == 1.0

    def test_adjacent_ford_circles(self):
        assert bracket(Spinor(0, 1), Spinor(1, 1)) == -1.0

    def test_self_bracket_vanishes(self):
        rng = random.Random(0)
        for _ in range(20):
            s = random_spinor(rng)
            assert bracket(s, s) == 0.0

    def test_antisymmetry(self):
        rng = random.Random(1)
        for _ in range(200):
            a, b = random_spinor(rng), random_spinor(rng)
            assert bracket(a, b) == -bracket(b, a)

    def test_ptolemy_identity(self):
        rng = random.Random(2)
        for _ in range(200):
            a, b, c, d = (random_spinor(rng) for _ in range(4))
            lhs = bracket(a, b) * bracket(c, d) + bracket(b, c) * bracket(a, d)
            rhs = bracket(a, c) * bracket(b, d)
            scale = 1.0 + max(abs(lhs), abs(rhs))
            assert abs(lhs - rhs) <= 1e-10 * scale


class TestBracketIsMinusOne:
    def test_judged_at_spinor_scale(self):
        assert hyperbolic._bracket_is_minus_one(Spinor(0.0, 1.0), Spinor(1.0, 1.0), 1e-9)
        assert not hyperbolic._bracket_is_minus_one(Spinor(0.0, 1.0), Spinor(1.1, 1.0), 1e-9)
        # |z_a||z_b| = 1e20 scales the tolerance, so a residual of 1e-6 passes.
        big = Spinor(1e-10 * (1.0 + 1e-6), 1e10)
        assert hyperbolic._bracket_is_minus_one(Spinor(0.0, 1e10), big, 1e-9)

    @pytest.mark.parametrize(
        "a, b",
        [
            (Spinor(0.0, 1e200), Spinor(1e200, 1e200)),  # bracket -inf, scale inf
            (Spinor(1e200, 1e200), Spinor(2e200, 1e200)),  # bracket nan
        ],
    )
    def test_nan_and_infinite_residuals_fail(self, a, b):
        assert not hyperbolic._bracket_is_minus_one(a, b, 1.0)


class TestSpinorHorocycle:
    def test_unit_spinor(self):
        h = spinor_to_horocycle(Spinor(0, 1))
        assert (h.tangency, h.radius) == (0.0, 0.5)

    def test_half_tangency(self):
        h = spinor_to_horocycle(Spinor(1, 2))
        assert (h.tangency, h.radius) == (0.5, 0.125)

    def test_eta_zero_gives_horizontal_line(self):
        h = spinor_to_horocycle(Spinor(3, 0))
        assert math.isinf(h.tangency)
        assert h.height == 9.0

    def test_inverse_examples(self):
        assert horocycle_to_spinor(Horocycle(0.0, radius=0.5)) == Spinor(0.0, 1.0)
        assert horocycle_to_spinor(Horocycle(1.0, radius=0.5)) == Spinor(1.0, 1.0)
        assert horocycle_to_spinor(Horocycle(0.5, radius=0.125)) == Spinor(1.0, 2.0)

    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(100):
            h = Horocycle(rng.uniform(-10, 10), radius=10.0 ** rng.uniform(-2, 2))
            s = horocycle_to_spinor(h)
            assert s.eta > 0.0
            back = spinor_to_horocycle(s)
            assert back.tangency == pytest.approx(h.tangency, rel=1e-12, abs=1e-12)
            assert back.radius == pytest.approx(h.radius, rel=1e-12)

    def test_infinite_tangency_rejected(self):
        with pytest.raises(ValueError):
            horocycle_to_spinor(Horocycle(math.inf, height=2.0))

    def test_spin_lifts_share_one_horocycle(self):
        rng = random.Random(14)
        for _ in range(20):
            s = random_spinor(rng, eta_floor=0.05)
            a, b = spinor_to_horocycle(s), spinor_to_horocycle(-s)
            assert (a.tangency, a.radius) == (b.tangency, b.radius)

    def test_horocycle_field_validation(self):
        with pytest.raises(ValueError):
            Horocycle(0.0, height=1.0)
        with pytest.raises(ValueError):
            Horocycle(math.inf, radius=1.0)
        with pytest.raises(ValueError):
            Horocycle(0.0, radius=-1.0)

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((math.inf,), {"height": 0.0}, "height must be positive and finite"),
            ((math.inf,), {"height": math.nan}, "height must be positive and finite"),
            ((0.0,), {"radius": math.inf}, "radius must be positive and finite"),
            ((0.0,), {"radius": math.nan}, "radius must be positive and finite"),
        ],
    )
    def test_horocycle_size_messages(self, args, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Horocycle(*args, **kwargs)

    def test_no_curvature_at_infinity(self):
        with pytest.raises(ValueError, match="horocycle at infinity has no curvature"):
            Horocycle(math.inf, height=2.0).curvature


class TestCayley:
    def test_center_points(self):
        assert uhp_to_disc(1j) == 0j
        assert disc_to_uhp(-1) == 0j

    def test_boundary_half_angle(self):
        z = cmath.exp(1j * math.pi / 3.0)
        w = disc_to_uhp(z)
        assert w.real == pytest.approx(-1.0 / math.tan(math.pi / 6.0), abs=1e-12)
        assert abs(w.imag) < 1e-12

    def test_infinity_handling(self):
        assert uhp_to_disc(math.inf) == 1.0 + 0j
        assert disc_to_uhp(1.0 + 0j) == math.inf

    def test_mutual_inverse(self):
        rng = random.Random(4)
        for _ in range(100):
            z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
            assert abs(disc_to_uhp(uhp_to_disc(z)) - z) < 1e-12 * max(1.0, abs(z))
            w = rng.uniform(0.0, 0.95) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert abs(uhp_to_disc(disc_to_uhp(w)) - w) < 1e-12


class TestCircumcircle:
    def test_known_circle(self):
        center, radius = circumcircle(1 + 0j, -1 + 0j, 1j)
        assert abs(center) < 1e-14
        assert radius == pytest.approx(1.0)

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            circumcircle(0j, 1 + 0j, 2 + 0j)


class TestDiscHorocycleMaps:
    def test_ford_circle_image(self):
        h = disc_horocycle_to_uhp(DiscHorocycle(math.pi, 0.5))
        assert h.tangency == pytest.approx(0.0, abs=1e-12)
        assert h.radius == pytest.approx(0.5, rel=1e-12)

    def test_third_radius_image(self):
        h = disc_horocycle_to_uhp(DiscHorocycle(math.pi, 1.0 / 3.0))
        assert h.tangency == pytest.approx(0.0, abs=1e-12)
        assert h.radius == pytest.approx(0.25, rel=1e-12)

    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            d = DiscHorocycle(rng.uniform(0.05, 2 * math.pi - 0.05), rng.uniform(0.01, 0.9))
            back = uhp_horocycle_to_disc(disc_horocycle_to_uhp(d))
            assert back.radius == pytest.approx(d.radius, rel=1e-12)
            assert math.remainder(back.tangency_angle - d.tangency_angle, 2 * math.pi) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_closed_forms_match_refit_and_round_trip(self):
        # Reference: the circle through the images of three points of the
        # source horocycle.
        rng = random.Random(15)
        for _ in range(2000):
            d = DiscHorocycle(rng.uniform(0.05, 2 * math.pi - 0.05), rng.uniform(0.01, 0.95))
            h = disc_horocycle_to_uhp(d)
            center, radius = circumcircle(*(
                disc_to_uhp(d.center + d.radius * cmath.exp(1j * (d.tangency_angle + f)))
                for f in (0.5 * math.pi, math.pi, 1.5 * math.pi)
            ))
            assert abs(center.real - h.tangency) <= 1e-9 * max(1.0, abs(h.tangency))
            assert abs(center.imag - h.radius) <= 1e-9 * h.radius
            assert abs(radius - h.radius) <= 1e-9 * h.radius
            back = uhp_horocycle_to_disc(h)
            assert abs(back.tangency_angle - d.tangency_angle) <= 1e-13
            assert abs(back.radius - d.radius) <= 1e-13 * d.radius

            h = Horocycle(rng.uniform(-10, 10), radius=10.0 ** rng.uniform(-2, 2))
            d = uhp_horocycle_to_disc(h)
            c = complex(h.tangency, h.radius)
            center, radius = circumcircle(*(
                uhp_to_disc(c + h.radius * cmath.exp(1j * f))
                for f in (-0.5 * math.pi, math.pi / 6.0, 5.0 * math.pi / 6.0)
            ))
            assert abs(center - d.center) <= 1e-9
            assert abs(radius - d.radius) <= 1e-9 * d.radius
            back = disc_horocycle_to_uhp(d)
            assert abs(back.tangency - h.tangency) <= 1e-13 * max(1.0, abs(h.tangency))
            assert abs(back.radius - h.radius) <= 1e-13 * h.radius

    def test_no_refit(self, monkeypatch):
        def explode(*points):
            raise AssertionError("circumcircle called")

        monkeypatch.setattr(hyperbolic, "circumcircle", explode)
        h = disc_horocycle_to_uhp(DiscHorocycle(math.pi, 0.5))
        assert uhp_horocycle_to_disc(h).radius == pytest.approx(0.5, rel=1e-15)
        assert len(geometric_spinor_chain([1.0, 2.0, 3.0, 4.0]).chain) == 4

    def test_line_at_height_maps_to_tangency_at_one(self):
        # height h = 4 reaches down to (h - 1)/(h + 1) on the disc's real axis
        d = uhp_horocycle_to_disc(spinor_to_horocycle(Spinor(2, 0)))
        assert d.tangency_angle == 0.0 and d.curvature == 5.0

    def test_tangency_at_one_rejected(self):
        with pytest.raises(ValueError):
            disc_horocycle_to_uhp(DiscHorocycle(0.0, 0.5))
        with pytest.raises(ValueError):
            disc_horocycle_to_uhp(DiscHorocycle(2.0 * math.pi, 0.5))

    def test_radius_bounds(self):
        with pytest.raises(ValueError):
            DiscHorocycle(1.0, 1.5)

    def test_image_radius_that_underflows_rejected(self):
        # At angle pi the image radius is rho / 2, and 5e-324 / 2 rounds to 0.
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            disc_horocycle_to_uhp(DiscHorocycle(math.pi, 5e-324))

    @pytest.mark.parametrize("angle", [math.nan, math.inf])
    def test_tangency_angle_must_be_finite(self, angle):
        with pytest.raises(ValueError, match="tangency angle must be finite"):
            DiscHorocycle(angle, 0.5)


class TestDiscCurvature:
    def test_unit_eta(self):
        assert disc_curvature_of_spinor(Spinor(0, 1)) == 2.0

    def test_ford_at_one(self):
        assert disc_curvature_of_spinor(Spinor(1, 1)) == 3.0

    def test_formula_specialization(self):
        for eta in (0.5, 1.7, 3.0):
            assert disc_curvature_of_spinor(Spinor(0, eta)) == eta * eta + 1.0

    def test_eta_zero_is_tangent_at_one(self):
        # the line at height xi^2 = 4 maps to the disc horocycle at 1 of radius 1/5
        assert disc_curvature_of_spinor(Spinor(2, 0)) == 5.0

    def test_matches_disc_fit(self):
        # Independent geometric route: map the horocycle to the disc and
        # measure the fitted curvature there.
        rng = random.Random(6)
        for _ in range(100):
            s = random_spinor(rng, eta_floor=0.1)
            fitted = uhp_horocycle_to_disc(spinor_to_horocycle(s)).curvature
            assert fitted == pytest.approx(disc_curvature_of_spinor(s), rel=1e-9, abs=1e-9)


class TestRotation:
    def test_quarter_turn_examples(self):
        assert rotate_spinor(Spinor(1, 0)) == Spinor(0, 1)
        assert rotate_spinor(Spinor(0, 1)) == Spinor(-1, 0)

    def test_four_rotations_identity(self):
        rng = random.Random(7)
        for _ in range(20):
            s = random_spinor(rng)
            out = s
            for _ in range(4):
                out = rotate_spinor(out)
            assert out == s

    def test_bracket_with_rotation_is_square_length(self):
        rng = random.Random(8)
        for _ in range(50):
            s = random_spinor(rng)
            assert bracket(s, rotate_spinor(s)) == pytest.approx(s.xi**2 + s.eta**2, rel=1e-15)


class TestLambdaLength:
    def test_tangent_ford_circles(self):
        a = Horocycle(0.0, radius=0.5)
        b = Horocycle(1.0, radius=0.5)
        assert lambda_length_geometric(a, b) == 1.0

    def test_distance_two(self):
        a = Horocycle(0.0, radius=0.5)
        b = Horocycle(2.0, radius=0.5)
        assert lambda_length_geometric(a, b) == 2.0

    def test_equal_tangency_rejected(self):
        a = Horocycle(1.0, radius=0.5)
        b = Horocycle(1.0, radius=0.25)
        with pytest.raises(ValueError):
            lambda_length_geometric(a, b)

    def test_horocycle_at_infinity_rejected(self):
        a = Horocycle(0.0, radius=0.5)
        b = Horocycle(math.inf, height=1.0)
        with pytest.raises(ValueError, match="both horocycles must have finite tangency points"):
            lambda_length_geometric(a, b)

    def test_matches_bracket(self):
        rng = random.Random(9)
        for _ in range(300):
            h1 = Horocycle(rng.uniform(-10, 10), radius=10.0 ** rng.uniform(-2, 1))
            h2 = Horocycle(rng.uniform(-10, 10), radius=10.0 ** rng.uniform(-2, 1))
            if h1.tangency == h2.tangency:
                continue
            lam = lambda_length_geometric(h1, h2)
            b = abs(bracket(horocycle_to_spinor(h1), horocycle_to_spinor(h2)))
            assert abs(lam - b) <= 1e-10 * max(1.0, lam)

    def test_tangency_criterion(self):
        rng = random.Random(10)
        for _ in range(100):
            r1 = 10.0 ** rng.uniform(-2, 1)
            r2 = 10.0 ** rng.uniform(-2, 1)
            p = rng.uniform(-5, 5)
            q = p + 2.0 * math.sqrt(r1 * r2)  # center distance = radius sum
            h1, h2 = Horocycle(p, radius=r1), Horocycle(q, radius=r2)
            d = math.hypot(q - p, r2 - r1)
            assert d == pytest.approx(r1 + r2, rel=1e-12)
            b = bracket(horocycle_to_spinor(h1), horocycle_to_spinor(h2))
            assert abs(b) == pytest.approx(1.0, abs=1e-9)
            # a clearly non-tangent pair fails the criterion
            h3 = Horocycle(q + 1.0 + rng.random(), radius=r2)
            b3 = bracket(horocycle_to_spinor(h1), horocycle_to_spinor(h3))
            assert abs(abs(b3) - 1.0) > 1e-6


class TestSL2Action:
    def test_identity(self):
        s = Spinor(2.0, -3.0)
        assert apply_sl2(((1, 0), (0, 1)), s) == s

    def test_shear_translates_horocycle(self):
        rng = random.Random(11)
        for _ in range(20):
            s = random_spinor(rng, eta_floor=0.05)
            c = rng.uniform(-3, 3)
            out = apply_sl2(((1, c), (0, 1)), s)
            assert out == Spinor(s.xi + c * s.eta, s.eta)
            h0, h1 = spinor_to_horocycle(s), spinor_to_horocycle(out)
            assert h1.tangency == pytest.approx(h0.tangency + c, rel=1e-12, abs=1e-12)
            assert h1.radius == h0.radius

    def test_quarter_rotation_matrix(self):
        assert apply_sl2(((0, -1), (1, 0)), Spinor(1, 0)) == Spinor(0, 1)

    def test_determinant_checked(self):
        with pytest.raises(ValueError):
            apply_sl2(((2, 0), (0, 1)), Spinor(1, 0))

    def test_bracket_invariance(self):
        rng = random.Random(12)
        for _ in range(200):
            M = random_sl2(rng)
            a, b = random_spinor(rng), random_spinor(rng)
            before = bracket(a, b)
            after = bracket(apply_sl2(M, a), apply_sl2(M, b))
            assert abs(after - before) <= 1e-10 * max(1.0, abs(before))

    def test_horocycle_equivariance(self):
        # Independent route: fractional-linear action on the tangency point
        # and the |c z + d|^-2 radius scaling.
        rng = random.Random(13)
        for _ in range(200):
            M = random_sl2(rng)
            (a, b), (c, d) = M
            s = random_spinor(rng, eta_floor=0.05)
            h = spinor_to_horocycle(s)
            denom = c * h.tangency + d
            if abs(denom) < 1e-3:
                continue  # image tangent near infinity
            out = apply_sl2(M, s)
            if out.eta == 0.0:
                continue
            hi = spinor_to_horocycle(out)
            assert hi.tangency == pytest.approx(
                (a * h.tangency + b) / denom, rel=1e-9, abs=1e-9
            )
            assert hi.radius == pytest.approx(h.radius / denom**2, rel=1e-9)
