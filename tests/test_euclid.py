import math
import random
import re
from fractions import Fraction

import pytest

from nflower import euclid as euclid_module
from nflower.euclid import (
    TWO_PI,
    Circle,
    FlowerLayout,
    NumericFailure,
    angle_gap,
    angle_sum,
    classic_descartes_residual,
    classic_descartes_scale,
    four_flower_poly_residual,
    four_flower_poly_scale,
    invert_in_unit_circle,
    inverted_flower,
    layout_flower,
    solve_central_radius,
    tangency_residuals,
    validate_flower,
)

R3 = 2.0 / math.sqrt(3.0) - 1.0  # central radius of three unit petals
R4 = math.sqrt(2.0) - 1.0  # central radius of four unit petals


def random_petals(rng, n):
    return [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)]


class TestCircle:
    def test_curvature_round_trip(self):
        c = Circle(0.3, -2.0, 0.125)
        assert c.curvature == 8.0
        assert 1.0 / c.curvature == c.r

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_radius(self, bad):
        with pytest.raises(ValueError):
            Circle(0.0, 0.0, bad)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            Circle(math.nan, 0.0, 1.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, math.inf, 1.0), "circle centre must be finite"),
            ((0.0, 0.0, 0.0), "circle radius must be positive and finite"),
            ((0.0, 0.0, math.nan), "circle radius must be positive and finite"),
        ],
    )
    def test_messages(self, args, message):
        with pytest.raises(ValueError, match=message):
            Circle(*args)


_POSITIVE = "petal curvatures must be positive and finite"
_IN_RANGE = (
    "petal curvatures must lie in [5.56268464626801e-309, 1.7976931348623143e+308], "
    "where the reciprocal is finite, got "
)


class TestCheckedPetals:
    """_checked_petals tests each value once against [_SMALLEST, _LARGEST]
    and runs its two rules only when a value fails; the message is the one
    that running the rules in turn over all values gives: positive and
    finite first, then the range."""

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([0.0], _POSITIVE),
            ([-1.0], _POSITIVE),
            ([math.nan], _POSITIVE),
            ([math.inf], _POSITIVE),
            ([-math.inf], _POSITIVE),
            ([5e-324], _IN_RANGE + "5e-324"),
            ([1.8e308], _POSITIVE),  # the literal rounds to inf
            ([1.7976931348623157e308], _IN_RANGE + "1.7976931348623157e+308"),
            ([5e-324, math.nan], _POSITIVE),
            ([math.nan, 5e-324], _POSITIVE),
        ],
        ids=["0", "-1", "nan", "inf", "-inf", "5e-324", "1.8e308", "float-max",
             "5e-324,nan", "nan,5e-324"],
    )
    def test_message_of_the_first_rule_broken(self, bad, message):
        with pytest.raises(ValueError) as exc:
            euclid_module._checked_petals([1.0, *bad, 1.0])
        assert str(exc.value) == message

    def test_values_in_range_pass_as_floats(self):
        vals = euclid_module._checked_petals((1, True, euclid_module._SMALLEST, euclid_module._LARGEST))
        assert vals == [1.0, 1.0, euclid_module._SMALLEST, euclid_module._LARGEST]
        assert all(type(v) is float for v in vals)


class TestAngleGap:
    def test_symmetric_three_flower_gap(self):
        assert angle_gap(R3, 1.0, 1.0) == pytest.approx(TWO_PI / 3.0, abs=1e-12)
        assert angle_gap(0.1547005, 1.0, 1.0) == pytest.approx(2.0943951, abs=1e-6)

    def test_large_central_limit(self):
        assert angle_gap(1e8, 1.0, 1.0) == pytest.approx(2e-8, rel=1e-7)
        assert angle_gap(1e6, 1.0, 1.0) == pytest.approx(2e-6, rel=1e-3)

    def test_small_central_limit(self):
        assert angle_gap(1e-8, 1.0, 1.0) == pytest.approx(math.pi, abs=1e-3)

    def test_rejects_nonpositive(self):
        for args in [(0.0, 1.0, 1.0), (1.0, -1.0, 1.0), (1.0, 1.0, 0.0)]:
            with pytest.raises(ValueError):
                angle_gap(*args)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((math.nan, 1.0, 1.0), "central radius must be positive and finite"),
            ((math.inf, 1.0, 1.0), "central radius must be positive and finite"),
            ((1.0, math.nan, 1.0), "petal radius must be positive and finite"),
            ((1.0, 1.0, math.inf), "petal radius must be positive and finite"),
        ],
    )
    def test_rejects_nan_and_inf(self, args, message):
        with pytest.raises(ValueError, match=message):
            angle_gap(*args)

    @pytest.mark.parametrize(
        "R, r_a, r_b",
        [
            (1.5e307, 1e308, 1e308),
            (2.6e307, 1.6e308, 1.7e308),
            (1e308, 1e308, 1e-300),
            (1.7e308, 1.7e308, 1.7e308),
            (1e10, 1.7e308, 1e308),
            (1e308, 1.7e308, 1e160),
        ],
    )
    def test_radius_sum_overflow_matches_the_closed_form(self, R, r_a, r_b):
        # R + r_a + r_b overflows; the gap is formed at a quarter scale.
        assert R + r_a + r_b == math.inf
        q = Fraction(r_a) * Fraction(r_b) / (Fraction(R) * (Fraction(R) + Fraction(r_a) + Fraction(r_b)))
        exact = 2.0 * math.atan(math.sqrt(float(q)))
        assert angle_gap(R, r_a, r_b) == pytest.approx(exact, rel=1e-15)
        assert angle_sum(R, [r_a, r_b, r_a, r_b]) == pytest.approx(4.0 * exact, rel=1e-15)

    def test_angle_sum_is_the_newton_kernel(self):
        rng = random.Random(19)
        for _ in range(50):
            petals = random_petals(rng, rng.randrange(3, 30))
            R = 10.0 ** rng.uniform(-2.0, 2.0)
            assert angle_sum(R, petals) == euclid_module._angle_sum_and_log_slope(R, petals)[0]


class TestSolveCentralRadius:
    def test_three_unit_petals(self):
        assert solve_central_radius([1.0, 1.0, 1.0]) == pytest.approx(R3, abs=1e-12)

    def test_four_unit_petals(self):
        assert solve_central_radius([1.0, 1.0, 1.0, 1.0]) == pytest.approx(R4, abs=1e-12)

    def test_half_radius_petals(self):
        assert solve_central_radius([0.5, 0.5, 0.5]) == pytest.approx(0.0773503, abs=1e-7)

    def test_power_of_two_scaling_is_exact(self):
        base = solve_central_radius([1.0, 2.0, 0.5, 1.5])
        assert solve_central_radius([2.0, 4.0, 1.0, 3.0]) == 2.0 * base
        assert solve_central_radius([0.5, 1.0, 0.25, 0.75]) == 0.5 * base

    def test_general_scaling(self):
        rng = random.Random(11)
        for _ in range(20):
            petals = random_petals(rng, rng.randrange(3, 9))
            s = 10.0 ** rng.uniform(-1.0, 1.0)
            a = solve_central_radius(petals)
            b = solve_central_radius([s * r for r in petals])
            assert b == pytest.approx(s * a, rel=1e-13)

    def test_angle_sum_at_root(self):
        rng = random.Random(12)
        for _ in range(20):
            petals = random_petals(rng, rng.randrange(3, 11))
            R = solve_central_radius(petals)
            assert angle_sum(R, petals) == pytest.approx(TWO_PI, abs=1e-12)

    # 1e-308 is a petal radius of 1e308, where r/R overflows unless the
    # smaller radius is the one divided by R.
    @pytest.mark.parametrize("k1", [1e80, 1e-80, 1e300, 1e-300, 1e-308])
    def test_extreme_ratios_match_classic_descartes(self, k1):
        k2 = k3 = 1.0
        expected = k1 + k2 + k3 + 2.0 * math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
        R = solve_central_radius([1.0 / k1, 1.0 / k2, 1.0 / k3])
        assert 1.0 / R == pytest.approx(expected, rel=1e-12)

    def test_sweep_evaluation_counts(self, monkeypatch):
        # Count every angle-sum evaluation: the Newton steps and the final
        # check, which goes through angle_sum to the same kernel.
        calls = []
        real = euclid_module._angle_sum_and_log_slope

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(euclid_module, "_angle_sum_and_log_slope", counted)
        # Radius (and so curvature) ratios log-uniform up to 1e+-8, n from 3 to 500.
        rng = random.Random(17)
        for i in range(200):
            n = rng.randrange(3, 501) if i % 2 else rng.randrange(3, 11)
            width = rng.uniform(0.0, 8.0)
            petals = [10.0 ** rng.uniform(-width, width) for _ in range(n)]
            calls.clear()
            R = solve_central_radius(petals)
            assert len(calls) <= 12, (n, width)
            assert abs(angle_sum(R, petals) - TWO_PI) <= 1e-12

    @pytest.mark.parametrize("r", [1e308, 1.6666666666666664e308, 1.7e308])
    def test_radii_near_the_float_maximum(self, r):
        # Curvatures from 1e-308 down to 5.9e-309: R + r_a + r_b overflows.
        s = math.sin(math.pi / 3.0)
        R = solve_central_radius([r, r, r])
        assert R == pytest.approx(r * (1.0 - s) / s, rel=1e-15)
        assert angle_sum(R, [r, r, r]) == pytest.approx(TWO_PI, rel=1e-15)

    def test_geometric_midpoint_guards_the_product(self):
        mid = euclid_module._geometric_midpoint
        assert mid(1.0, 4.0) == 2.0
        assert mid(2.0, 8.0) == 2.0 * mid(1.0, 4.0)
        assert mid(1e200, 1e300) == pytest.approx(1e250, rel=1e-15)
        assert mid(1e-300, 1e-200) == pytest.approx(1e-250, rel=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_central_radius([1.0, 1.0])
        with pytest.raises(ValueError):
            solve_central_radius([1.0, 1.0, -1.0])

    def test_too_extreme_to_bracket(self):
        # Radii of curvature 5.9e-309: the bracket's upper end overflows.
        with pytest.raises(NumericFailure, match="petal radii too extreme to bracket the central radius"):
            solve_central_radius([1.0 / 5.9e-309] * 7)

    @pytest.mark.parametrize(
        "total, message",
        [
            (math.nan, "angle sum is not finite; NaN propagation in the bracket"),
            (TWO_PI + 1e-3, "angle sum residual 1.000e-03 exceeds tol 1.000e-12"),
        ],
    )
    def test_angle_sum_checks(self, monkeypatch, total, message):
        # No known input reaches these checks; the kernel is replaced by one
        # that returns a NaN, or a sum a milliradian above a full turn (so
        # every step moves up the bracket until it closes).
        monkeypatch.setattr(euclid_module, "_angle_sum_and_log_slope", lambda R, radii: (total, -1.0))
        with pytest.raises(NumericFailure, match=re.escape(message)):
            solve_central_radius([1.0, 1.0, 1.0])


class TestAngleSumShape:
    def test_strictly_decreasing_on_grid(self):
        rng = random.Random(13)
        for _ in range(10):
            petals = random_petals(rng, rng.randrange(3, 8))
            grid = [10.0 ** e for e in [x / 4.0 for x in range(-16, 17)]]
            values = [angle_sum(R, petals) for R in grid]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_bracket_values(self):
        petals = [1.0, 3.0, 0.2, 1.0]
        assert angle_sum(1e-9 * min(petals), petals) >= 3.0 * math.pi
        assert angle_sum(1e9 * sum(petals), petals) < 1e-6


class TestLayout:
    def test_symmetric_three_flower_positions(self):
        layout = layout_flower([1.0, 1.0, 1.0])
        d = layout.central.r + 1.0
        for j, petal in enumerate(layout.petals):
            theta = j * TWO_PI / 3.0
            assert petal.cx == pytest.approx(d * math.cos(theta), abs=1e-9)
            assert petal.cy == pytest.approx(d * math.sin(theta), abs=1e-9)
        assert layout.central.r == pytest.approx(R3, abs=1e-12)

    def test_symmetric_four_flower_positions(self):
        layout = layout_flower([1.0] * 4)
        assert layout.central.r == pytest.approx(R4, abs=1e-12)
        d = math.sqrt(2.0)
        angles = [0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi]
        for petal, theta in zip(layout.petals, angles):
            assert petal.cx == pytest.approx(d * math.cos(theta), abs=1e-9)
            assert petal.cy == pytest.approx(d * math.sin(theta), abs=1e-9)

    @pytest.mark.parametrize(
        "petals, gaps, message",
        [(2, 2, "a flower needs at least 3 petals"), (3, 2, "need one gap angle per petal")],
    )
    def test_counts_checked(self, petals, gaps, message):
        with pytest.raises(ValueError, match=message):
            FlowerLayout(Circle(0.0, 0.0, 1.0), [Circle(2.0, 0.0, 1.0)] * petals, [1.0] * gaps)

    def test_random_layouts_validate(self):
        rng = random.Random(14)
        for _ in range(25):
            layout = layout_flower(random_petals(rng, rng.randrange(3, 11)))
            assert validate_flower(layout)

    def test_validate_catches_perturbation(self):
        layout = layout_flower([1.0, 2.0, 3.0])
        bad = layout.petals[0]
        petals = (Circle(bad.cx + 1e-5, bad.cy, bad.r),) + layout.petals[1:]
        broken = type(layout)(layout.central, petals, layout.gap_angles)
        assert not validate_flower(broken)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e7, 1e9])
    def test_validate_is_relative(self, scale):
        # An absolute 1e-9 rejected correct layouts from radii of about 1e7
        # and accepted one displaced by 30% at radii of 1e-12.
        layout = layout_flower([scale, 2.0 * scale, 3.0 * scale, 0.5 * scale])
        assert validate_flower(layout)
        moved = layout.petals[1]
        petals = list(layout.petals)
        petals[1] = Circle(1.3 * moved.cx, 1.3 * moved.cy, moved.r)
        assert not validate_flower(type(layout)(layout.central, tuple(petals), layout.gap_angles))

    def test_radius_and_gaps_are_the_helpers(self):
        # geometric_spinor_chain takes R from solve_central_radius and the
        # gaps from _gap_angles, without a layout; both must be layout's.
        rng = random.Random(44)
        for _ in range(200):
            n = rng.randrange(3, 41)
            width = rng.uniform(0.0, 6.0)
            radii = [10.0 ** rng.uniform(-width, width) for _ in range(n)]
            layout = layout_flower(radii)
            R = solve_central_radius(radii)
            assert layout.central.r.hex() == R.hex()
            gaps = [angle_gap(R, radii[j], radii[(j + 1) % n]).hex() for j in range(n)]
            assert [g.hex() for g in euclid_module._gap_angles(R, radii)] == gaps
            assert [g.hex() for g in layout.gap_angles] == gaps

    def test_petal_centre_beyond_the_float_range(self):
        with pytest.raises(NumericFailure, match="plus petal radius 1.6666666666666664e\\+308 overflows"):
            layout_flower([1.6666666666666664e308] * 3)

    def test_validate_near_the_float_maximum(self):
        # Centres 1.15e308 from the origin: their differences overflow
        # unless the tangency residuals are taken at a quarter scale.
        layout = layout_flower([1e308] * 3)
        assert validate_flower(layout)
        moved = layout.petals[1]
        petals = (layout.petals[0], Circle(moved.cx, moved.cy, 0.9 * moved.r), layout.petals[2])
        assert not validate_flower(type(layout)(layout.central, petals, layout.gap_angles))

    def test_tangency_residuals_zero(self):
        layout = layout_flower([0.5, 1.0, 2.0, 1.0, 0.7])
        cen, adj = tangency_residuals(layout.central, layout.petals)
        assert max(abs(x) for x in cen) < 1e-12
        assert max(abs(x) for x in adj) < 1e-12


class TestInversion:
    def test_external_circle(self):
        img = invert_in_unit_circle(Circle(2.0, 0.0, 1.0))
        assert (img.cx, img.cy, img.r) == pytest.approx((2.0 / 3.0, 0.0, 1.0 / 3.0))

    def test_interior_circle(self):
        img = invert_in_unit_circle(Circle(0.5, 0.0, 0.25))
        assert (img.cx, img.cy, img.r) == pytest.approx((8.0 / 3.0, 0.0, 4.0 / 3.0))

    def test_involution(self):
        rng = random.Random(15)
        for _ in range(50):
            c = Circle(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0.05, 2.0))
            if abs(math.hypot(c.cx, c.cy) - c.r) < 1e-3:
                continue
            back = invert_in_unit_circle(invert_in_unit_circle(c))
            assert back.cx == pytest.approx(c.cx, rel=1e-12, abs=1e-12)
            assert back.cy == pytest.approx(c.cy, rel=1e-12, abs=1e-12)
            assert back.r == pytest.approx(c.r, rel=1e-12)

    def test_circle_through_origin_rejected(self):
        with pytest.raises(ValueError):
            invert_in_unit_circle(Circle(1.0, 0.0, 1.0))

    def test_tangent_circle_curvature_shift(self):
        # A petal tangent to the unit circle from outside gains curvature 2.
        for kappa in (1.0, 4.0):
            r = 1.0 / kappa
            image = invert_in_unit_circle(Circle(1.0 + r, 0.0, r))
            assert image.curvature == pytest.approx(kappa + 2.0, rel=1e-12)


class TestInvertedFlower:
    @staticmethod
    def normalized(petal_radii):
        layout = layout_flower(petal_radii)
        R = layout.central.r
        petals = tuple(Circle(p.cx / R, p.cy / R, p.r / R) for p in layout.petals)
        return type(layout)(Circle(0.0, 0.0, 1.0), petals, layout.gap_angles)

    def test_curvature_shift_is_two(self):
        rng = random.Random(16)
        for _ in range(20):
            layout = self.normalized(random_petals(rng, rng.randrange(3, 9)))
            images = inverted_flower(layout)
            for petal, image in zip(layout.petals, images):
                assert image.curvature - petal.curvature == pytest.approx(2.0, abs=1e-9)

    def test_images_internally_tangent_to_unit_circle(self):
        layout = self.normalized([1.0, 2.0, 0.5, 1.0])
        for image in inverted_flower(layout):
            assert math.hypot(image.cx, image.cy) + image.r == pytest.approx(1.0, abs=1e-12)

    def test_consecutive_images_tangent(self):
        layout = self.normalized([1.0, 0.3, 2.0])
        images = inverted_flower(layout)
        n = len(images)
        for j in range(n):
            a, b = images[j], images[(j + 1) % n]
            assert a.center_distance(b) == pytest.approx(a.r + b.r, abs=1e-12)

    def test_symmetric_three_flower_images(self):
        layout = self.normalized([1.0, 1.0, 1.0])
        kappa_n = layout.petals[0].curvature  # normalized petal curvature
        assert kappa_n == pytest.approx(1.0 / (3.0 + 2.0 * math.sqrt(3.0)), abs=1e-12)
        for image in inverted_flower(layout):
            assert image.curvature == pytest.approx(kappa_n + 2.0, abs=1e-9)

    def test_requires_unit_central(self):
        with pytest.raises(ValueError):
            inverted_flower(layout_flower([1.0, 1.0, 1.0]))


class TestCurvatureRelations:
    def test_classic_symmetric_root(self):
        k = 3.0 + 2.0 * math.sqrt(3.0)
        res = classic_descartes_residual(k, 1.0, 1.0, 1.0)
        assert abs(res) < 1e-9

    def test_classic_ford_flower_exact(self):
        assert classic_descartes_residual(1.0, 0.0, 4.0, 1.0) == 0.0

    def test_classic_all_zero(self):
        assert classic_descartes_residual(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_classic_vanishes_on_solved_three_flowers(self):
        rng = random.Random(17)
        for _ in range(30):
            petals = random_petals(rng, 3)
            R = solve_central_radius([1.0 / k for k in petals])
            k = 1.0 / R
            rel = abs(classic_descartes_residual(k, *petals)) / classic_descartes_scale(k, *petals)
            assert rel < 1e-8

    def test_quartic_symmetric_root(self):
        res = four_flower_poly_residual(math.sqrt(2.0) + 1.0, 1.0, 1.0, 1.0, 1.0)
        assert abs(res) < 1e-8

    def test_quartic_single_term(self):
        assert four_flower_poly_residual(1.0, 0.0, 0.0, 0.0, 0.0) == 16.0

    def test_quartic_vanishes_on_solved_four_flowers(self):
        rng = random.Random(18)
        for _ in range(30):
            petals = random_petals(rng, 4)
            R = solve_central_radius([1.0 / k for k in petals])
            k = 1.0 / R
            rel = abs(four_flower_poly_residual(k, *petals)) / four_flower_poly_scale(k, *petals)
            assert rel < 1e-6


class TestCurvatureScaleCovariance:
    def test_residuals_vanish_under_curvature_scaling(self):
        petals = [1.0, 2.0, 0.5]
        R = solve_central_radius([1.0 / k for k in petals])
        k = 1.0 / R
        for s in (0.5, 2.0, 3.7):
            rel = abs(classic_descartes_residual(k / s, *(p / s for p in petals)))
            rel /= classic_descartes_scale(k / s, *(p / s for p in petals))
            assert rel < 1e-12
