import dataclasses
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

from nflower.descartes import (
    CentralSolve,
    SpinorChain,
    closure_residuals,
    descartes_lhs_subset,
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
    residual_with_scale,
    solve_central_curvature,
    solve_report,
    spinor_recursion,
    xi_from_etas,
)
from nflower import descartes as descartes_module
from nflower import euclid as euclid_module
from nflower import hyperbolic as hyperbolic_module
from nflower import solve as solve_module
from nflower.euclid import (
    Circle,
    NumericFailure,
    four_flower_poly_residual,
    four_flower_poly_scale,
    invert_in_unit_circle,
    layout_flower,
    solve_central_radius,
)
from nflower.hyperbolic import (
    DiscHorocycle,
    Spinor,
    bracket,
    disc_curvature_of_spinor,
    disc_horocycle_to_uhp,
    horocycle_to_spinor,
)

K3 = 3.0 + 2.0 * math.sqrt(3.0)  # central curvature of three unit petals
K4 = math.sqrt(2.0) + 1.0  # central curvature of four unit petals
FORD_M = (1.0, 2.0, 3.0)  # m-variables of the normalized [0, 4, 1] flower
SYM3 = 1.0 / K3  # normalized petal curvature of the symmetric 3-flower


def random_m(rng, n, low=0.0, high=10.0):
    return [rng.uniform(low, high) for _ in range(n)]


def random_petals(rng, n):
    return [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)]


def sweep_flowers(rng, count, spread):
    """count flowers with n from 3 to 500 and curvatures 10^U(-w, w),
    w = U(0, spread); every fourth flower has equal petals."""
    for i in range(count):
        n = rng.choice((3, 4, rng.randrange(5, 40), rng.randrange(3, 501)))
        width = rng.uniform(0.0, spread)
        if i % 4 == 3:
            yield [10.0 ** rng.uniform(-width, width)] * n
        else:
            yield [10.0 ** rng.uniform(-width, width) for _ in range(n)]


def composed_relation(petals, k):
    """The relation over |P| as the m-variable tuple of the normalized
    curvatures fed to the phase form, the reference for the one-pass kernel."""
    kappas = [p / k for p in petals]
    t = 1.0 / math.sqrt((kappas[0] + 1.0) * (kappas[-1] + 1.0))
    return descartes_module._phase_form(m_from_normalized(kappas), t)


def composed_chain(petals):
    """geometric_spinor_chain as the composition of the public pipeline:
    layout_flower, each petal rescaled to a unit central circle as a Circle,
    invert_in_unit_circle, DiscHorocycle, disc_horocycle_to_uhp and
    horocycle_to_spinor, then the shift that starts the chain at 0.  The
    reference for the chain's closed forms, which build none of these
    objects; it loses digits to the inversion and to the difference of
    absolute tangencies, so it agrees only on moderate flowers.  Returns
    (start, central curvature, disc curvatures, spinors)."""
    layout = layout_flower([1.0 / k for k in petals])
    n = len(petals)
    R, gaps = layout.central.r, layout.gap_angles
    start = (max(range(n), key=lambda j: gaps[j]) + 1) % n
    theta = gaps[(start - 1) % n] / 2.0
    disc, spinors = [], []
    for i in range(n):
        j = (start + i) % n
        r = layout.petals[j].r / R
        d = 1.0 + r
        image = invert_in_unit_circle(Circle(d * math.cos(theta), d * math.sin(theta), r))
        disc.append(image.curvature)
        spinors.append(horocycle_to_spinor(disc_horocycle_to_uhp(DiscHorocycle(theta, image.r))))
        theta += gaps[j]
    p0 = spinors[0].xi / spinors[0].eta
    shifted = [Spinor(0.0, spinors[0].eta)]
    shifted += [Spinor(s.xi - p0 * s.eta, s.eta) for s in spinors[1:]]
    return start, 1.0 / R, disc, shifted


def enumerated_relation(m):
    """(lhs, absolute term sum, rhs) of the relation by enumerating every
    subset K of {1..n-1} with |K| = n-2-2i, sign (-1)^i."""
    n = len(m)
    signed = absolute = 0.0
    for i, size in enumerate(range(n - 2, -1, -2)):
        for combo in itertools.combinations(m[1:], size):
            signed += (-1.0) ** i * math.prod(combo)
            absolute += math.prod(combo)
    w = m[0] ** 2 if n % 2 else 1.0
    rhs = math.prod(m[k] ** 2 + 1.0 for k in range(2 - n % 2, n - 1, 2))
    return w * signed, w * absolute, rhs


class TestMFromNormalized:
    def test_ford(self):
        assert tuple(m_from_normalized([0.0, 4.0, 1.0])) == FORD_M

    def test_symmetric_three_flower(self):
        m = m_from_normalized([SYM3] * 3)
        assert tuple(m) == pytest.approx((1.0745699, 0.5773503, 0.5773503), abs=1e-7)
        assert m[0] ** 2 == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)

    def test_symmetric_four_flower(self):
        m = m_from_normalized([math.sqrt(2.0) - 1.0] * 4)
        assert tuple(m) == pytest.approx((2.0 ** 0.25, 1.0, 1.0, 1.0), rel=1e-12)

    def test_negative_radicand(self):
        with pytest.raises(ValueError):
            m_from_normalized([-0.9, -0.9, -0.9])

    @pytest.mark.parametrize(
        "kappas, message",
        [
            ([1.0, 1.0], "need at least 3 petal curvatures"),
            ([1.0, math.inf, 1.0], "m-variables must be finite"),
        ],
    )
    def test_typed_failures(self, kappas, message):
        with pytest.raises(ValueError, match=message):
            m_from_normalized(kappas)


class TestKappaPlusOne:
    def test_odd_index(self):
        assert kappa_plus_one(FORD_M, 1) == 5.0  # kappa_1 + 1 for [0, 4, 1]

    def test_even_index(self):
        assert kappa_plus_one(FORD_M, 2) == 2.0  # kappa_2 + 1

    def test_base_index(self):
        assert kappa_plus_one(FORD_M, 0) == 1.0

    def test_empty_products(self):
        # j = 1: single numerator factor, empty denominator product
        assert kappa_plus_one((2.0, 3.0, 1.0), 1) == (9.0 + 1.0) / 4.0

    def test_round_trip_from_curvatures(self):
        rng = random.Random(21)
        for _ in range(50):
            ks = [rng.uniform(0.0, 5.0) for _ in range(rng.randrange(3, 12))]
            m = m_from_normalized(ks)
            for j, k in enumerate(ks):
                assert kappa_plus_one(m, j) == pytest.approx(k + 1.0, rel=1e-12)

    def test_zero_m0_odd_case(self):
        with pytest.raises(ValueError):
            kappa_plus_one((0.0, 1.0, 1.0), 1)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_index_out_of_range(self, j):
        with pytest.raises(ValueError, match=f"index {j} out of range for 3 variables"):
            kappa_plus_one(FORD_M, j)


class TestResidualForms:
    def test_ford_is_flower(self):
        assert descartes_residual_complex(FORD_M) == 0.0
        assert descartes_residual_subset(FORD_M) == 0.0

    def test_symmetric_four_flower(self):
        m = (2.0 ** 0.25, 1.0, 1.0, 1.0)
        assert abs(descartes_residual_complex(m)) < 1e-14
        assert abs(descartes_residual_subset(m)) < 1e-14

    def test_non_flower_value(self):
        m = (math.sqrt(2.0), math.sqrt(3.0), math.sqrt(3.0))
        expected = 4.0 * math.sqrt(3.0) - 4.0
        assert descartes_residual_complex(m) == pytest.approx(expected, rel=1e-14)
        assert descartes_residual_subset(m) == pytest.approx(expected, rel=1e-14)
        assert descartes_residual_subset(m) == pytest.approx(2.9282032, abs=1e-7)

    def test_even_all_zero_tail(self):
        # n=4 with m_1 = m_2 = m_3 = 0: lhs = -1, rhs = 1
        assert descartes_residual_subset((5.0, 0.0, 0.0, 0.0)) == -2.0

    def test_forms_agree_on_random_vectors(self):
        rng = random.Random(22)
        for i in range(400):
            m = random_m(rng, 3 + i % 10)
            c = descartes_residual_complex(m)
            s = descartes_residual_subset(m)
            assert abs(c - s) <= 1e-10 * (1.0 + abs(descartes_lhs_subset(m)))

    def test_complex_form_past_float_range(self):
        # |prod(m_j + i)| overflows while both of its parts are finite; the
        # form needs only the imaginary part, so no OverflowError is raised.
        v, k = 983.5, 103
        m = [1.0] + [v] * k
        log_abs = k * math.log(math.hypot(v, 1.0))
        assert log_abs > math.log(sys.float_info.max)
        scaled = math.exp(log_abs - 1000 * math.log(2.0)) * math.sin(k * math.atan2(1.0, v))
        lhs = math.ldexp(scaled, 1000)
        rhs = (v * v + 1.0) ** (k // 2)
        assert descartes_residual_complex(m) == pytest.approx(lhs - rhs, rel=1e-10)

    def test_scale_bounds_residual(self):
        rng = random.Random(23)
        for i in range(100):
            m = random_m(rng, 3 + i % 8)
            assert abs(descartes_residual_subset(m)) <= descartes_residual_scale(m) * (1 + 1e-12)

    def test_rejects_short_vectors(self):
        with pytest.raises(ValueError):
            descartes_residual_subset((1.0, 2.0))

    def test_subset_forms_match_enumeration(self):
        rng = random.Random(34)
        for n in range(3, 13):
            for _ in range(20):
                m = random_m(rng, n)
                lhs, absolute, rhs = enumerated_relation(m)
                tol = 1e-12 * absolute
                assert abs(descartes_lhs_subset(m) - lhs) <= tol
                assert abs(descartes_residual_subset(m) - (lhs - rhs)) <= tol
                assert abs(descartes_residual_scale(m) - (absolute + rhs)) <= tol

    def test_phase_form_matches_subset_form(self):
        # residual_with_scale is the relation divided by |P| (times m_0^2
        # for odd n); multiplied back it is the subset form.
        rng = random.Random(35)
        for n in range(3, 17):
            for _ in range(20):
                m = random_m(rng, n)
                res, scale = residual_with_scale(m)
                mag = math.prod(math.hypot(v, 1.0) for v in m[1:]) * (m[0] ** 2 if n % 2 else 1.0)
                assert abs(res * mag - descartes_residual_subset(m)) <= 1e-12 * scale * mag
                assert abs(res) <= scale

    def test_zero_m0_rejected(self):
        with pytest.raises(ValueError, match="m_0 = 0"):
            residual_with_scale((0.0, 1.0, 1.0))

    def test_kernel_is_the_composition_to_the_bit(self):
        # At each flower's root k0 and at k0 times a power of two, the
        # candidates solve_report's check and bisection pass.
        rng = random.Random(37)
        for petals in sweep_flowers(rng, 400, 12.0):
            k0 = 1.0 / solve_central_radius([1.0 / p for p in petals])
            for k in (k0, math.ldexp(k0, rng.choice((-40, -3, -1, 1, 7, 40)))):
                expected = tuple(map(float.hex, composed_relation(petals, k)))
                got = solve_module._normalized_relation(petals, k)
                assert tuple(map(float.hex, got)) == expected, (petals, k)

    def test_kernel_finite_at_extreme_curvatures(self):
        values = (0.0, 5e-324, 1e-300, 1.0, 1e300, 1.7e308, math.inf)
        for n in (3, 4):
            for kappas in itertools.product(values, repeat=n):
                res, scale = solve_module._normalized_relation(kappas, 1.0)
                assert math.isfinite(res) and 1.0 <= scale <= 2.0, kappas


class TestSpinorRecursion:
    def test_ford_chain_exact(self):
        chain = spinor_recursion(FORD_M)
        assert chain.xis == (0.0, 1.0, 1.0)
        assert chain.etas == (1.0, 2.0, 1.0)

    def test_symmetric_three_flower_trace(self):
        m = m_from_normalized([SYM3] * 3)
        chain = spinor_recursion(m)
        # eta_1 = m_1/m_0, eta_2 = -eta_1 by symmetry; xi_1 = xi_2 = 1/eta_0
        assert chain.etas[0] == pytest.approx(1.0745699, abs=1e-7)
        assert chain.etas[1] == pytest.approx(m[1] / m[0], rel=1e-12)
        assert chain.etas[2] == pytest.approx(-chain.etas[1], rel=1e-9)
        assert chain.xis[1] == pytest.approx(0.9306049, abs=1e-7)
        assert chain.xis[2] == pytest.approx(chain.xis[1], rel=1e-9)
        assert bracket(chain[0], chain[2]) == pytest.approx(-1.0, abs=1e-12)

    def test_non_flower_open_bracket(self):
        chain = spinor_recursion((math.sqrt(2.0), math.sqrt(3.0), math.sqrt(3.0)))
        assert bracket(chain[0], chain[2]) == pytest.approx(-math.sqrt(3.0), rel=1e-12)

    def test_consecutive_brackets(self):
        rng = random.Random(24)
        for _ in range(100):
            m = random_m(rng, rng.randrange(3, 13), low=0.05)
            chain = spinor_recursion(m)
            for j in range(len(chain) - 1):
                assert bracket(chain[j], chain[j + 1]) == pytest.approx(-1.0, abs=1e-10)

    def test_chain_consistency_with_disc_curvature(self):
        rng = random.Random(25)
        for _ in range(100):
            m = random_m(rng, rng.randrange(3, 13), low=0.05)
            chain = spinor_recursion(m)
            for j, s in enumerate(chain.spinors):
                assert disc_curvature_of_spinor(s) - 1.0 == pytest.approx(
                    kappa_plus_one(m, j), rel=1e-9
                )

    def test_degenerate_m0(self):
        with pytest.raises(NumericFailure):
            spinor_recursion((0.0, 1.0, 1.0))

    def test_tangent_at_infinity_has_disc_curvature(self):
        # Six unit petals: k0 = 1, so every normalized petal has disc
        # curvature 3, including chain[3], whose eta is exactly 0.
        chain = spinor_recursion(m_from_normalized([1.0] * 6))
        assert chain.etas[3] == 0.0
        for s in chain.spinors:
            assert disc_curvature_of_spinor(s) == pytest.approx(3.0, rel=1e-12)

    def test_does_not_reconstruct_curvatures(self, monkeypatch):
        def explode(m, j):
            raise AssertionError("kappa_plus_one called")

        monkeypatch.setattr(descartes_module, "kappa_plus_one", explode)
        assert spinor_recursion(FORD_M).etas == (1.0, 2.0, 1.0)


class TestEtaClosedForm:
    def test_base_case(self):
        assert eta_closed_form(FORD_M, 0) == 1.0

    def test_first_step(self):
        assert eta_closed_form(FORD_M, 1) == 2.0  # m_1/m_0

    def test_second_step(self):
        # m_0 (m_1 m_2 - 1)/(m_1^2 + 1) = 5/5
        assert eta_closed_form(FORD_M, 2) == 1.0

    def test_matches_recursion(self):
        rng = random.Random(26)
        for _ in range(200):
            m = random_m(rng, rng.randrange(3, 13), low=0.05)
            chain = spinor_recursion(m)
            for j in range(len(m)):
                a, b = chain.etas[j], eta_closed_form(m, j)
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))

    def test_zero_m0_rejected(self):
        with pytest.raises(ValueError):
            eta_closed_form((0.0, 1.0, 2.0), 1)

    @pytest.mark.parametrize("j", [-1, 3])
    def test_index_out_of_range(self, j):
        with pytest.raises(ValueError, match=f"index {j} out of range"):
            eta_closed_form(FORD_M, j)


class TestXiFromEtas:
    def test_ford_values(self):
        assert xi_from_etas((1.0, 2.0, 1.0), 1) == 1.0
        assert xi_from_etas((1.0, 2.0, 1.0), 2) == 1.0

    def test_symmetric_trace(self):
        etas = (1.0745699, 0.5372849, -0.5372849)
        assert xi_from_etas(etas, 2) == pytest.approx(0.9306049, abs=1e-6)

    def test_matches_recursion(self):
        rng = random.Random(27)
        for _ in range(100):
            m = random_m(rng, rng.randrange(3, 13), low=0.05)
            chain = spinor_recursion(m)
            for j in range(1, len(m)):
                assert xi_from_etas(chain.etas, j) == pytest.approx(
                    chain.xis[j], rel=1e-10, abs=1e-10
                )

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            xi_from_etas((1.0, 0.0, 1.0), 2)

    @pytest.mark.parametrize("j", [0, 3])
    def test_index_out_of_range(self, j):
        with pytest.raises(ValueError, match=f"index {j} out of range"):
            xi_from_etas((1.0, 2.0, 1.0), j)


class TestClosureResiduals:
    def test_ford_closes(self):
        assert closure_residuals(spinor_recursion(FORD_M)) == (0.0, 0.0)

    def test_symmetric_closes(self):
        m = m_from_normalized([SYM3] * 3)
        br, er = closure_residuals(spinor_recursion(m))
        assert abs(br) < 1e-12 and abs(er) < 1e-12

    def test_non_flower_open(self):
        m = (math.sqrt(2.0), math.sqrt(3.0), math.sqrt(3.0))
        br, _ = closure_residuals(spinor_recursion(m))
        assert br == pytest.approx(1.0 - math.sqrt(3.0), rel=1e-12)
        assert br == pytest.approx(-0.7320508, abs=1e-7)

    def test_equal_petals_close(self):
        # Symmetric flowers of even n have a horocycle tangent at infinity
        # (eta = 0 in exact arithmetic); the chain closes all the same.
        for k in (1.0, 0.3, 7.0):
            for n in range(3, 17):
                k0 = solve_central_curvature([k] * n)
                chain = spinor_recursion(m_from_normalized([k / k0] * n))
                assert abs(bracket(chain[0], chain[n - 1]) + 1.0) <= 1e-12

    def test_eta_zero_raises(self):
        k0 = solve_central_curvature([1.0] * 6)
        chain = spinor_recursion(m_from_normalized([1.0 / k0] * 6))
        assert chain.etas[3] == 0.0
        with pytest.raises(NumericFailure, match="eta_3"):
            closure_residuals(chain)

    def test_zero_set_separation(self):
        # Residuals vanish together on flowers and move away together when
        # every petal curvature is scaled up by 1%.
        rng = random.Random(99)
        for n in range(3, 11):
            for _ in range(10):
                petals = random_petals(rng, n)
                k0 = solve_central_curvature(petals)
                m = m_from_normalized([p / k0 for p in petals])
                br, er = closure_residuals(spinor_recursion(m))
                assert abs(descartes_residual_subset(m)) < 1e-8 * descartes_residual_scale(m)
                assert abs(br) < 1e-8 and abs(er) < 1e-8
                mp = m_from_normalized([1.01 * p / k0 for p in petals])
                brp, erp = closure_residuals(spinor_recursion(mp))
                assert abs(descartes_residual_subset(mp)) > 1e-3
                assert abs(brp) > 1e-3 and abs(erp) > 1e-3


class TestParallelograms:
    def test_solved_flower_invariants(self):
        rng = random.Random(28)
        for n in range(3, 9):
            petals = random_petals(rng, n)
            k0 = solve_central_curvature(petals)
            m = m_from_normalized([p / k0 for p in petals])
            inv = parallelogram_invariants(spinor_recursion(m))
            for a in inv.areas:
                assert a == pytest.approx(1.0, abs=1e-9)
            assert inv.closing_area == pytest.approx(-1.0, abs=1e-8)
            for dot, mj in zip(inv.dots, tuple(m)[1:]):
                assert dot == pytest.approx(mj, abs=1e-9)


class TestFlatFlower:
    def test_ford_triple(self):
        assert flat_flower_residual((2.0, 8.0, 2.0)) == 0.0

    def test_unit_triple(self):
        assert flat_flower_residual((1.0, 1.0, 1.0)) == 1.0

    def test_homogeneity(self):
        rng = random.Random(29)
        ks = [rng.uniform(0.5, 5.0) for _ in range(5)]
        base = flat_flower_residual(ks)
        for s in (2.0, 10.0):
            assert flat_flower_residual([s * k for k in ks]) == pytest.approx(base / s, rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            flat_flower_residual((1.0, 0.0, 1.0))


class TestGeometricChain:
    def test_all_etas_positive(self):
        rng = random.Random(30)
        for _ in range(30):
            g = geometric_spinor_chain(random_petals(rng, rng.randrange(3, 11)))
            assert all(e > 0.0 for e in g.chain.etas)

    def test_flat_relation_on_chain(self):
        rng = random.Random(31)
        for _ in range(30):
            g = geometric_spinor_chain(random_petals(rng, rng.randrange(3, 11)))
            assert abs(flat_flower_residual(flat_curvatures(g.chain))) < 1e-12

    def test_closure(self):
        g = geometric_spinor_chain([1.0, 1.0, 1.0])
        br, er = closure_residuals(g.chain)
        assert abs(br) < 1e-12 and abs(er) < 1e-12

    def test_disc_curvatures_follow_inversion_shift(self):
        petals = [1.0, 2.0, 0.5, 1.0]
        g = geometric_spinor_chain(petals)
        n = len(petals)
        for i, kd in enumerate(g.disc_curvatures):
            k_norm = petals[(g.start + i) % n] / g.central_curvature
            assert kd == pytest.approx(k_norm + 2.0, rel=1e-12)

    def test_central_curvature_matches_solver(self):
        petals = [1.0, 0.4, 2.5]
        g = geometric_spinor_chain(petals)
        assert g.central_curvature == pytest.approx(solve_central_curvature(petals), rel=1e-12)

    def test_chain_matches_the_composition(self):
        # The closed forms are the public transforms composed, so they agree
        # with composed_chain to rounding where the composition keeps its
        # digits, at spreads up to 1e+-2.
        rng = random.Random(43)
        for i in range(240):
            n = rng.randrange(3, 41)
            width = rng.uniform(0.0, 2.0)
            if i % 4 == 3:
                petals = [10.0 ** rng.uniform(-width, width)] * n
            else:
                petals = [10.0 ** rng.uniform(-width, width) for _ in range(n)]
            start, k0, disc, spinors = composed_chain(petals)
            g = geometric_spinor_chain(petals)
            assert (g.start, g.central_curvature) == (start, k0), petals
            for got, want in zip(g.disc_curvatures, disc, strict=True):
                assert got == pytest.approx(want, rel=1e-12), petals
            for got, want in zip(g.chain.spinors, spinors, strict=True):
                size = math.hypot(want.xi, want.eta)
                assert math.hypot(got.xi - want.xi, got.eta - want.eta) <= 1e-12 * size, petals

    @pytest.mark.parametrize("spread", [4, 8, 12])
    def test_brackets_match_the_recursion(self, spread):
        # The paper's theorem: the horocycle spinors of a flower and the
        # spinor_recursion chain of its m-variables, in the same petal order,
        # are one chain up to an SL2(R) map, so their brackets agree.  z_0 and
        # z_1 span the plane, so [z_0, z_j] and [z_1, z_j] for every j suffice.
        rng = random.Random(7000 + spread)
        for _ in range(300):
            n = rng.choice((3, 4, 5, 7, 12))
            petals = [10.0 ** rng.uniform(-spread, spread) for _ in range(n)]
            g = geometric_spinor_chain(petals)
            k0 = g.central_curvature
            rotated = [petals[(g.start + i) % n] / k0 for i in range(n)]
            rec = spinor_recursion(m_from_normalized(rotated))
            size = [math.hypot(s.xi, s.eta) for s in rec.spinors]
            for i in (0, 1):
                for j in range(n):
                    want = bracket(rec[i], rec[j])
                    scale = max(abs(want), size[i] * size[j])
                    assert abs(bracket(g.chain[i], g.chain[j]) - want) <= 1e-12 * scale, (petals, i, j)

    @pytest.mark.parametrize("spread", [150, 300])
    def test_valid_petals_never_raise_value_error(self, spread):
        # ValueError is for petals that fail their check; past it, trouble
        # is numeric.  At 1e+-300 some disc curvatures 2 + R/r_j overflow.
        rng = random.Random(3100 + spread)
        for _ in range(150):
            n = rng.choice((3, 4, 5, 7, 12, 40))
            petals = [10.0 ** rng.uniform(-spread, spread) for _ in range(n)]
            try:
                geometric_spinor_chain(petals)
            except NumericFailure:
                pass

    def test_disc_curvature_overflow_names_the_chain(self):
        message = "^geometric_spinor_chain: disc curvature of petal 4 overflows$"
        with pytest.raises(NumericFailure, match=message):
            geometric_spinor_chain([1e-160, 1e-160, 1e-160, 1e-160, 1e160])

    def test_failed_chain_check_names_the_chain(self, monkeypatch):
        # Gaps that do not belong to the petals leave a consecutive bracket
        # off -1.
        gaps = (math.pi, 0.5, math.pi - 0.5)
        monkeypatch.setattr(descartes_module, "_solved_flower", lambda radii: (1.0, gaps))
        with pytest.raises(NumericFailure, match="^geometric_spinor_chain: consecutive bracket 0,1 is "):
            geometric_spinor_chain([1.0, 2.0, 3.0])


class TestGeometricChainOnFloats:
    """geometric_spinor_chain forms each spinor from R, the gap angles and
    the petal radius in closed form, on floats, without the horocycle
    classes."""

    def test_builds_no_horocycle(self, monkeypatch):
        built = []
        for cls in (hyperbolic_module.DiscHorocycle, hyperbolic_module.Horocycle):
            real = cls.__post_init__

            def counted(self, real=real):
                built.append(type(self).__name__)
                real(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        rng = random.Random(44)
        for _ in range(10):
            geometric_spinor_chain(random_petals(rng, rng.randrange(3, 11)))
        assert built == []


class TestOneSolvePerFlower:
    """layout_flower and geometric_spinor_chain keep the last flower they
    solved (euclid._solved_flower); tests/conftest.py empties it before
    each test."""

    def count_solves(self, monkeypatch, fail_first=False):
        """Count calls of solve_central_radius, which every caller looks up
        on euclid; the first raises NumericFailure if fail_first."""
        real = euclid_module.solve_central_radius
        calls = []

        def counted(radii):
            calls.append(tuple(radii))
            if fail_first and len(calls) == 1:
                raise NumericFailure("first solve fails")
            return real(radii)

        monkeypatch.setattr(euclid_module, "solve_central_radius", counted)
        return calls

    def test_layout_then_chain_solves_once(self, monkeypatch):
        petals = [1.0, 0.4, 2.5, 3.0]
        calls = self.count_solves(monkeypatch)
        layout = layout_flower([1.0 / k for k in petals])
        g = geometric_spinor_chain(petals)
        assert len(calls) == 1
        assert g.central_curvature == layout.central.curvature

    def test_chain_then_layout_solves_once(self, monkeypatch):
        petals = [2.0, 1.0, 0.5]
        calls = self.count_solves(monkeypatch)
        geometric_spinor_chain(petals)
        layout_flower([1.0 / k for k in petals])
        assert len(calls) == 1

    def test_another_flower_is_solved(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        layout_flower([1.0, 1.0, 1.0])
        geometric_spinor_chain([1.0, 1.0, 2.0])
        layout_flower([1.0, 1.0, 1.0])  # one flower is kept, not two
        assert len(calls) == 3

    def test_a_failed_solve_is_not_kept(self, monkeypatch):
        calls = self.count_solves(monkeypatch, fail_first=True)
        radii = [1.0, 2.0, 3.0]
        with pytest.raises(NumericFailure, match="first solve fails"):
            layout_flower(radii)
        assert layout_flower(radii).central.r == solve_central_radius(radii)
        assert len(calls) == 2  # the failure and the retry

    def test_kept_gaps_cannot_change(self):
        radii = (1.0, 0.5, 2.0, 1.5)
        R, gaps = euclid_module._solved_flower(radii)
        assert type(gaps) is tuple
        assert layout_flower(list(radii)).gap_angles == gaps
        assert euclid_module._solved_flower(radii) == (solve_central_radius(radii), gaps)

    def test_solve_report_does_not_use_it(self, monkeypatch):
        petals = [1.0, 0.4, 2.5]
        layout_flower([1.0 / k for k in petals])
        calls = self.count_solves(monkeypatch)
        solve_report(petals)
        solve_report(petals)
        assert len(calls) == 2


class TestCentralCurvatureSolver:
    def test_three_unit_petals(self):
        assert solve_central_curvature([1.0, 1.0, 1.0]) == pytest.approx(K3, abs=1e-9)

    def test_four_unit_petals(self):
        assert solve_central_curvature([1.0, 1.0, 1.0, 1.0]) == pytest.approx(K4, abs=1e-9)

    def test_curvature_homogeneity(self):
        assert solve_central_curvature([2.0, 2.0, 2.0]) == pytest.approx(2.0 * K3, rel=1e-12)
        assert solve_central_curvature([2.0, 2.0, 2.0]) == pytest.approx(12.9282032, abs=1e-7)

    def test_report_roots_agree(self):
        rng = random.Random(32)
        for _ in range(20):
            petals = random_petals(rng, rng.randrange(3, 9))
            rep = solve_report(petals)
            assert isinstance(rep, CentralSolve)
            assert abs(rep.polished_curvature - rep.central_curvature) <= 1e-9 * max(
                1.0, rep.central_curvature
            )
            assert abs(rep.residual) <= 1e-9 * rep.residual_scale

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_central_curvature([1.0, 1.0])
        with pytest.raises(ValueError):
            solve_central_curvature([1.0, 1.0, 0.0])
        with pytest.raises(ValueError):
            solve_central_curvature([1.0, 1.0, 1.0], tol=-1.0)

    def test_many_petals_uses_polynomial_cost_route(self):
        # Past the exact-expansion cap a 30-petal flower must still solve
        # quickly.
        petals = [1.0 + 0.1 * (j % 5) for j in range(30)]
        rep = solve_report(petals)
        assert abs(rep.residual) <= 1e-9 * rep.residual_scale
        g = geometric_spinor_chain(petals)
        assert abs(flat_flower_residual(flat_curvatures(g.chain))) < 1e-10


    @pytest.mark.parametrize("n", [13, 20, 24, 25, 60, 120, 175, 200, 1000, 10000, 13547, 30000])
    def test_equal_petals_closed_form(self, n):
        # |P| is never formed, so n is not capped where it would overflow
        # (near 175 unit petals).  Rounding in the sum of n angles exceeds an
        # absolute 1e-12 from 13,547 petals on; the angle-sum check scales
        # with n eps.
        s = math.sin(math.pi / n)
        for k in (1.0, 3.5):
            rep = solve_report([k] * n)
            assert rep.central_curvature == pytest.approx(k * s / (1.0 - s), rel=1e-9)
            assert rep.polished_curvature == pytest.approx(k * s / (1.0 - s), rel=1e-9)
            assert abs(rep.residual) <= 1e-9 * rep.residual_scale

    def test_root_agreement_is_relative(self, monkeypatch):
        # Move the relation root 5% away from the geometric root k0 = 6.46e-12.
        # An absolute tolerance of 1e-9 max(1, k0) would accept it.
        real = solve_module._normalized_relation
        calls = []

        def shifted(petals, k):
            calls.append(1)
            return real(petals, k if len(calls) == 1 else k / 1.05)

        monkeypatch.setattr(solve_module, "_normalized_relation", shifted)
        with pytest.raises(NumericFailure, match="disagree"):
            solve_report([1e-12] * 3)

    def test_random_flowers_around_former_cap(self):
        rng = random.Random(36)
        for n in range(21, 27):
            petals = random_petals(rng, n)
            rep = solve_report(petals)
            assert abs(rep.polished_curvature - rep.central_curvature) <= 1e-9 * max(
                1.0, rep.central_curvature
            )
            assert abs(rep.residual) <= 1e-9 * rep.residual_scale

    @pytest.mark.parametrize("res", [math.nan, -math.inf, math.inf])
    def test_non_finite_residual_rejected(self, monkeypatch, res):
        # the scale is finite, so one tolerance test rejects NaN and inf
        calls = self._patch_kernel(monkeypatch, 0, lambda value: res)
        with pytest.raises(NumericFailure, match="fails the relation"):
            solve_report([1.0, 1.0, 1.0])
        assert len(calls) == 1

    def test_equal_petals_below_overflow(self):
        s = math.sin(math.pi / 174)
        rep = solve_report([1.0] * 174)
        assert rep.central_curvature == pytest.approx(s / (1.0 - s), rel=1e-9)
        assert rep.polished_curvature == pytest.approx(s / (1.0 - s), rel=1e-9)

    @staticmethod
    def _patch_kernel(monkeypatch, call, value):
        """Replace the relation's value at the given kernel call (0: the
        check, 1 and 2: the bracket ends, 3 on: midpoints).  Returns the
        list of the (petals, k) arguments of the calls made, for asserting
        that the patched one was reached."""
        real = solve_module._normalized_relation
        calls = []

        def kernel(petals, k):
            calls.append((petals, k))
            res, scale = real(petals, k)
            return (value(res), scale) if len(calls) == call + 1 else (res, scale)

        monkeypatch.setattr(solve_module, "_normalized_relation", kernel)
        return calls

    @pytest.mark.parametrize("call", [1, 2, 3, 10])
    def test_nan_in_bisection_raises(self, monkeypatch, call):
        calls = self._patch_kernel(monkeypatch, call, lambda res: math.nan)
        with pytest.raises(NumericFailure, match="not finite at n = 3"):
            solve_report([1.0, 1.0, 1.0])
        assert len(calls) == call + 1

    @pytest.mark.parametrize("call", [1, 2])
    def test_infinite_bracket_end_counts_by_sign(self, monkeypatch, call):
        expected = solve_report([1.0, 2.0, 3.0]).polished_curvature
        calls = self._patch_kernel(monkeypatch, call, lambda res: math.copysign(math.inf, res))
        assert solve_report([1.0, 2.0, 3.0]).polished_curvature == expected
        assert len(calls) > call

    @pytest.mark.parametrize("petals, down", [([1.0, 1.0, 1.0], 0.125), ([0.01, 0.02, 0.03], 1.0)])
    def test_one_scaled_flower_for_every_kernel_call(self, monkeypatch, petals, down):
        # The check runs at k0 * down on the list the bisection bisects on.
        calls = self._patch_kernel(monkeypatch, 0, lambda res: res)
        k0 = solve_report(petals).central_curvature
        assert calls[0] == ([p * down for p in petals], k0 * down)
        assert len(calls) >= 4
        assert all(args[0] is calls[0][0] for args in calls)

    @pytest.mark.parametrize("call, factor", [(1, 0.9), (2, 1.1)])
    def test_zero_at_bracket_end_is_the_root(self, monkeypatch, call, factor):
        k0 = solve_report([1.0, 1.0, 1.0]).central_curvature
        calls = self._patch_kernel(monkeypatch, call, lambda res: 0.0)
        with pytest.raises(NumericFailure) as exc:
            solve_report([1.0, 1.0, 1.0])
        assert str(exc.value) == f"geometric and relation roots disagree: {k0!r} vs {factor * k0!r}"
        assert len(calls) == 3

    @pytest.mark.parametrize("call", [3, 10])
    def test_zero_at_midpoint_is_the_root(self, monkeypatch, call):
        calls = self._patch_kernel(monkeypatch, call, lambda res: 0.0)
        rep = solve_report([1.0, 1.0, 1.0], tol=1e-2)
        assert len(calls) == call + 1
        assert rep.polished_curvature == calls[call][1] / 0.125

    def test_solve_with_composed_kernel_is_bit_identical(self, monkeypatch):
        # The 120 flowers of the seed-41 sweep, one of which fails with "does
        # not change sign", and 400 more at spreads up to 1e+-12.
        def outcome(petals):
            try:
                rep = solve_report(petals)
            except NumericFailure as exc:
                return type(exc), str(exc)
            return tuple(map(float.hex, dataclasses.astuple(rep)))

        flowers = list(sweep_flowers(random.Random(41), 120, 8.0))
        flowers += sweep_flowers(random.Random(42), 400, 12.0)
        expected = [outcome(petals) for petals in flowers]
        monkeypatch.setattr(solve_module, "_normalized_relation", composed_relation)
        assert [outcome(petals) for petals in flowers] == expected
        no_sign_change = "relation residual does not change sign across the +-10% bracket"
        assert (NumericFailure, no_sign_change) in expected

    @pytest.mark.parametrize(
        "petals", [(1e4, 1.0, 1.0), (1e6, 1.0, 1.0), (1e-6, 1.0, 1.0), (1e8, 1e-8, 1.0)]
    )
    def test_thin_triangles_match_classic_descartes(self, petals):
        k1, k2, k3 = petals
        expected = k1 + k2 + k3 + 2.0 * math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
        assert solve_report(petals).central_curvature == pytest.approx(expected, rel=1e-9)

    def test_seeded_sweep_matches_closed_forms_or_fails_typed(self):
        # Curvature ratios log-uniform up to 1e+-8, n from 3 to 500.  Each
        # flower solves (closed forms where they apply), except where the
        # relation has a second root inside the +-10% bisection bracket.
        solved = 0
        for petals in sweep_flowers(random.Random(41), 120, 8.0):
            n = len(petals)
            try:
                rep = solve_report(petals)
            except NumericFailure as exc:
                assert "does not change sign" in str(exc), (n, petals)
                continue
            solved += 1
            k = rep.central_curvature
            for v in (k, rep.polished_curvature, rep.residual, rep.residual_scale):
                assert math.isfinite(v)
            if len(set(petals)) == 1:
                s = math.sin(math.pi / n)
                assert k == pytest.approx(petals[0] * s / (1.0 - s), rel=1e-9)
            elif n == 3:
                k1, k2, k3 = petals
                expected = k1 + k2 + k3 + 2.0 * math.sqrt(k1 * k2 + k2 * k3 + k3 * k1)
                assert k == pytest.approx(expected, rel=1e-9)
            elif n == 4:
                res = four_flower_poly_residual(k, *petals)
                assert abs(res) <= 1e-9 * four_flower_poly_scale(k, *petals)
        assert solved >= 119

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            solve_report([1.0, 1.0, 1.0], tol)

    def test_power_of_two_scaling_is_exact(self):
        # The relation bisection runs on the curvatures scaled by a power of
        # two, so scaling the petals by 2^e scales both roots exactly, up to a
        # central curvature of 0.97 * 2^1024, where 1.1 k0 would overflow.
        petals = [3.0, 2.0, 0.5, 1.5]
        base = solve_report(petals)
        for e in (-500, -40, 1, 40, 500, 1022):
            rep = solve_report([math.ldexp(p, e) for p in petals])
            assert rep.central_curvature == math.ldexp(base.central_curvature, e)
            assert rep.polished_curvature == math.ldexp(base.polished_curvature, e)
            assert (rep.residual, rep.residual_scale) == (base.residual, base.residual_scale)

    @pytest.mark.parametrize("k1", [1e308, 1.7e308])
    def test_curvature_near_float_max(self, k1):
        rep = solve_report([k1, 1.0, 1.0])
        assert rep.central_curvature == pytest.approx(k1, rel=1e-12)
        assert abs(rep.polished_curvature - rep.central_curvature) <= 1e-9 * rep.central_curvature

    @pytest.mark.parametrize("petals", [(1e-309, 1.0, 1.0), (5e-324,) * 3, (1.7976931348623157e308, 1.0, 1.0)])
    def test_curvature_without_finite_reciprocal_rejected(self, petals):
        with pytest.raises(ValueError, match=r"petal curvatures must lie in \[5.56268464626801e-309, "):
            solve_report(petals)

    def test_thin_four_flower_passes_quartic(self):
        petals = (1.0, 1.0, 1.0, 1e9)
        k = solve_report(petals).central_curvature
        res = four_flower_poly_residual(k, *petals)
        assert abs(res) <= 1e-9 * four_flower_poly_scale(k, *petals)

    @pytest.mark.parametrize("k", [1e-308, 6e-309])
    def test_radii_near_the_float_maximum(self, k):
        # Petal radii of 1e308 and 1.67e308, where R + r_a + r_b overflows.
        s = math.sin(math.pi / 3.0)
        rep = solve_report([k] * 3)
        assert rep.central_curvature == pytest.approx(k * s / (1.0 - s), rel=1e-15)
        assert rep.polished_curvature == pytest.approx(rep.central_curvature, rel=1e-15)


GOLDEN_SOLVES = Path(__file__).with_name("golden_central_solves.json")


def golden_flowers():
    """120 seeded flowers, n = 3..39, with curvatures (0.5 + U(0, 1)) 2^e,
    e uniform in [-w, w) for w = 3, 13 and 40 (spreads of about 1e+-1,
    1e+-4 and 1e+-12); formed without libm, so the inputs are the same
    bits everywhere."""
    rng = random.Random(7)
    for w in (3, 13, 40):
        for _ in range(40):
            n = rng.randrange(3, 40)
            yield [math.ldexp(0.5 + rng.random(), rng.randrange(-w, w)) for _ in range(n)]


def golden_rows():
    """float.hex of the four CentralSolve fields of each golden flower that
    solves, or the name of the exception it raises."""
    rows = []
    for petals in golden_flowers():
        try:
            rep = solve_report(petals)
        except NumericFailure:
            rows.append("NumericFailure")
            continue
        rows.append([v.hex() for v in dataclasses.astuple(rep)])
    return rows


class TestSameBitsOnEveryPython:
    # From Python 3.12 on, sum() of floats is compensated, so a solve that
    # adds floats with sum() moves between versions.  The expected bits were
    # recorded with CPython 3.11 on x86-64 Linux (glibc's libm); regenerate
    # them with `json.dumps(golden_rows())` only for a deliberate change.
    def test_central_solves_match_the_recorded_bits(self):
        expected = json.loads(GOLDEN_SOLVES.read_text(encoding="utf-8"))
        got = golden_rows()
        assert sum(row != "NumericFailure" for row in expected) >= 100
        mismatched = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        assert (len(got), mismatched) == (len(expected), [])


class TestChainValidation:
    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            SpinorChain((Spinor(1.0, 1.0), Spinor(1.0, 2.0), Spinor(0.5, 1.0)))

    def test_rejects_broken_bracket(self):
        with pytest.raises(ValueError):
            SpinorChain((Spinor(0.0, 1.0), Spinor(1.0, 1.0), Spinor(5.0, 1.0)))

    @pytest.mark.parametrize(
        "spinors, message",
        [
            ((Spinor(0.0, 1.0), Spinor(1.0, 1.0)), "a chain needs at least 3 spinors"),
            ((Spinor(0.0, -1.0), Spinor(-1.0, -1.0), Spinor(-2.0, -1.0)), "eta_0 must be positive"),
        ],
    )
    def test_typed_failures(self, spinors, message):
        with pytest.raises(ValueError, match=message):
            SpinorChain(spinors)

    def test_rejects_overflowed_brackets(self):
        # The brackets are -inf and nan, and |z_a||z_b| overflows.
        with pytest.raises(ValueError, match="bracket 0,1 is -inf"):
            SpinorChain((Spinor(0.0, 1e200), Spinor(1e200, 1e200), Spinor(2e200, 1e200)))


class TestFactorStructure:
    def test_only_full_factor_vanishes(self):
        # The closure polynomial factors into the relation times extra
        # factors (m_1 for n=3; m_1 and m_1 m_2 - 1 for n=4); on genuine
        # flowers only the relation factor is zero.
        rng = random.Random(33)
        for _ in range(25):
            petals3 = random_petals(rng, 3)
            k0 = solve_central_curvature(petals3)
            m = m_from_normalized([p / k0 for p in petals3])
            assert abs(descartes_residual_subset(m)) < 1e-10 * descartes_residual_scale(m)
            assert m[1] > 1e-4
            petals4 = random_petals(rng, 4)
            k0 = solve_central_curvature(petals4)
            m = m_from_normalized([p / k0 for p in petals4])
            assert abs(descartes_residual_subset(m)) < 1e-10 * descartes_residual_scale(m)
            assert m[1] > 1e-4 and abs(m[1] * m[2] - 1.0) > 1e-4
