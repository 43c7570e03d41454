import itertools
import math
import random

import pytest

from nflower.descartes import (
    CentralSolve,
    MVector,
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
    normalize_curvatures,
    parallelogram_invariants,
    residual_with_scale,
    solve_central_curvature,
    solve_report,
    spinor_recursion,
    xi_from_etas,
)
from nflower.euclid import FlowerSpec, NumericFailure
from nflower.hyperbolic import Spinor, bracket, disc_curvature_of_spinor

K3 = 3.0 + 2.0 * math.sqrt(3.0)  # central curvature of three unit petals
K4 = math.sqrt(2.0) + 1.0  # central curvature of four unit petals
FORD_M = (1.0, 2.0, 3.0)  # m-variables of the normalized [0, 4, 1] flower
SYM3 = 1.0 / K3  # normalized petal curvature of the symmetric 3-flower


def random_m(rng, n, low=0.0, high=10.0):
    return [rng.uniform(low, high) for _ in range(n)]


def random_petals(rng, n):
    return [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)]


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


class TestMVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MVector((1.0, -0.1, 2.0))

    def test_sequence_protocol(self):
        m = MVector((1.0, 2.0, 3.0))
        assert len(m) == 3 and m[1] == 2.0 and tuple(m) == (1.0, 2.0, 3.0)


class TestNormalize:
    def test_ratio(self):
        spec = FlowerSpec((2.0, 2.0, 2.0), central_curvature=2.0)
        assert normalize_curvatures(spec) == [1.0, 1.0, 1.0]

    def test_identity(self):
        spec = FlowerSpec((0.0, 4.0, 1.0), central_curvature=1.0)
        assert normalize_curvatures(spec) == [0.0, 4.0, 1.0]

    def test_symmetric_three_flower(self):
        spec = FlowerSpec((1.0, 1.0, 1.0), central_curvature=K3)
        assert normalize_curvatures(spec) == pytest.approx([SYM3] * 3, abs=1e-7)
        assert SYM3 == pytest.approx(0.1547005, abs=1e-7)

    def test_missing_central(self):
        with pytest.raises(ValueError):
            normalize_curvatures(FlowerSpec((1.0, 1.0, 1.0)))


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
        rng = random.Random(35)
        for n in range(3, 17):
            for _ in range(20):
                m = random_m(rng, n)
                res, scale = residual_with_scale(m)
                assert abs(res - descartes_residual_subset(m)) <= 1e-12 * scale
                assert abs(res) <= scale


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

    def test_explicit_start(self):
        g = geometric_spinor_chain([1.0, 2.0, 3.0], start=2)
        assert g.start == 2

    def test_central_curvature_matches_solver(self):
        petals = [1.0, 0.4, 2.5]
        g = geometric_spinor_chain(petals)
        assert g.central_curvature == pytest.approx(solve_central_curvature(petals), rel=1e-12)


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


    @pytest.mark.parametrize("n", [13, 20, 24, 25, 60, 120])
    def test_equal_petals_closed_form(self, n):
        s = math.sin(math.pi / n)
        for k in (1.0, 3.5):
            rep = solve_report([k] * n)
            assert rep.central_curvature == pytest.approx(k * s / (1.0 - s), rel=1e-9)
            assert abs(rep.residual) <= 1e-9 * rep.residual_scale

    def test_random_flowers_around_former_cap(self):
        rng = random.Random(36)
        for n in range(21, 27):
            petals = random_petals(rng, n)
            rep = solve_report(petals)
            assert abs(rep.polished_curvature - rep.central_curvature) <= 1e-9 * max(
                1.0, rep.central_curvature
            )
            assert abs(rep.residual) <= 1e-9 * rep.residual_scale

    def test_overflowing_relation_raises(self):
        with pytest.raises(NumericFailure) as exc:
            solve_report([1.0] * 200)
        assert "not finite" in str(exc.value) and "200" in str(exc.value)
        assert "does not change sign" not in str(exc.value)

    @pytest.mark.parametrize("res, scale", [(math.nan, math.inf), (-math.inf, math.inf)])
    def test_non_finite_residual_rejected(self, monkeypatch, res, scale):
        # abs(-inf) <= tol * inf holds, so the tolerance test alone passes it
        monkeypatch.setattr("nflower.descartes.residual_with_scale", lambda m: (res, scale))
        with pytest.raises(NumericFailure, match="not finite"):
            solve_report([1.0, 1.0, 1.0])


class TestChainValidation:
    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            SpinorChain((Spinor(1.0, 1.0), Spinor(1.0, 2.0), Spinor(0.5, 1.0)))

    def test_rejects_broken_bracket(self):
        with pytest.raises(ValueError):
            SpinorChain((Spinor(0.0, 1.0), Spinor(1.0, 1.0), Spinor(5.0, 1.0)))


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
