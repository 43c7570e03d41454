import dataclasses
import random
from itertools import combinations

import pytest

from nflower import descartes
from nflower.descartes import (
    descartes_lhs_subset,
    descartes_polynomial,
    descartes_residual_complex,
    descartes_residual_subset,
)
from nflower.polynomial import PolynomialZZ

GOLDEN_3 = "1 2 1 0\n1 2 0 1\n-1 0 2 0\n-1 0 0 0\n"
GOLDEN_4 = "1 0 1 1 0\n1 0 1 0 1\n-1 0 0 2 0\n1 0 0 1 1\n-2 0 0 0 0\n"


def product_built_polynomial(n):
    """Reference construction of the relation: the lhs subset sum through
    from_dict, the rhs as the product of (m_k^2 + 1) through __mul__, then
    lhs - rhs through dict arithmetic, each step re-canonicalized."""
    coeffs = {}
    base = [0] * n
    if n % 2:
        base[0] = 2
    for size in range(n - 2, -1, -2):
        sign = 1 if ((n - 2 - size) // 2) % 2 == 0 else -1
        for combo in combinations(range(1, n), size):
            exps = base.copy()
            for k in combo:
                exps[k] = 1
            key = tuple(exps)
            coeffs[key] = coeffs.get(key, 0) + sign
    lhs = PolynomialZZ.from_dict(n, coeffs)
    rhs = PolynomialZZ.from_dict(n, {(0,) * n: 1})
    for k in range(1, n - 1, 2) if n % 2 else range(2, n - 1, 2):
        sq = [0] * n
        sq[k] = 2
        rhs = rhs * PolynomialZZ.from_dict(n, {tuple(sq): 1, (0,) * n: 1})
    diff = {e: c for c, e in lhs.terms}
    for c, e in rhs.terms:
        diff[e] = diff.get(e, 0) - c
    return PolynomialZZ.from_dict(n, diff)


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        p = PolynomialZZ.from_dict(2, {(1, 0): 0, (0, 1): 3})
        assert p.terms == ((3, (0, 1)),)

    def test_graded_lex_order(self):
        p = PolynomialZZ.from_dict(3, {(0, 0, 0): 1, (2, 1, 0): 1, (2, 0, 1): 1, (0, 2, 0): 1})
        assert [e for _, e in p.terms] == [(2, 1, 0), (2, 0, 1), (0, 2, 0), (0, 0, 0)]

    def test_multiplication(self):
        x_plus_one = PolynomialZZ.from_dict(2, {(1, 0): 1, (0, 0): 1})
        y_plus_one = PolynomialZZ.from_dict(2, {(0, 1): 1, (0, 0): 1})
        p = x_plus_one * y_plus_one
        assert p == PolynomialZZ.from_dict(2, {(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})

    def test_bad_exponents_rejected(self):
        with pytest.raises(ValueError):
            PolynomialZZ.from_dict(2, {(1,): 1})
        with pytest.raises(ValueError):
            PolynomialZZ.from_dict(2, {(-1, 0): 1})

    def test_multiplication_needs_equal_variable_counts(self):
        with pytest.raises(ValueError, match="variable count mismatch"):
            PolynomialZZ.from_dict(2, {(1, 0): 1}) * PolynomialZZ.from_dict(3, {(1, 0, 0): 1})

    def test_evaluate_needs_one_value_per_variable(self):
        with pytest.raises(ValueError, match="expected 2 values, got 3"):
            PolynomialZZ.from_dict(2, {(1, 0): 1}).evaluate([1.0, 2.0, 3.0])


class TestSerialization:
    def test_golden_three(self):
        assert descartes_polynomial(3).serialize() == GOLDEN_3

    def test_golden_four(self):
        assert descartes_polynomial(4).serialize() == GOLDEN_4

    def test_parse_round_trip(self):
        for n in (3, 4, 5, 6, 7):
            p = descartes_polynomial(n)
            assert PolynomialZZ.parse(p.serialize()) == p

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            PolynomialZZ.parse("1\n")
        with pytest.raises(ValueError):
            PolynomialZZ.parse("")
        with pytest.raises(ValueError):
            PolynomialZZ.parse("1 0 1\n1 0\n")
        with pytest.raises(ValueError):
            PolynomialZZ.parse("1 0 1\n2 0 1\n")


def fstring_serialize(p):
    """The f-string formatting serialize() had before its row template; the
    byte-for-byte reference."""
    return "".join(f"{c} {' '.join(str(e) for e in exps)}\n" for c, exps in p.terms)


class TestSerializeBytes:
    @pytest.mark.parametrize("n", range(3, 17))
    def test_descartes_polynomial(self, n):
        p = descartes_polynomial(n)
        assert p.serialize() == fstring_serialize(p)

    @pytest.mark.parametrize(
        "p, expected",
        [
            (PolynomialZZ.from_dict(0, {(): 5}), "5 \n"),
            (PolynomialZZ.from_dict(1, {(3,): -2, (0,): 1}), "-2 3\n1 0\n"),
            (PolynomialZZ.from_dict(2, {(12, 0): 7, (0, 10): -1}), "7 12 0\n-1 0 10\n"),
            (PolynomialZZ.from_dict(3, {(1, 0, 2): 2**64 + 1, (0, 0, 0): -(2**70)}),
             f"{2**64 + 1} 1 0 2\n{-(2**70)} 0 0 0\n"),
            (PolynomialZZ(2, ((1.5, (1, 0)), (-0.0, (0, 1)), (1e300, (0, 0)))),
             "1.5 1 0\n-0.0 0 1\n1e+300 0 0\n"),
            (PolynomialZZ(2, ((True, (1, 1)), (False, (0, 0)))), "True 1 1\nFalse 0 0\n"),
        ],
        ids=["nvars-0", "one-variable", "exponent-10", "beyond-int64", "float", "bool"],
    )
    def test_hand_built(self, p, expected):
        assert fstring_serialize(p) == expected
        assert p.serialize() == expected

    def test_zero_polynomial(self):
        assert PolynomialZZ(3, ()).serialize() == ""


class TestDescartesPolynomial:
    def test_bounds(self):
        with pytest.raises(ValueError):
            descartes_polynomial(2)
        with pytest.raises(ValueError):
            descartes_polynomial(25)

    def test_matches_subset_residual(self):
        rng = random.Random(40)
        for n in range(3, 11):
            p = descartes_polynomial(n)
            for _ in range(12):
                m = [rng.uniform(0.0, 10.0) for _ in range(n)]
                a = p.evaluate(m)
                b = descartes_residual_subset(m)
                assert abs(a - b) <= 1e-10 * (1.0 + abs(descartes_lhs_subset(m)))

    def test_five_variable_expansion_matches_complex_form(self):
        rng = random.Random(41)
        p = descartes_polynomial(5)
        for _ in range(100):
            m = [rng.uniform(0.0, 10.0) for _ in range(5)]
            a = p.evaluate(m)
            b = descartes_residual_complex(m)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(descartes_lhs_subset(m)))

    def test_matches_product_built_reference(self):
        for n in range(3, 15):
            p = descartes_polynomial(n)
            ref = product_built_polynomial(n)
            assert p.serialize() == ref.serialize()
            assert p == ref

    @pytest.mark.parametrize("n, constant", [(3, -1), (4, -2), (5, -1), (6, None), (8, -2), (10, None)])
    def test_constant_term(self, n, constant):
        # lhs constant (-1)^((n-2)/2) for even n, minus the rhs constant 1.
        zero = (0,) * n
        found = [c for c, e in descartes_polynomial(n).terms if e == zero]
        assert found == ([] if constant is None else [constant])

    def test_built_without_arithmetic(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("descartes_polynomial must not re-canonicalize")

        # The memo starts empty (tests/conftest.py), so every n below is
        # built with the arithmetic forbidden.
        for name in ("from_dict", "__mul__"):
            monkeypatch.setattr(PolynomialZZ, name, forbidden)
        for n in range(3, 13):
            assert descartes_polynomial(n).nvars == n

    def test_integer_coefficients_and_no_duplicates(self):
        for n in range(3, 9):
            p = descartes_polynomial(n)
            exps = [e for _, e in p.terms]
            assert len(set(exps)) == len(exps)
            assert all(isinstance(c, int) and c != 0 for c, _ in p.terms)


class TestMemo:
    """descartes_polynomial keeps n <= 12 for the process; serialize() keeps
    its text on the instance.  Each test starts with the memo empty
    (tests/conftest.py)."""

    def test_same_instance_up_to_twelve(self):
        for n in range(3, 13):
            assert descartes_polynomial(n) is descartes_polynomial(n)
        assert descartes_polynomial(13) is not descartes_polynomial(13)
        assert descartes_polynomial(13) == descartes_polynomial(13)

    def test_only_twelve_and_below_kept(self):
        for n in range(3, 17):
            descartes_polynomial(n)
        assert descartes._relation_polynomial.cache_info().currsize == 10

    @pytest.mark.parametrize("n", range(3, 17))
    def test_second_serialize_same_text(self, n):
        p = descartes_polynomial(n)
        first = p.serialize()
        assert p.serialize() is first
        assert first == fstring_serialize(p)

    def test_kept_text_leaves_fields_alone(self):
        p = descartes_polynomial(5)
        fresh = PolynomialZZ(p.nvars, p.terms)
        p.serialize()
        assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        assert [f.name for f in dataclasses.fields(p)] == ["nvars", "terms"]

    def test_float_n_still_rejected_after_int(self):
        descartes_polynomial(5)
        with pytest.raises(TypeError):
            descartes_polynomial(5.0)
        with pytest.raises(TypeError):
            descartes_polynomial("5")

    @pytest.mark.parametrize("n", [2, True, 25])
    def test_out_of_range_raises_and_keeps_nothing(self, n):
        with pytest.raises(ValueError):
            descartes_polynomial(n)
        assert descartes._relation_polynomial.cache_info().currsize == 0

    def test_kept_polynomial_is_frozen(self):
        p = descartes_polynomial(6)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.terms = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.nvars = 7
        assert descartes_polynomial(6).nvars == 6
