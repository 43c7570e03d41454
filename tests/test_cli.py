import io
import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest

from nflower.cli import _build_parser, _plain_args, main
from nflower.descartes import geometric_spinor_chain, solve_central_curvature, solve_report
from nflower.document import FlowerDocument
from nflower.euclid import NumericFailure, _checked_petals, layout_flower
from nflower.formats import DEFAULT_TOLERANCE
from nflower.hyperbolic import bracket

GOLDEN_POLY_3 = "1 2 1 0\n1 2 0 1\n-1 0 2 0\n-1 0 0 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_three_unit_petals(self, capsys):
        code, out, _ = run(capsys, "solve", "1,1,1")
        assert code == 0
        assert "central curvature: 6.46410161514" in out

    def test_four_unit_petals(self, capsys):
        code, out, _ = run(capsys, "solve", "1,1,1,1")
        assert code == 0
        assert "central curvature: 2.41421356237" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "solve", "--json", "1,1,1")
        assert code == 0
        rep = json.loads(out)
        assert rep["central_curvature"] == pytest.approx(6.46410161514, abs=1e-9)
        assert abs(rep["residual_relative"]) < 1e-10
        assert abs(rep["root_difference"]) < 1e-9

    def test_too_few_petals(self, capsys):
        code, _, err = run(capsys, "solve", "1,1")
        assert code == 2
        assert "error" in err

    def test_bad_number(self, capsys):
        code, _, _ = run(capsys, "solve", "1,x,1")
        assert code == 2

    def test_nonpositive_petal(self, capsys):
        code, _, _ = run(capsys, "solve", "1,-2,1")
        assert code == 2

    @pytest.mark.parametrize("petals", ["1e80,1,1", "1e300,1,1", "1e-80,1,1", "1e-300,1,1", "1e-308,1,1"])
    def test_extreme_ratios(self, capsys, petals):
        code, out, _ = run(capsys, "solve", petals)
        assert code == 0
        assert "central curvature: " in out

    @pytest.mark.parametrize("petals, central", [("1e308,1,1", "1e+308"), ("1.7e308,1,1", "1.7e+308")])
    def test_curvatures_near_float_max(self, capsys, petals, central):
        code, out, err = run(capsys, "solve", petals)
        assert code == 0, err
        assert f"central curvature: {central}\n" in out

    @pytest.mark.parametrize("petals, value", [("1e-309,1,1", "1e-309"), ("5e-324,5e-324,5e-324", "5e-324")])
    def test_curvatures_whose_reciprocal_overflows(self, capsys, petals, value):
        code, out, err = run(capsys, "solve", petals)
        assert code == 2 and out == ""
        assert "petal curvatures must lie in [5.56268464626801e-309, 1.7976931348623143e+308]" in err
        assert f"got {value}" in err
        assert "radii" not in err

    @pytest.mark.parametrize("command", ["solve", "layout"])
    @pytest.mark.parametrize("petals", ["1.7e308,1.7e308,1.7e308", "1e308,1e308,1e308,1e308"])
    def test_central_curvature_beyond_float_range(self, capsys, command, petals):
        # The central radius is below the smallest one with a finite reciprocal.
        code, out, err = run(capsys, command, petals)
        assert code == 3 and out == ""
        assert re.search(r"central radius \S+e-3\d\d is too small: its curvature 1/R overflows", err)

    def test_thin_triangle(self, capsys):
        code, out, _ = run(capsys, "solve", "1e6,1,1")
        assert code == 0
        assert "central curvature: 1002830.42783" in out

    def test_bracket_whose_product_is_subnormal(self, capsys):
        # The geometric solve of these petals steps through a bracket whose
        # ends multiply to a subnormal, where a midpoint taken from that
        # product can stop the iteration short of the root (exit 3).
        radii = [
            1.8711847600449391e188, 4.3114856370321702e-159, 1.1074919723816364e211,
            2.8738844821973018e190, 1.4778447678464803e-247, 2.0583787504873044e24,
            1.1694489481420776e-258,
        ]
        petals = [1.0 / r for r in radii]
        code, out, err = run(capsys, "solve", ",".join(map(repr, petals)))
        assert code == 0, err
        assert "central curvature: 2.31938613319e+158\n" in out
        twin = solve_central_curvature([k * 2.0**-200 for k in petals])
        assert twin * 2.0**200 == pytest.approx(solve_central_curvature(petals), rel=1e-15)


class TestLayoutVerify:
    def test_pipe_round_trip(self, capsys, monkeypatch):
        code, doc_json, _ = run(capsys, "layout", "1,1,1")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS descartes relation" in out
        assert "PASS classic 3-flower relation" in out

    def test_layout_document_content(self, capsys):
        code, out, _ = run(capsys, "layout", "1,1,1")
        doc = FlowerDocument.from_json(out)
        assert doc.n == 3
        assert doc.central_curvature == pytest.approx(6.464101615137754, rel=1e-12)
        assert doc.circles is not None and len(doc.circles) == 4
        assert doc.circles[0][0] == 0.0 and doc.circles[0][1] == 0.0
        assert doc.circles[0][2] == pytest.approx(0.1547005, abs=1e-7)

    def test_layout_deterministic(self, capsys):
        _, a, _ = run(capsys, "layout", "1,2,3")
        _, b, _ = run(capsys, "layout", "1,2,3")
        assert a == b

    def test_verify_detects_perturbed_central(self, capsys, tmp_path):
        code, doc_json, _ = run(capsys, "layout", "1,1,1,1")
        doc = FlowerDocument.from_json(doc_json)
        bad = FlowerDocument(
            doc.n,
            doc.central_curvature * 1.01,
            doc.petal_curvatures,
            doc.tolerance,
            None,
        )
        path = tmp_path / "bad.json"
        path.write_text(bad.to_json(), encoding="utf-8")
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 1
        assert "FAIL descartes relation" in out
        assert "FAIL 4-flower quartic relation" in out

    def test_verify_detects_moved_circle(self, capsys, monkeypatch):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        doc = FlowerDocument.from_json(doc_json)
        circles = list(doc.circles)
        cx, cy, r = circles[1]
        circles[1] = (cx + 1e-6, cy, r)
        bad = FlowerDocument(doc.n, doc.central_curvature, doc.petal_curvatures,
                             doc.tolerance, tuple(circles))
        monkeypatch.setattr("sys.stdin", io.StringIO(bad.to_json()))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 1
        assert "FAIL central tangency" in out

    def test_verify_document_without_circles_passes(self, capsys, monkeypatch):
        k = 6.46410161513775
        doc = FlowerDocument(3, k, (1.0, 1.0, 1.0))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc.to_json()))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0
        assert "tangency" not in out  # no circle checks without circles
        assert out.startswith("PASS angle sum (value ")

    @pytest.mark.parametrize(
        "doc",
        [
            # k0 far too small: both terms of the relation over |P| shrink
            # to about 1e-10 (solve of these petals gives 14259199981.6).
            '{"n": 5, "central_curvature": 1, "petal_curvatures": [1e10, 1e10, 1e10, 1e10, 1e10]}',
            # k0 far too large at n = 2 mod 4, where m -> 0 is a root of the
            # relation in the limit (the true k0 is 1).
            '{"n": 6, "central_curvature": 1e11, "petal_curvatures": [1, 1, 1, 1, 1, 1]}',
        ],
        ids=["k0-too-small", "k0-too-large"],
    )
    def test_verify_without_circles_checks_the_angle_sum(self, capsys, monkeypatch, doc):
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "verify", "-")
        assert code == 1 and err == ""
        assert out.startswith("FAIL angle sum (value ")
        assert "PASS descartes relation" in out  # the relation alone is fooled

    @pytest.mark.parametrize(
        "doc",
        [
            '{"n": 3, "central_curvature": 1e-300, "petal_curvatures": [1e300, 1, 1]}',
            '{"n": 5, "central_curvature": 1e-10, "petal_curvatures": [1e300, 1e300, 1e300, 1e300, 1e300]}',
        ],
        ids=["n3", "n5"],
    )
    def test_verify_petal_far_above_k0_fails_without_overflow(self, capsys, monkeypatch, doc):
        # The classic and quartic checks scale by the largest curvature, and
        # only for n = 3 and 4, so no ldexp overflows.
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "verify", "-")
        assert code == 1 and err == ""
        assert "FAIL angle sum" in out
        if '"n": 3' in doc:
            assert "FAIL classic 3-flower relation (value 0.333333333333" in out

    def test_verify_quartic_exact_where_float_terms_underflow(self, capsys, monkeypatch):
        # One petal 1e172 times k0 and more above the rest: in floats scaled
        # by it every term of the quartic underflows.  Exactly, the term
        # k1^2 k4^2, about 7e368, outweighs all others at layout's k0 of
        # 2.2573841032712572e+30, so the value is 1.  That k0 is wrong: the
        # angle sum's and the quartic's roots are both 6.900017849779795e+96,
        # and solve refuses these petals.
        _, doc_json, _ = run(capsys, "layout", "3.9388537713004504e+202,"
                             "2.5475859149458368e-278,1.2087335320947115e-09,6.801015325901361e-19")
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, err = run(capsys, "verify", "-")
        assert code == 1 and err == ""
        assert "FAIL 4-flower quartic relation (value 1, threshold 1e-09)" in out

    @pytest.mark.parametrize(
        "k0, code, row",
        [
            ("1.4142135623730951", 0, "PASS 4-flower quartic relation (value 2.86799132426e-17,"),
            ("2.414213562373094", 1, "FAIL 4-flower quartic relation (value 0.486376739562,"),
        ],
        ids=["sqrt2", "2.414"],
    )
    def test_verify_exact_quartic_at_1e300_spread(self, capsys, monkeypatch, k0, code, row):
        # The true k0 of petals 1e-300, 1e-300, 1e-300, 1e300 is sqrt(2);
        # the angle sum saturates at both values, so only the exact
        # quartic tells them apart.
        doc = f'{{"n": 4, "central_curvature": {k0}, "petal_curvatures": [1e-300, 1e-300, 1e-300, 1e300]}}'
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        got, out, err = run(capsys, "verify", "-")
        assert (got, err) == (code, "")
        assert row in out

    def test_verify_quartic_on_solved_four_flower(self, capsys, monkeypatch):
        _, doc_json, _ = run(capsys, "layout", "0.5,1,2,1")
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0
        assert "PASS 4-flower quartic relation" in out

    def test_verify_malformed_json(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{broken"))
        code, _, err = run(capsys, "verify", "-")
        assert code == 2
        assert "error" in err

    def test_verify_json_report(self, capsys, monkeypatch):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "--json", "-")
        assert code == 0
        rep = json.loads(out)
        assert rep["passed"] is True
        assert all(c["passed"] for c in rep["checks"])

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "verify", "/no/such/file.json")
        assert code == 2

    def test_many_petals_pass(self, capsys, monkeypatch):
        code, doc_json, _ = run(capsys, "layout", ",".join(["1"] * 200))
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines and all(line.startswith("PASS ") for line in lines), out

    @pytest.mark.parametrize("petals", ["[1, 1, 0]", "[1, 1, -1]"], ids=["zero", "negative"])
    def test_verify_rejects_nonpositive_petal(self, capsys, monkeypatch, petals):
        text = f'{{"n": 3, "central_curvature": 6.5, "petal_curvatures": {petals}}}'
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "verify", "-")
        assert code == 2 and out == ""
        assert "petal curvatures must be positive and finite" in err

    @pytest.mark.parametrize("petals", ["1e80,1e80,1e80,1e80", "1e160,2e160,3e160"])
    def test_verify_huge_curvatures(self, capsys, monkeypatch, petals):
        # k**4 of the quartic and the squares of the classic relation would
        # overflow on the raw curvatures.
        _, doc_json, _ = run(capsys, "layout", petals)
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0, out

    def test_pipeline_closure_random(self, capsys, monkeypatch):
        rng = random.Random(50)
        for _ in range(100):
            n = rng.randrange(3, 11)
            petals = ",".join(f"{10 ** rng.uniform(-1, 1):.6g}" for _ in range(n))
            code, doc_json, _ = run(capsys, "layout", petals)
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
            code, out, _ = run(capsys, "verify", "-")
            assert code == 0, out


class TestRadiiNearTheFloatMaximum:
    # Petal radii 1e308 and 1.67e308: R + r_a + r_b overflows in the gap
    # formula, which then works at a quarter scale.
    @pytest.mark.parametrize("k", [1e-308, 6e-309])
    def test_solve_and_spinors(self, capsys, k):
        s = math.sin(math.pi / 3.0)
        petals = f"{k!r},{k!r},{k!r}"
        for command in ("solve", "spinors"):
            code, out, err = run(capsys, command, "--json", petals)
            assert (code, err) == (0, "")
            assert json.loads(out)["central_curvature"] == pytest.approx(k * s / (1 - s), rel=1e-11)

    def test_layout_passes_verify(self, capsys, monkeypatch):
        code, doc_json, _ = run(capsys, "layout", "1e-308,1e-308,1e-308")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0, out
        assert "PASS petal adjacency" in out and "nan" not in out

    def test_layout_renders_at_a_power_of_two_scale(self, capsys, monkeypatch):
        # The padded box, about 5e308 wide, overflows at scale 1.
        code, doc_json, _ = run(capsys, "layout", "1e-308,1e-308,1e-308")
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, svg, err = run(capsys, "render", "-", "-")
        assert (code, err) == (0, "")
        assert "inf" not in svg and "nan" not in svg
        rows = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)"', svg)
        drawn = [(float(cx), -float(cy), float(r)) for cx, cy, r in rows]
        circles = FlowerDocument.from_json(doc_json).circles
        k = round(math.log2(circles[0][2] / drawn[0][2]))
        assert k > 0
        assert len(drawn) == len(circles) == 4
        for want, row in zip(circles, drawn):
            assert [math.ldexp(v, k) for v in row] == pytest.approx(want, rel=1e-11, abs=1e-11 * 1e308)

    def test_layout_beyond_the_float_range_is_a_numeric_failure(self, capsys):
        # R + r_j = 1.9e308: the petal centre itself overflows.
        code, out, err = run(capsys, "layout", "6e-309,6e-309,6e-309")
        assert (code, out) == (3, "")
        assert "central radius 2.57834230632086e+307 plus petal radius" in err

    def test_solve_beyond_the_bracket_is_a_numeric_failure(self, capsys):
        # Seven radii of 1.7e308: the bracket's upper end overflows.
        code, out, err = run(capsys, "solve", ",".join(["5.9e-309"] * 7))
        assert (code, out) == (3, "")
        assert err == "numeric failure: petal radii too extreme to bracket the central radius\n"


class TestCancellationInMVariables:
    # Laid out correctly (tangency, declared curvatures and the classic
    # 3-flower relation pass), but the relation kernel _normalized_relation
    # forms p_j = k_j / k + 1 and the radicand p_j p_{j-1} - 1, and
    # m_from_normalized the same radicand (k_a + 1)(k_b + 1) - 1; at
    # normalized curvatures of 1e-16 to 1e-34 it cancels, and the general
    # relation then reads 4.3e-9 and 2.9e-9.  The direct form
    # k_a k_b + k_a + k_b of ROADMAP item 2 reads 1.3e-16 and 6.5e-17.
    @pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: cancellation in the radicand (k_a + 1)(k_b + 1) - 1"
    )
    @pytest.mark.parametrize(
        "petals",
        [
            "3.564116399526836e+24,4.3693226751447843e-10,387245002.44024026",
            "1.2566801142713179e-15,5.714176424548745e-16,37.89001805170064",
        ],
    )
    def test_layout_verify_and_solve(self, capsys, monkeypatch, petals):
        code, doc_json, _ = run(capsys, "layout", petals)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0, out
        code, _, err = run(capsys, "solve", petals)
        assert code == 0, err


class TestVerifyRelative:
    """The circle checks of verify are relative to the circles' scale."""

    @pytest.mark.parametrize("spread", [4, 8])
    def test_layouts_pass_at_every_scale(self, capsys, monkeypatch, spread):
        # Curvatures 10^U(-spread, spread); every check of every layout
        # passes.  At spread 12 three of these 300 still fail the relation
        # check, which is the relation solver's conditioning, not the checks.
        rng = random.Random(spread)
        for _ in range(300):
            n = rng.choice((3, 4, 5, 7, 12, 40, 200))
            petals = ",".join(repr(10 ** rng.uniform(-spread, spread)) for _ in range(n))
            code, doc_json, _ = run(capsys, "layout", petals)
            assert code == 0, petals
            monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
            code, out, _ = run(capsys, "verify", "-")
            assert code == 0, (petals, out)

    def test_tiny_flower_passes(self, capsys, monkeypatch):
        # An absolute adjacency residual of 3.7e-9 at radii 1e7 is rounding.
        _, doc_json, _ = run(capsys, "layout", "1e-7,1e-7,1e-7")
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 0, out
        assert "FAIL" not in out

    def test_displaced_small_flower_fails(self, capsys, monkeypatch):
        # Radii of 1e-9: every petal centre moved out by 30% is an absolute
        # error below 1e-9, and still no flower.
        _, doc_json, _ = run(capsys, "layout", "1e9,1e9,1e9")
        raw = json.loads(doc_json)
        raw["circles"][1:] = [[1.3 * cx, 1.3 * cy, r] for cx, cy, r in raw["circles"][1:]]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(raw)))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 1
        assert "FAIL central tangency (value 0.3," in out
        assert "FAIL petal adjacency" in out
        assert "PASS declared curvatures" in out

    def test_curvature_check_is_relative(self, capsys, monkeypatch):
        # A petal radius off by 1e-8 relative fails below curvature 1 too,
        # where the curvature's absolute error is only 1e-10.
        _, doc_json, _ = run(capsys, "layout", "0.01,0.01,0.01")
        raw = json.loads(doc_json)
        cx, cy, r = raw["circles"][1]
        raw["circles"][1] = [cx, cy, r * (1.0 + 1e-8)]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(raw)))
        code, out, _ = run(capsys, "verify", "-")
        assert code == 1
        assert "FAIL declared curvatures" in out


    @pytest.mark.parametrize("central", ["1e-320", "1.7976931348623157e308"])
    def test_central_curvature_out_of_range(self, capsys, monkeypatch, central):
        # A central curvature whose reciprocal overflows, or underflows below
        # the petals' range, is a parse error naming the value.
        doc = '{"n": 3, "central_curvature": %s, "petal_curvatures": [1, 1, 1]}' % central
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        code, out, err = run(capsys, "verify", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: central curvature must lie in [")
        assert err.endswith(f"got {float(central)!r}\n")


class TestDocumentFieldTypes:
    """verify and render exit 2 on a document whose fields have the wrong
    JSON type or whose circles are not circles."""

    K0 = 6.464101615137754

    @pytest.mark.parametrize(
        "text",
        [
            f'{{"n": 3, "central_curvature": {K0}, "petal_curvatures": "111"}}',
            f'{{"n": "3", "central_curvature": "{K0}", "petal_curvatures": ["1", "1", "1"]}}',
            f'{{"n": 3.9, "central_curvature": {K0}, "petal_curvatures": [1, 1, 1]}}',
            f'{{"n": 3, "central_curvature": {K0}, "petal_curvatures": [1, 1, 1], "tolerance": true}}',
        ],
        ids=["string-petals", "string-fields", "float-n", "bool-tolerance"],
    )
    def test_verify_rejects(self, capsys, monkeypatch, text):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, "verify", "-")
        assert (code, out) == (2, "")
        assert "expected a JSON" in err

    @pytest.mark.parametrize(
        "circles",
        [
            [[0, 0, math.nan], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
            ["000", "123", "456", "789"],
            [[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]],
        ],
        ids=["nan-radius", "string-circles", "zero-radius"],
    )
    def test_render_rejects(self, capsys, monkeypatch, circles):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        raw = json.loads(doc_json)
        raw["circles"] = circles
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(raw)))
        code, out, err = run(capsys, "render", "-", "-")
        assert (code, out) == (2, "")
        assert "error: circle" in err

    @pytest.mark.parametrize("command", [["verify", "-"], ["render", "-", "-"]])
    def test_circle_not_a_triple(self, capsys, monkeypatch, command):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        raw = json.loads(doc_json)
        raw["circles"][1] = [1, 0]
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(raw)))
        code, out, err = run(capsys, *command)
        assert (code, out) == (2, "")
        assert err == "error: circles must be n+1 triples (cx, cy, r), central first\n"


class TestReportsPrintNoMinusZero:
    """Every report number goes through one formatter, which prints -0 as 0."""

    def test_solve(self, capsys, monkeypatch):
        rep = (6.5, 6.5, -0.0, 1.0)  # solve_report's fields, as cmd_solve's kernel returns them
        monkeypatch.setattr("nflower.solve._solve", lambda petals, tol: rep)
        code, out, _ = run(capsys, "solve", "1,1,1")
        assert (code, out) == (0, (
            "central curvature: 6.5\n"
            "relation residual: 0 (relative 0)\n"
            "root agreement: geometric 6.5, equation 6.5, difference 0\n"
        ))
        code, out, _ = run(capsys, "solve", "--json", "1,1,1")
        assert '"residual": 0.0,' in out

    def test_verify(self, capsys, monkeypatch):
        def checks(doc, tol):
            return [("descartes relation", True, -0.0, tol)]

        monkeypatch.setattr("nflower.cli._verify_checks", checks)
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, _ = run(capsys, "verify", "-")
        assert (code, out) == (0, "PASS descartes relation (value 0, threshold 1e-09)\n")

    def test_spinors(self, capsys, monkeypatch):
        from nflower.solve import _spinor_pairs

        def chain_from_minus_zero(m):  # cmd_spinors' chain, as (xi, eta) pairs
            (_, eta), *rest = _spinor_pairs(m)
            return [(-0.0, eta), *rest]

        monkeypatch.setattr("nflower.solve._spinor_pairs", chain_from_minus_zero)
        code, out, _ = run(capsys, "spinors", "1,1,1")
        assert code == 0
        row = out.splitlines()[2]
        assert row == "  0" + "0".rjust(19) + "      1.07456993182      1.07456993182      2.30940107676"
        code, out, _ = run(capsys, "spinors", "--json", "1,1,1")
        assert '"xi": 0.0,' in out


class TestTolerance:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--tol", "0", "-"],
            ["verify", "--tol", "nan", "-"],
            ["verify", "--tol", "-1", "-"],
            ["solve", "--tol", "inf", "1,1,1"],
            ["spinors", "--tol", "inf", "1,1,1"],
            ["layout", "--tol", "inf", "1,1,1"],
            ["solve", "--tol", "x", "1,1,1"],
        ],
    )
    def test_usage_error(self, capsys, monkeypatch, argv):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        monkeypatch.setattr("sys.stdin", io.StringIO(doc_json))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "argument --tol: must be positive and finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["render", "--json", "-", "-"],
            ["polynomial", "--tol", "1", "3"],
            ["layout", "--json", "1,1,1"],
            ["render", "--tol", "1", "-", "-"],
            ["polynomial", "--json", "3"],
        ],
    )
    def test_options_only_where_read(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --" in err

    def test_layout_tolerance_in_document(self, capsys):
        code, out, _ = run(capsys, "layout", "--tol", "1e-6", "1,1,1")
        assert code == 0
        assert json.loads(out)["tolerance"] == 1e-6

    def test_help_states_the_default(self, capsys):
        # --help prints the default as a literal, beside the constant.
        code, out, _ = run(capsys, "solve", "--help")
        stated = re.search(r"\(default (\S+)\)", " ".join(out.split()))
        assert code == 0 and float(stated.group(1)) == DEFAULT_TOLERANCE

    def test_small_positive_tolerance(self, capsys):
        code, out, _ = run(capsys, "solve", "--tol", "1e-6", "1,1,1")
        assert code == 0
        assert "central curvature: 6.46410161514" in out


class TestRender:
    def test_svg_structure(self, capsys, tmp_path):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        src = tmp_path / "flower.json"
        src.write_text(doc_json, encoding="utf-8")
        out_path = tmp_path / "flower.svg"
        code, _, _ = run(capsys, "render", str(src), str(out_path))
        assert code == 0
        svg = out_path.read_text(encoding="utf-8")
        assert svg.count("<circle") == 4
        assert "viewBox" in svg
        assert svg.count('stroke="#c0392b"') == 1  # central circle stroked distinctly

    def test_viewbox_padding(self, capsys, tmp_path):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        doc = FlowerDocument.from_json(doc_json)
        src = tmp_path / "flower.json"
        src.write_text(doc_json, encoding="utf-8")
        code, svg, _ = run(capsys, "render", str(src), "-")
        xmin, ymin, width, height = map(float, re.search(r'viewBox="([^"]+)"', svg).group(1).split())
        raw_xmin = min(cx - r for cx, cy, r in doc.circles)
        raw_xmax = max(cx + r for cx, cy, r in doc.circles)
        raw_ymin = min(cy - r for cx, cy, r in doc.circles)
        raw_ymax = max(cy + r for cx, cy, r in doc.circles)
        pad = 0.1 * max(raw_xmax - raw_xmin, raw_ymax - raw_ymin)
        assert xmin == pytest.approx(raw_xmin - pad, rel=1e-9)
        assert width == pytest.approx((raw_xmax - raw_xmin) + 2 * pad, rel=1e-9)
        assert height == pytest.approx((raw_ymax - raw_ymin) + 2 * pad, rel=1e-9)

    def test_deterministic_bytes(self, capsys, tmp_path):
        _, doc_json, _ = run(capsys, "layout", "2,1,0.5,1")
        src = tmp_path / "f.json"
        src.write_text(doc_json, encoding="utf-8")
        _, svg1, _ = run(capsys, "render", str(src), "-")
        _, svg2, _ = run(capsys, "render", str(src), "-")
        assert svg1 == svg2

    def test_requires_circles(self, capsys, monkeypatch):
        doc = FlowerDocument(3, 2.0, (1.0, 1.0, 1.0))
        monkeypatch.setattr("sys.stdin", io.StringIO(doc.to_json()))
        code, _, err = run(capsys, "render", "-", "-")
        assert code == 2
        assert "circles" in err


class TestSpinors:
    def test_table_shape(self, capsys):
        code, out, _ = run(capsys, "spinors", "1,1,1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("central curvature")
        assert len(lines) == 2 + 3  # header rows + one row per petal

    def test_json_fields(self, capsys):
        code, out, _ = run(capsys, "spinors", "--json", "1,1,1,1")
        assert code == 0
        rep = json.loads(out)
        assert rep["central_curvature"] == pytest.approx(2.41421356237, abs=1e-9)
        assert len(rep["spinors"]) == 4
        for row in rep["spinors"]:
            assert row["flat_curvature"] == pytest.approx(2.0 * row["eta"] ** 2, rel=1e-9)
        assert rep["spinors"][0]["xi"] == 0.0

    def test_bad_input(self, capsys):
        code, _, _ = run(capsys, "spinors", "1")
        assert code == 2

    def test_open_chain_exits_3(self, capsys, monkeypatch):
        from nflower.solve import _spinor_pairs

        # the chain of a non-flower: closing bracket -sqrt(3) instead of -1
        open_chain = _spinor_pairs((math.sqrt(2.0), math.sqrt(3.0), math.sqrt(3.0)))
        monkeypatch.setattr("nflower.solve._spinor_pairs", lambda m: open_chain)
        code, out, err = run(capsys, "spinors", "1,1,1")
        assert code == 3 and out == ""
        assert "does not close" in err

    def test_brackets_judged_at_spinor_scale(self, capsys):
        # Brackets of large spinors round by about eps |z_a||z_b|: against an
        # absolute 1e-9, 25 of these flowers exited 2 on consecutive brackets.
        rng = random.Random(7)
        codes = []
        for _ in range(600):
            n = rng.choice((3, 4, 5, 7, 12, 40))
            spread = rng.choice((2, 4, 8))
            petals = [10.0 ** rng.uniform(-spread, spread) for _ in range(n)]
            code, _, err = run(capsys, "spinors", ",".join(map(repr, petals)))
            # Exit 3 is only the relation bisection's known failure.
            assert code == 0 or (code == 3 and "does not change sign" in err), err
            codes.append(code)
        assert codes.count(0) >= 582

    @pytest.mark.parametrize("spread", [150, 300])
    def test_valid_wide_petals_never_exit_2(self, capsys, spread):
        # Exit 2 is for bad input.  At these spreads (k_a + 1)(k_b + 1)
        # overflows in m_from_normalized on 14 and 8 of the flowers that
        # solve accepts.
        rng = random.Random(3100 + spread)
        for _ in range(150):
            n = rng.choice((3, 4, 5, 7, 12, 40))
            petals = ",".join(repr(10.0 ** rng.uniform(-spread, spread)) for _ in range(n))
            code, _, err = run(capsys, "spinors", petals)
            assert code == 0 or (code == 3 and err.startswith("numeric failure: ")), err
            assert "Traceback" not in err

    def test_m_variable_overflow_names_the_stage(self, capsys):
        petals = "1,1e200,1e200,1,1,1,1"
        assert run(capsys, "solve", petals)[0] == 0
        assert run(capsys, "spinors", petals) == (3, "", (
            "numeric failure: m_from_normalized: m-variables must be finite and >= 0, got inf\n"
        ))

    def test_recursion_value_error_names_the_stage(self, capsys, monkeypatch):
        def explode(m):
            raise ValueError("spinor components must be finite")

        monkeypatch.setattr("nflower.solve._spinor_pairs", explode)
        assert run(capsys, "spinors", "1,1,1") == (
            3, "", "numeric failure: spinor_recursion: spinor components must be finite\n"
        )

    @pytest.mark.parametrize("n", [4, 12])
    def test_equal_petals_chain_closes(self, capsys, n):
        # An even symmetric flower has a horocycle tangent at infinity.
        code, out, _ = run(capsys, "spinors", ",".join(["1"] * n))
        assert code == 0
        rows = [[float(v) for v in line.split()] for line in out.strip().splitlines()[2:]]
        assert len(rows) == n
        xis, etas = [r[1] for r in rows], [r[2] for r in rows]
        for j in range(n - 1):
            assert abs(xis[j] * etas[j + 1] - etas[j] * xis[j + 1] + 1.0) <= 1e-9
        assert abs(xis[0] * etas[n - 1] - etas[0] * xis[n - 1] + 1.0) <= 1e-9


class TestPolynomialCommand:
    def test_golden_three(self, capsys):
        code, out, _ = run(capsys, "polynomial", "3")
        assert code == 0
        assert out == GOLDEN_POLY_3

    def test_bounds(self, capsys):
        assert run(capsys, "polynomial", "2")[0] == 2
        assert run(capsys, "polynomial", "25")[0] == 2

    def test_non_integer(self, capsys):
        assert run(capsys, "polynomial", "x")[0] == 2

    def test_bad_n_writes_nothing(self, capsys):
        assert run(capsys, "polynomial", "25") == (
            2, "", "error: subset enumeration capped at n = 24\n"
        )

    def test_streams_without_a_polynomial(self, capsys, monkeypatch):
        # n = 15 and 16 take more than one write.
        from nflower.descartes import descartes_polynomial
        from nflower.polynomial import PolynomialZZ

        expected = {n: descartes_polynomial(n).serialize() for n in range(3, 17)}

        def explode(*args, **kwargs):
            raise AssertionError("polynomial built")

        monkeypatch.setattr(PolynomialZZ, "__init__", explode)
        monkeypatch.setattr(PolynomialZZ, "serialize", explode)
        for n, text in expected.items():
            assert run(capsys, "polynomial", str(n)) == (0, text, "")


class TestReadmeExamples:
    """The README's example outputs, byte for byte."""

    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_solve(self, capsys):
        text = self.README.read_text(encoding="utf-8")
        after = text[text.index("nflower solve 1,1,1\n"):].splitlines()[1:]
        shown = list(itertools.takewhile(lambda line: line.startswith("# "), after))
        assert len(shown) == 3
        assert run(capsys, "solve", "1,1,1") == (0, "".join(line[2:] + "\n" for line in shown), "")

    def test_polynomial(self, capsys):
        text = self.README.read_text(encoding="utf-8")
        fence = text.index("```\n", text.index("`nflower polynomial 3` prints"))
        shown = text[fence + 4 : text.index("```", fence + 4)]
        assert shown == GOLDEN_POLY_3
        assert run(capsys, "polynomial", "3") == (0, shown, "")

    def test_library(self):
        text = self.README.read_text(encoding="utf-8")
        start = text.index("```python\n", text.index("\n## Library\n")) + len("```python\n")
        namespace = {}
        exec(text[start : text.index("```", start)], namespace)
        assert namespace["k"] == 6.464101615137752
        chain, geom = namespace["chain"], namespace["geom"].chain
        for i in (0, 1):
            for j in range(len(chain)):
                want = bracket(chain[i], chain[j])
                assert bracket(geom[i], geom[j]) == pytest.approx(want, abs=1e-12)


class TestDispatch:
    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_numeric_failure_maps_to_exit_3(self, capsys, monkeypatch):
        from nflower.euclid import NumericFailure

        def explode(petals, tol):
            raise NumericFailure("roots disagree")

        monkeypatch.setattr("nflower.solve._solve", explode)
        code, _, err = run(capsys, "solve", "1,1,1")
        assert code == 3
        assert "numeric failure" in err

    def test_float_overflow_maps_to_exit_3(self, capsys, monkeypatch):
        def explode(petals, tol):
            raise OverflowError("math range error")

        monkeypatch.setattr("nflower.solve._solve", explode)
        code, _, err = run(capsys, "solve", "1,1,1")
        assert code == 3
        assert err.startswith("numeric failure")
        assert "Traceback" not in err

    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "nflower.cli", "solve", "1,1,1"],
            capture_output=True,
            text=True,
            encoding="utf-8",
        )
        assert proc.returncode == 0
        assert "central curvature: 6.46410161514" in proc.stdout

    def test_closed_stdout_exits_141_quietly(self):
        # The reader takes one line and closes stdout, as `| head -1` does:
        # neither a usage error nor a message at exit.
        import subprocess
        import sys

        with subprocess.Popen(
            [sys.executable, "-m", "nflower.cli", "polynomial", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            assert proc.stdout.readline() == b"1 0 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 0\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert err == b""


class TestPlainCalls:
    """A subcommand followed by exactly its positionals, none an option,
    runs without a parser, with the attributes argparse would set; every
    other argv falls back to argparse."""

    README = TestReadmeExamples.README

    PLAIN = [
        ["solve", "1,1,1"], ["solve", ""], ["solve", "solve"], ["solve", " 1, 2 ,3 "],
        ["verify", "-"], ["verify", "flower.json"], ["layout", "1,2,3"],
        ["render", "-", "-"], ["render", "flower.json", "flower.svg"], ["spinors", "0.5,1,2,1"],
        ["polynomial", "12"], ["polynomial", "+5"], ["polynomial", " 5 "], ["polynomial", "25"],
    ]
    FALLBACK = [
        [], ["frobnicate"], ["frobnicate", "1,1,1"], ["-"], ["--"], ["--help"], ["-h"],
        ["solve"], ["solve", "1,1,1", "2"], ["render", "-"], ["render", "-", "-", "-"],
        ["solve", "--"], ["solve", "--", "1,1,1"], ["solve", "-1,2,3"], ["solve", "-h"],
        ["render", "-h", "-"], ["verify", "--help"],
        ["solve", "--json", "1,1,1"], ["solve", "1,1,1", "--json"], ["solve", "--tol", "1e-6", "1,1,1"],
        ["solve", "--tol=1e-6", "1,1,1"], ["verify", "--json", "--tol", "1e-3", "-"],
        ["layout", "--tol", "1e-6", "1,2,3"], ["layout", "--json", "1,2,3"], ["spinors", "--json", "1,1,1"],
        ["render", "--json", "-", "-"], ["polynomial", "--json", "3"], ["polynomial", "--tol", "1", "3"],
        ["polynomial", "5.0"], ["polynomial", "x"], ["polynomial", "-5"], ["polynomial", ""],
    ]

    def readme_calls(self):
        """The argv of each `nflower` call the README shows with arguments:
        its command line examples and the calls quoted in its text."""
        text = self.README.read_text(encoding="utf-8")
        start = text.index("```sh\n", text.index("\n## Command line\n")) + len("```sh\n")
        block = text[start : text.index("```", start)]
        lines = [*block.splitlines(), *re.findall(r"`(nflower [^`]+)`", text)]
        calls = [seg.split("#")[0].split(">")[0].split() for line in lines for seg in line.split("|")]
        return [call[1:] for call in calls if call[:1] == ["nflower"] and len(call) > 2]

    @pytest.mark.parametrize("argv", PLAIN, ids=repr)
    def test_plain_call_sets_what_argparse_sets(self, argv):
        assert vars(_plain_args(argv)) == vars(_build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", FALLBACK, ids=repr)
    def test_anything_else_falls_back(self, argv):
        assert _plain_args(argv) is None

    def test_readme_examples_are_plain(self):
        calls = self.readme_calls()
        assert len(calls) >= 9
        assert {call[0] for call in calls} == {"solve", "verify", "layout", "render", "spinors", "polynomial"}
        for argv in calls:
            assert vars(_plain_args(argv)) == vars(_build_parser().parse_args(argv)), argv


class TestExitCodeContract:
    """Valid petals get an answer (exit 0) or a typed numeric failure
    (exit 3): never the usage code 2, an exception out of `main` or a
    traceback.  `layout` may exit 0 where `solve` refuses; that is not
    judged here."""

    SPREADS = (0.5, 1, 2, 4, 8, 12, 20, 50, 100, 150, 200, 300)

    def test_valid_petals_never_exit_2(self, capsys):
        rng = random.Random(20261020)
        codes = {command: [] for command in ("solve", "layout", "spinors")}
        for i in range(200):
            spread = self.SPREADS[i % len(self.SPREADS)]
            n = rng.choice((3, 4, 5, 7, 12, 40, 100, 200))
            petals = ",".join(repr(10.0 ** rng.uniform(-spread, spread)) for _ in range(n))
            for command, seen in codes.items():
                code, out, err = run(capsys, command, petals)
                assert "Traceback" not in err
                if code == 3:
                    assert out == "" and err.startswith("numeric failure: "), (command, petals, err)
                else:
                    assert code == 0 and err == "", (command, petals, code, err)
                seen.append(code)
        # Every command answers most flowers; the rest are exit 3.
        assert all(seen.count(0) >= 100 for seen in codes.values()), codes

    def test_library_raises_only_numeric_failure(self):
        # Once _checked_petals accepts the petals, the library's answers
        # raise nothing but NumericFailure: no ValueError, OverflowError or
        # ZeroDivisionError from inside a kernel.
        rng = random.Random(20261021)
        calls = {
            "solve_report": solve_report,
            "layout_flower": lambda petals: layout_flower([1.0 / k for k in petals]),
            "geometric_spinor_chain": geometric_spinor_chain,
        }
        answered = dict.fromkeys(calls, 0)
        for i in range(300):
            spread = self.SPREADS[i % len(self.SPREADS)]
            n = rng.choice((3, 4, 5, 7, 12, 40, 100, 200))
            petals = _checked_petals([10.0 ** rng.uniform(-spread, spread) for _ in range(n)])
            for name, call in calls.items():
                try:
                    call(petals)
                except NumericFailure:
                    continue
                answered[name] += 1
        # Each answers most flowers; the rest are typed numeric failures.
        assert all(count >= 150 for count in answered.values()), answered
