import io
import json
import math
import random
import re

import pytest

from nflower.cli import main
from nflower.document import FlowerDocument

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
        path.write_text(bad.to_json())
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


class TestRender:
    def test_svg_structure(self, capsys, tmp_path):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        src = tmp_path / "flower.json"
        src.write_text(doc_json)
        out_path = tmp_path / "flower.svg"
        code, _, _ = run(capsys, "render", str(src), str(out_path))
        assert code == 0
        svg = out_path.read_text()
        assert svg.count("<circle") == 4
        assert "viewBox" in svg
        assert svg.count('stroke="#c0392b"') == 1  # central circle stroked distinctly

    def test_viewbox_padding(self, capsys, tmp_path):
        _, doc_json, _ = run(capsys, "layout", "1,1,1")
        doc = FlowerDocument.from_json(doc_json)
        src = tmp_path / "flower.json"
        src.write_text(doc_json)
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
        src.write_text(doc_json)
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

        monkeypatch.setattr("nflower.cli.solve_report", explode)
        code, _, err = run(capsys, "solve", "1,1,1")
        assert code == 3
        assert "numeric failure" in err

    def test_float_overflow_maps_to_exit_3(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "nflower.cli", "solve", "1e-300,1,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith("numeric failure")
        assert "Traceback" not in proc.stderr

    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "nflower.cli", "solve", "1,1,1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "central curvature: 6.46410161514" in proc.stdout
