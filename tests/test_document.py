import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from nflower.document import FlowerDocument, _filled
from nflower.euclid import NumericFailure, layout_flower
from nflower.svg import flower_svg
from test_descartes import golden_flowers


def sample_doc(**kwargs):
    base = dict(
        n=3,
        central_curvature=6.464101615137754,
        petal_curvatures=(1.0, 1.0, 1.0),
    )
    base.update(kwargs)
    return FlowerDocument(**base)


class TestFlowerDocument:
    def test_round_trip_without_circles(self):
        doc = sample_doc()
        assert FlowerDocument.from_json(doc.to_json()) == doc

    def test_round_trip_with_circles(self):
        circles = (
            (0.0, 0.0, 0.15470053837925146),
            (1.1547005383792515, 0.0, 1.0),
            (-0.5773502691896257, 1.0, 1.0),
            (-0.5773502691896263, -1.0, 1.0),
        )
        doc = sample_doc(circles=circles, tolerance=1e-10)
        back = FlowerDocument.from_json(doc.to_json())
        assert back == doc  # 17 significant digits round-trip exactly

    def test_default_tolerance(self):
        doc = FlowerDocument.from_json(
            '{"n": 3, "central_curvature": 2.0, "petal_curvatures": [1, 1, 1]}'
        )
        assert doc.tolerance == 1e-9

    def test_deterministic_bytes(self):
        assert sample_doc().to_json() == sample_doc().to_json()

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            FlowerDocument.from_json("{not json")

    def test_missing_fields(self):
        with pytest.raises(ValueError):
            FlowerDocument.from_json('{"n": 3}')

    def test_wrong_circle_count(self):
        with pytest.raises(ValueError):
            sample_doc(circles=((0.0, 0.0, 1.0),))

    @pytest.mark.parametrize("bad", [(1.0, 0.0), (1.0, 0.0, 1.0, 0.0)])
    def test_circle_not_a_triple(self, bad):
        circles = ((0.0, 0.0, 1.0), bad, (0.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        message = "circles must be n+1 triples (cx, cy, r), central first"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_doc(circles=circles)

    def test_circle_that_is_a_bare_number(self):
        circles = ((0.0, 0.0, 1.0), 1.0, (0.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        message = "circles must be n+1 triples (cx, cy, r), central first"
        with pytest.raises(ValueError, match=re.escape(message)):
            sample_doc(circles=circles)

    def test_a_non_number_fails_before_the_shape(self):
        circles = ((0.0, 0.0, 1.0), 1.0, (0.0, "x", 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="could not convert string to float: 'x'"):
            sample_doc(circles=circles)

    def test_petal_count_mismatch(self):
        with pytest.raises(ValueError):
            FlowerDocument(n=4, central_curvature=1.0, petal_curvatures=(1.0, 1.0, 1.0))

    def test_nonpositive_central(self):
        with pytest.raises(ValueError):
            sample_doc(central_curvature=-2.0)

    def test_non_object_json(self):
        with pytest.raises(ValueError):
            FlowerDocument.from_json("[1, 2, 3]")

    def test_infinite_values_rejected(self):
        with pytest.raises(ValueError):
            sample_doc(central_curvature=math.inf)

    @pytest.mark.parametrize("central", [1e-320, 5e-324, 1.7976931348623157e308])
    def test_central_curvature_in_petal_range(self, central):
        # The petals' rule: the reciprocal must be finite and in range too.
        with pytest.raises(ValueError, match="central curvature must lie in ") as exc:
            sample_doc(central_curvature=central)
        assert str(exc.value).endswith(f"got {central!r}")


class TestFilled:
    def test_minus_zero_prints_as_zero(self):
        # The one number formatter: every report, document and SVG number
        # goes through it, so none prints "-0".
        assert _filled("%.12g %18.12g %.17g", [-0.0, -0.0, -0.0]) == "0 " + "0".rjust(18) + " 0"


class TestIntegerN:
    # from_json's rule for n holds for the constructor too, so no document
    # writes JSON that its own from_json refuses.
    @pytest.mark.parametrize("n", [3.0, True, "3"])
    def test_non_integer_n(self, n):
        with pytest.raises(ValueError, match=f"n: expected a JSON integer, got {n!r}"):
            FlowerDocument(n, 6.0, [1, 1, 1])

    def test_constructed_documents_round_trip(self):
        doc = FlowerDocument(3, 6, [1, True, 1.0], tolerance=1)
        assert '"n": 3,' in doc.to_json()
        assert FlowerDocument.from_json(doc.to_json()) == doc


class TestFieldTypes:
    """Each field must have its JSON type: no string, bool or truncated float
    is read as a number, and no string as an array."""

    PETALS = "[1, 1, 1]"

    def doc_text(self, n="3", central="6.464101615137754", petals=PETALS, extra=""):
        return f'{{"n": {n}, "central_curvature": {central}, "petal_curvatures": {petals}{extra}}}'

    def test_valid_document(self):
        doc = FlowerDocument.from_json(self.doc_text(extra=', "tolerance": 1e-10'))
        assert doc.petal_curvatures == (1.0, 1.0, 1.0) and doc.tolerance == 1e-10

    def test_string_petal_curvatures(self):
        with pytest.raises(ValueError, match="petal_curvatures: expected a JSON array"):
            FlowerDocument.from_json(self.doc_text(petals='"111"'))

    def test_string_fields(self):
        text = self.doc_text(n='"3"', central='"6.464101615137754"', petals='["1", "1", "1"]')
        with pytest.raises(ValueError, match="n: expected a JSON integer"):
            FlowerDocument.from_json(text)

    def test_string_curvatures(self):
        with pytest.raises(ValueError, match="central_curvature: expected a JSON number"):
            FlowerDocument.from_json(self.doc_text(central='"6.464101615137754"'))
        with pytest.raises(ValueError, match="petal_curvatures: expected JSON numbers"):
            FlowerDocument.from_json(self.doc_text(petals='["1", "1", "1"]'))

    @pytest.mark.parametrize("n", ["3.9", "3.0", "true"])
    def test_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n: expected a JSON integer"):
            FlowerDocument.from_json(self.doc_text(n=n))

    @pytest.mark.parametrize("tolerance", ["true", '"1e-9"', "null"])
    def test_non_number_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance: expected a JSON number"):
            FlowerDocument.from_json(self.doc_text(extra=f', "tolerance": {tolerance}'))

    def test_bool_petal_curvature(self):
        with pytest.raises(ValueError, match="petal_curvatures: expected JSON numbers"):
            FlowerDocument.from_json(self.doc_text(petals="[1, true, 1]"))

    @pytest.mark.parametrize("field", ["central", "petals", "extra"])
    def test_integer_beyond_float_range(self, field):
        big = "1" + "0" * 400
        text = {
            "central": self.doc_text(central=big),
            "petals": self.doc_text(petals=f"[1, 1, {big}]"),
            "extra": self.doc_text(extra=f', "circles": [[0, 0, {big}], [1, 0, 1], [0, 1, 1], [1, 1, 1]]'),
        }[field]
        with pytest.raises(ValueError, match="int too large to convert to float"):
            FlowerDocument.from_json(text)

    def test_string_circles(self):
        circles = '["000", "123", "456", "789"]'
        with pytest.raises(ValueError, match="circle: expected a JSON array"):
            FlowerDocument.from_json(self.doc_text(extra=f', "circles": {circles}'))
        with pytest.raises(ValueError, match="circles: expected a JSON array"):
            FlowerDocument.from_json(self.doc_text(extra=', "circles": "0001"'))
        with pytest.raises(ValueError, match="circle: expected JSON numbers"):
            FlowerDocument.from_json(self.doc_text(extra=', "circles": [[0, 0, "1"]]'))

    @pytest.mark.parametrize(
        "bad", [(0.0, 0.0, math.nan), (math.inf, 0.0, 1.0), (0.0, math.nan, 1.0),
                (0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 0.0, math.inf)],
    )
    def test_circle_values_finite_and_radius_positive(self, bad):
        circles = (bad, (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="circle centres must be finite"):
            sample_doc(circles=circles)


def svg_circles(svg: str) -> list[tuple[float, float, float]]:
    """(cx, cy, r) of each <circle>, with cy back in the y-up frame."""
    rows = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)" r="([^"]+)"', svg)
    return [(float(cx), -float(cy), float(r)) for cx, cy, r in rows]


class TestFlowerSvg:
    @pytest.mark.parametrize(
        "bad", [(math.nan, 0.0, 1.0), (0.0, -math.inf, 1.0), (2.0, 0.0, -1.0),
                (2.0, 0.0, 0.0), (2.0, 0.0, math.inf), (2.0, 0.0, math.nan)],
    )
    def test_non_finite_centre_or_bad_radius_is_refused(self, bad):
        with pytest.raises(ValueError, match="circle centres must be finite"):
            flower_svg([(0.0, 0.0, 1.0), bad, (2.0, 0.0, 1.0)])

    def test_circles_near_the_float_maximum_render_finite(self):
        big = 1.7e308
        circles = [(big, 0.0, 1e307), (-big, 0.0, 1e307), (0.0, big, 1e300), (0.0, -big, 1e300)]
        svg = flower_svg(circles)
        assert "inf" not in svg and "nan" not in svg
        view = [float(v) for v in re.search(r'viewBox="([^"]+)"', svg).group(1).split()]
        assert all(math.isfinite(v) for v in view)
        # Drawn at scale 2^-k: the picture is the same.
        got = svg_circles(svg)
        k = round(math.log2(circles[0][0] / got[0][0]))
        assert k > 0
        for want, row in zip(circles, got):
            assert [math.ldexp(v, k) for v in row] == pytest.approx(want, rel=1e-11, abs=1e-11 * big)

    def test_circle_that_is_a_bare_number(self):
        message = "circles must be n+1 triples (cx, cy, r), central first"
        with pytest.raises(ValueError, match=re.escape(message)):
            flower_svg([(0.0, 0.0, 1.0), 1.0])

    def test_nothing_to_render(self):
        with pytest.raises(ValueError, match="nothing to render"):
            flower_svg([])

    def test_rescale_keeps_a_radius_it_would_round_to_zero(self):
        # The box overflows and is drawn at 2^-4; 5e-324 times that is 0.
        svg = flower_svg([(0.0, 0.0, 5e-324), (1.7e308, 0.0, 1e300)])
        assert svg_circles(svg)[0] == (0.0, 0.0, 5e-324)
        assert 'r="0"' not in svg

    def test_a_box_that_fits_is_not_rescaled(self):
        circles = [(0.0, 0.0, 1e307), (2e307, 0.0, 1e307), (-2e307, 0.0, 1e307)]
        assert svg_circles(flower_svg(circles)) == pytest.approx(circles, rel=1e-11)


GOLDEN_DOCUMENTS = Path(__file__).with_name("golden_documents.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def golden_documents():
    """(document, circles to render) of each golden flower laid out, with
    and without circles, then hand-written edge cases: -0.0 centres, int and
    bool curvatures, an int tolerance, int circles.  A flower whose layout
    fails gives the exception's name instead."""
    for petals in golden_flowers():
        try:
            layout = layout_flower([1.0 / k for k in petals])
        except NumericFailure:
            yield "NumericFailure"
            continue
        circles = tuple((c.cx, c.cy, c.r) for c in (layout.central, *layout.petals))
        k0 = layout.central.curvature
        yield FlowerDocument(len(petals), k0, petals, circles=circles), circles
        yield FlowerDocument(len(petals), k0, petals, tolerance=1e-12), circles
    zeros = ((-0.0, -0.0, 0.15470053837925146), (1.1547005383792515, -0.0, 1.0),
             (-0.5773502691896257, 1.0, 1.0), (-0.5773502691896263, -1.0, 1.0))
    yield FlowerDocument(3, 6.464101615137754, (1.0, 1.0, 1.0), circles=zeros), zeros
    ints = ((0, 0, 1), (3, 0, 2), (-2, 2, True), (-1, -3, 2))
    yield FlowerDocument(3, 6, [1, True, 2], tolerance=1, circles=ints), ints
    yield FlowerDocument(4, 2, (1, 2, 3, 4)), ints


def golden_document_rows():
    """Digests of to_json, of from_json(to_json) re-serialized, and of the
    SVG of each golden document."""
    rows = []
    for case in golden_documents():
        if isinstance(case, str):
            rows.append(case)
            continue
        doc, circles = case
        text = doc.to_json()
        back = FlowerDocument.from_json(text).to_json()
        rows.append([_digest(text), _digest(back), _digest(flower_svg(circles))])
    return rows


class TestSameBytesOnEveryPython:
    # Recorded with CPython 3.11 on x86-64 Linux (glibc's libm); regenerate
    # with `json.dumps(golden_document_rows())` only for a deliberate change
    # of the document or SVG bytes.
    def test_documents_and_svgs_match_the_recorded_bytes(self):
        expected = json.loads(GOLDEN_DOCUMENTS.read_text(encoding="utf-8"))
        got = golden_document_rows()
        assert sum(row != "NumericFailure" for row in expected) >= 200
        mismatched = [i for i, (a, b) in enumerate(zip(got, expected)) if a != b]
        assert (len(got), mismatched) == (len(expected), [])
