import math

import pytest

from nflower.document import FlowerDocument


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
