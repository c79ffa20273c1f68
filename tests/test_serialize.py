"""JSON round trips for rationals, polynomials and coefficient files."""

import json
from fractions import Fraction

import pytest

from mwlattice.errors import InputFormatError
from mwlattice.pencil import PencilCoefficients, pencil_to_double_cover
from mwlattice.poly import T, X, Y, Z, SparsePoly
from mwlattice.serialize import (
    double_cover_to_json,
    frac_from_json,
    frac_to_json,
    matrix_to_json,
    pencil_coefficients_from_json,
    poly_from_json,
    poly_to_json,
)


def test_frac_round_trip():
    assert frac_to_json(Fraction(5)) == 5
    assert isinstance(frac_to_json(Fraction(5)), int)
    assert frac_to_json(Fraction(-3, 4)) == "-3/4"
    for v in (Fraction(0), Fraction(7), Fraction(22, 7), Fraction(-1, 9)):
        assert frac_from_json(frac_to_json(v)) == v
    assert frac_from_json("6/4") == Fraction(3, 2)


def test_frac_rejections():
    with pytest.raises(InputFormatError):
        frac_from_json(True)
    with pytest.raises(InputFormatError):
        frac_from_json(1.5)
    with pytest.raises(InputFormatError):
        frac_from_json("three")
    with pytest.raises(InputFormatError):
        frac_from_json("1/0")
    with pytest.raises(InputFormatError):
        frac_from_json(None)


def test_matrix_to_json():
    rows = ((Fraction(1), Fraction(1, 2)), (Fraction(-2), Fraction(0)))
    assert matrix_to_json(rows) == [[1, "1/2"], [-2, 0]]


def test_poly_round_trip_and_ordering():
    p = 2 * T * Y - 3 * Z + X ** 3 + SparsePoly.monomial(Fraction(1, 2))
    doc = poly_to_json(p)
    # graded lex: degree first, then exponent tuple with earlier slots larger
    degrees = [sum(item["exp"]) for item in doc]
    assert degrees == sorted(degrees)
    assert poly_from_json(doc) == p
    # serialization is canonical, hence byte-stable under json.dumps
    assert json.dumps(doc) == json.dumps(poly_to_json(p + T - T))


def test_poly_ordering_within_degree():
    p = T * T + T * X + X * X
    doc = poly_to_json(p)
    assert [item["exp"] for item in doc] == [
        [2, 0, 0, 0],
        [1, 1, 0, 0],
        [0, 2, 0, 0],
    ]


def test_poly_from_json_rejections():
    good = {"exp": [1, 0, 0, 0], "coef": 1}
    with pytest.raises(InputFormatError):
        poly_from_json({"exp": [0, 0, 0, 0], "coef": 1})
    with pytest.raises(InputFormatError):
        poly_from_json([{"exp": [1, 0, 0], "coef": 1}])
    with pytest.raises(InputFormatError):
        poly_from_json([{"exp": [1, 0, 0, -1], "coef": 1}])
    with pytest.raises(InputFormatError):
        poly_from_json([{"exp": [1, 0, 0, 0]}])
    with pytest.raises(InputFormatError):
        poly_from_json([{"exp": [1, 0, 0, 0], "coef": 1, "extra": 2}])
    with pytest.raises(InputFormatError):
        poly_from_json([good, dict(good)])
    with pytest.raises(InputFormatError):
        poly_from_json([{"exp": [1, 0, 0, 0], "coef": True}])
    with pytest.raises(InputFormatError, match="four nonnegative integers"):
        poly_from_json([{"exp": [True, 0, 1, 0], "coef": 1}])
    with pytest.raises(InputFormatError, match="four nonnegative integers"):
        poly_from_json([{"exp": [1.5, 0, 0, 0], "coef": 1}])


def pencil_coefficients_to_json(pc: PencilCoefficients) -> dict:
    """The coefficient-file form that ``pencil_coefficients_from_json`` reads."""
    return {
        "genus": pc.g,
        "c": {"%d,%d" % (i, j): frac_to_json(v) for i, j, v in pc.entries},
    }


def test_pencil_coefficients_round_trip():
    pc = PencilCoefficients.from_map(
        2, {(2, 0): Fraction(3, 2), (0, 1): -1, (1, 2): 5}
    )
    doc = pencil_coefficients_to_json(pc)
    assert doc["genus"] == 2
    assert doc["c"]["2,0"] == "3/2"
    assert doc["c"]["0,1"] == -1
    assert pencil_coefficients_from_json(doc) == pc


def test_pencil_coefficients_from_json_rejections():
    good = {"genus": 1, "c": {"2,0": 1, "0,1": 1}}
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json([good])
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json({"genus": 1})
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json({**good, "genus": "1"})
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json({**good, "genus": True})
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json({**good, "c": [1, 2]})
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json(
            {"genus": 1, "c": {"2-0": 1, "0,1": 1}}
        )
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json(
            {"genus": 1, "c": {"a,b": 1, "0,1": 1}}
        )
    # domain-level coefficient errors surface as input errors too
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json({"genus": 1, "c": {"2,0": 1}})
    with pytest.raises(InputFormatError):
        pencil_coefficients_from_json(
            {"genus": 0, "c": {"2,0": 1, "0,1": 1}}
        )


def test_pencil_coefficients_from_json_raises_programming_errors(monkeypatch):
    # only MWLatticeError is bad data; a TypeError is a bug and must surface
    def broken(g, coeffs):
        raise TypeError("broken constructor")

    monkeypatch.setattr(PencilCoefficients, "from_map", broken)
    with pytest.raises(TypeError, match="broken constructor"):
        pencil_coefficients_from_json({"genus": 1, "c": {"2,0": 1, "0,1": 1}})


def test_double_cover_to_json():
    pc = PencilCoefficients.from_map(1, {(2, 0): 1, (0, 1): 1, (1, 1): 1})
    doc = double_cover_to_json(pencil_to_double_cover(pc))
    assert doc == {"genus": 1, "b0": 4, "b10": -4, "b1": [1, 0, 0]}
    assert json.dumps(doc)  # JSON-serializable as-is
