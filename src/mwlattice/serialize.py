"""JSON forms for rationals, polynomials and coefficient files.

Rationals serialize as plain ints when integral and as "p/q" strings
otherwise.  Polynomials serialize as lists of {"exp": [t,x,y,z],
"coef": ...} objects in graded-lexicographic order so that equal
polynomials produce byte-identical documents.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputFormatError, MWLatticeError
from .pencil import DoubleCoverCoefficients, PencilCoefficients
from .poly import SparsePoly, _graded_order


def frac_to_json(value):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return str(value)


def frac_from_json(obj) -> Fraction:
    if isinstance(obj, bool):
        raise InputFormatError("expected a rational, got a boolean")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str):
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError("bad rational %r: %s" % (obj, exc)) from None
    raise InputFormatError("expected a rational, got %r" % (obj,))


def matrix_to_json(rows) -> list:
    return [[frac_to_json(x) for x in row] for row in rows]


def poly_to_json(p: SparsePoly) -> list:
    terms = p.terms
    return [{"exp": list(e), "coef": frac_to_json(terms[e])} for e in _graded_order(terms)]


def poly_from_json(obj) -> SparsePoly:
    if not isinstance(obj, list):
        raise InputFormatError("polynomial document must be a JSON list")
    terms = {}
    for item in obj:
        if not isinstance(item, dict) or set(item) != {"exp", "coef"}:
            raise InputFormatError("each term needs exactly 'exp' and 'coef'")
        exp = item["exp"]
        if (
            not isinstance(exp, list)
            or len(exp) != 4
            or not all(isinstance(e, int) and not isinstance(e, bool) and e >= 0
                       for e in exp)
        ):
            raise InputFormatError("'exp' must be four nonnegative integers")
        key = tuple(exp)
        if key in terms:
            raise InputFormatError("duplicate exponent %s" % (exp,))
        terms[key] = frac_from_json(item["coef"])
    return SparsePoly(terms)


def pencil_coefficients_from_json(obj) -> PencilCoefficients:
    if not isinstance(obj, dict):
        raise InputFormatError("coefficient document must be a JSON object")
    if "genus" not in obj or "c" not in obj:
        raise InputFormatError("coefficient document needs 'genus' and 'c'")
    g = obj["genus"]
    if not isinstance(g, int) or isinstance(g, bool):
        raise InputFormatError("'genus' must be an integer")
    table = obj["c"]
    if not isinstance(table, dict):
        raise InputFormatError("'c' must map 'i,j' keys to rationals")
    coeffs = {}
    for key, raw in table.items():
        parts = key.split(",") if isinstance(key, str) else []
        if len(parts) != 2:
            raise InputFormatError("coefficient key %r is not 'i,j'" % (key,))
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputFormatError("coefficient key %r is not 'i,j'" % (key,)) from None
        coeffs[(i, j)] = frac_from_json(raw)
    try:
        return PencilCoefficients.from_map(g, coeffs)
    except MWLatticeError as exc:
        raise InputFormatError("invalid coefficients: %s" % exc) from None


def double_cover_to_json(dc: DoubleCoverCoefficients) -> dict:
    return {
        "genus": dc.g,
        "b0": frac_to_json(dc.b0),
        "b10": frac_to_json(dc.b10),
        "b1": [frac_to_json(v) for v in dc.b1],
    }
