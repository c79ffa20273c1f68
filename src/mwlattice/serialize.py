"""JSON forms for rationals, polynomials and coefficient files.

Rationals serialize as plain ints when integral and as "p/q" strings
otherwise, and a string is read only as "p" or "p/q".  Polynomials
serialize as lists of {"exp": [t,x,y,z], "coef": ...} objects in
graded-lexicographic order so that equal polynomials produce
byte-identical documents.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .errors import InputFormatError, MWLatticeError, _quoted
from .pencil import DoubleCoverCoefficients, PencilCoefficients
from .poly import SparsePoly, _graded_order

# A coefficient key "i,j" as "%d,%d" writes it: no sign, space or leading zero.
_INDEX_KEY = re.compile(r"(0|[1-9][0-9]*),(0|[1-9][0-9]*)")
# A rational string "p" or "p/q": an optional minus and decimal digits.
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _decimal(digits: str, what: str) -> int:
    """``int(digits)``, digits with an optional minus; past Python's limit on
    str-to-int conversion, an input error that names the limit."""
    try:
        return int(digits)
    except ValueError:
        count, limit = len(digits.lstrip("-")), sys.get_int_max_str_digits()
        raise InputFormatError("{}: an integer of {:,} digits is past the {:,}-digit "
                               "input limit".format(what, count, limit)) from None


def frac_to_json(value):
    value = Fraction(value)
    if value.denominator == 1:
        return int(value)
    return str(value)


def frac_from_json(obj) -> Fraction:
    if isinstance(obj, bool):
        raise InputFormatError("expected a rational, got a boolean")
    if type(obj) is int:
        return Fraction(obj)
    if isinstance(obj, str):
        match = _RATIONAL.fullmatch(obj)
        if match is None:
            raise InputFormatError("bad rational %s: expected 'p' or 'p/q'" % _quoted(obj))
        num = _decimal(match[1], "bad rational")
        den = 1 if match[2] is None else _decimal(match[2], "bad rational")
        if den == 0:
            raise InputFormatError("bad rational %s: zero denominator" % _quoted(obj))
        return Fraction(num, den)
    raise InputFormatError("expected a rational, got %s" % _quoted(obj))


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
            or not all(type(e) is int and e >= 0 for e in exp)
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
    if type(g) is not int:
        raise InputFormatError("'genus' must be an integer")
    table = obj["c"]
    if not isinstance(table, dict):
        raise InputFormatError("'c' must map 'i,j' keys to rationals")
    coeffs = {}
    for key, raw in table.items():
        match = _INDEX_KEY.fullmatch(key) if isinstance(key, str) else None
        if match is None:
            raise InputFormatError("coefficient key %s is not 'i,j'" % _quoted(key))
        index = (_decimal(match[1], "coefficient key"), _decimal(match[2], "coefficient key"))
        coeffs[index] = frac_from_json(raw)
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
