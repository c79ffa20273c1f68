"""Sparse exact polynomials in the fixed variables (t, x, y, z).

A polynomial is stored as integer numerators over one common denominator:
``_num`` maps each exponent vector, a 4-tuple of nonnegative ints, to a
nonzero ``int``, and ``_den`` is a positive ``int``.  This is the primitive
part times rational content of Geddes, Czapor & Labahn (*Algorithms for
Computer Algebra*, 1992, sec. 2.7), with the content's numerator kept in
the numerators.  The form is canonical: no zero numerator is stored and
gcd(_den, every numerator) = 1, so the zero polynomial has _den = 1 and
equality is a plain comparison of the two parts.

Arithmetic runs on the numerators: a term product is one ``int``
multiply, a sum rescales both sides to the lcm of the two denominators,
and every result divides out one gcd in ``_make``, the trusted
constructor of ring results, which does not validate the exponents again
(they are sums or shifts of valid exponents).  The same trusted path
serves the pencil builders, whose coefficients their classes have already
checked: ``_from_rationals`` puts checked coefficients over one
denominator, ``_discriminant`` forms b^2 - 4ac of a quadratic in one
pass and one ``_make``, and ``_shifted`` divides out a monomial that the
caller has seen divide every term; ``_swap_t_y`` exchanges two variables
on the exponents, for the germ classifier's swap of its local variables.

``terms`` gives the rational view, exponent -> ``Fraction``, built afresh
on each call; code that needs only the exponents reads ``exponents()``,
and code that needs one coefficient reads ``term(t=1, y=2)``, a
``Fraction`` read in place.  ``coefficient(var, power)`` returns a
polynomial, the coefficient of var^power in the other variables.
The string form lists terms in graded lexicographic order, which also
fixes the serialization order.

Numbers passed in go through the package's one entry gate,
``matrices._exact`` and ``matrices._integer``: a coefficient is an int, a
numpy integer (read as an int) or a Fraction (one of numpy integers is read
as a Fraction of ints), and an exponent or a power is an integer.  A bool,
float, string or Decimal is a TypeError, and a bad exponent vector in
``SparsePoly(...)`` a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import KeysView, Mapping

from .matrices import _exact, _integer

VARIABLES = ("t", "x", "y", "z")
Exponent = tuple[int, int, int, int]

_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}
_ONE: Exponent = (0, 0, 0, 0)


def _index(var: str) -> int:
    """Slot of a variable name in the exponent vector."""
    try:
        return _VAR_INDEX[var]
    except KeyError:
        raise ValueError("unknown variable %r" % (var,)) from None


def _graded_order(exponents) -> list[Exponent]:
    """Exponent vectors by total degree, then lexicographically descending."""
    return sorted(exponents, key=lambda e: (sum(e), tuple(-x for x in e)))


def _rational(value) -> Fraction:
    """An exact coefficient through ``_exact``, as a Fraction of two ints.

    A Fraction passes unchanged unless it holds numpy integers, which could
    wrap in a product; their values are read as ints.
    """
    try:
        value = _exact(value)
    except TypeError:
        raise TypeError("cannot coerce %r to SparsePoly" % (value,)) from None
    if type(value) is not Fraction:
        return Fraction(value)
    if type(value.numerator) is int and type(value.denominator) is int:
        return value
    return Fraction(int(value.numerator), int(value.denominator))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class SparsePoly:
    """Polynomial sum_e (_num[e] / _den) t^e0 x^e1 y^e2 z^e3, kept canonical."""

    _num: dict[Exponent, int]
    _den: int

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        clean = {}
        for exp, coef in (terms or {}).items():
            try:
                key = tuple(map(_integer, exp))
            except TypeError:
                key = ()
            if len(key) != 4 or min(key) < 0:
                raise ValueError("bad exponent vector %r" % (exp,))
            clean[key] = _rational(coef)
        checked = _from_rationals(clean)
        object.__setattr__(self, "_num", checked._num)
        object.__setattr__(self, "_den", checked._den)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly({})

    @staticmethod
    def const(value) -> "SparsePoly":
        return SparsePoly({_ONE: value})

    @staticmethod
    def variable(name: str) -> "SparsePoly":
        return SparsePoly.monomial(1, **{name: 1})

    @staticmethod
    def monomial(coef, **powers: int) -> "SparsePoly":
        e = [0, 0, 0, 0]
        for var, p in powers.items():
            e[_index(var)] = p
        return SparsePoly({tuple(e): coef})

    # -- views ----------------------------------------------------------

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """Exponent -> nonzero ``Fraction`` coefficient, as a new dict."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._num.items()}

    def exponents(self) -> KeysView[Exponent]:
        """The exponent vectors of the nonzero terms, no coefficient built."""
        return self._num.keys()

    def __repr__(self) -> str:
        return "SparsePoly(terms=%r)" % (self.terms,)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "SparsePoly":
        return _sum(self, _coerce(other), 1)

    def __radd__(self, other) -> "SparsePoly":
        return self.__add__(other)

    def __neg__(self) -> "SparsePoly":
        return _new({e: -c for e, c in self._num.items()}, self._den)

    def __sub__(self, other) -> "SparsePoly":
        return _sum(self, _coerce(other), -1)

    def __rsub__(self, other) -> "SparsePoly":
        return _sum(_coerce(other), self, -1)

    def __mul__(self, other) -> "SparsePoly":
        other = _coerce(other)
        return _make(_add_products({}, self._num, other._num), self._den * other._den)

    def __rmul__(self, other) -> "SparsePoly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "SparsePoly":
        k = _integer(k)
        if k < 0:
            raise ValueError("negative power")
        result = SparsePoly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    __hash__ = None

    # -- structure queries --------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = _index(var)
        return max((e[i] for e in self._num), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self._num), default=-1)

    def uses(self, var: str) -> bool:
        i = _index(var)
        return any(e[i] for e in self._num)

    def coefficient(self, var: str, power: int) -> "SparsePoly":
        """Coefficient of var^power, as a polynomial in the other variables."""
        i, power = _index(var), _integer(power)
        return _make({e[:i] + (0,) + e[i + 1:]: c
                      for e, c in self._num.items() if e[i] == power}, self._den)

    def term(self, **powers: int) -> Fraction:
        """Coefficient of one monomial, spelled as in ``monomial``: f.term(t=1, y=2).

        A monomial with no term reads 0, and ``term()`` is the constant term.
        """
        e = [0, 0, 0, 0]
        for var, p in powers.items():
            e[_index(var)] = _integer(p)
        if min(e) < 0:
            raise ValueError("negative power")
        return Fraction(self._num.get(tuple(e), 0), self._den)

    def substitute(self, var: str, replacement: "SparsePoly") -> "SparsePoly":
        """Plug a polynomial into one variable, exactly.

        With replacement = R / r and top the largest power of ``var``, the
        result is sum_k G_k R^k r^(top-k) over den * r^top, where G_k holds
        the numerators of the terms with var^k.  One list of integer powers
        of R serves every group, and one gcd ends it.
        """
        i = _index(var)
        replacement = _coerce(replacement)
        groups: dict[int, dict[Exponent, int]] = {}
        for e, c in self._num.items():
            groups.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        top = max(groups, default=0)
        r_num, r_den = replacement._num, replacement._den
        powers = [{_ONE: 1}]
        for _ in range(top):
            powers.append(_add_products({}, powers[-1], r_num))
        out: dict[Exponent, int] = {}
        for k, rest in groups.items():
            scale = r_den ** (top - k)
            if scale != 1:
                rest = {e: c * scale for e, c in rest.items()}
            _add_products(out, rest, powers[k])
        return _make(out, self._den * r_den ** top)

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for exp in _graded_order(terms):
            coef = terms[exp]
            mono = "*".join(
                v if p == 1 else "%s^%d" % (v, p)
                for v, p in zip(VARIABLES, exp)
                if p
            )
            if not mono:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(mono)
            elif coef == -1:
                parts.append("-" + mono)
            else:
                parts.append("%s*%s" % (coef, mono))
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _new(num: dict[Exponent, int], den: int) -> SparsePoly:
    """A polynomial from numerators and denominator already canonical."""
    poly = object.__new__(SparsePoly)
    object.__setattr__(poly, "_num", num)
    object.__setattr__(poly, "_den", den)
    return poly


def _make(num: dict[Exponent, int], den: int) -> SparsePoly:
    """Canonical form of num / den (den > 0): zeros dropped, one gcd divided out."""
    num = {e: c for e, c in num.items() if c}
    if den != 1:
        g = math.gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {e: c // g for e, c in num.items()}
    return _new(num, den)


def _from_rationals(terms: Mapping[Exponent, Fraction]) -> SparsePoly:
    """Canonical polynomial from valid exponents and checked coefficients.

    The coefficients are ints or Fractions that passed ``_rational``; no
    exponent or number is checked again, and zeros are dropped.  Over the
    lcm of the reduced denominators, gcd(den, numerators) = 1.
    """
    terms = {e: c for e, c in terms.items() if c}
    den = math.lcm(*(c.denominator for c in terms.values()))
    return _new({e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den)


def _shifted(p: SparsePoly, shift: Exponent) -> SparsePoly:
    """p times the monomial with exponent ``shift``, whose entries may be
    negative when every term of p keeps nonnegative exponents; that is not
    checked again.  The numerators and the denominator are p's."""
    s0, s1, s2, s3 = shift
    return _new({(e0 + s0, e1 + s1, e2 + s2, e3 + s3): c
                 for (e0, e1, e2, e3), c in p._num.items()}, p._den)


def _swap_t_y(p: SparsePoly) -> SparsePoly:
    """p with t and y exchanged, read off the exponents alone: a permutation
    of the exponent vectors keeps the form canonical.  The numerators and
    the denominator are p's."""
    return _new({(e2, e1, e0, e3): c for (e0, e1, e2, e3), c in p._num.items()}, p._den)


def _discriminant(p: SparsePoly, var: str) -> SparsePoly:
    """b^2 - 4ac for p = a var^2 + b var + c, p of degree exactly 2 in var.

    a, b and c are read in one pass over the numerators, and the result,
    (B^2 - 4AC) / den^2, is made canonical once.
    """
    i = _index(var)
    parts: tuple[dict[Exponent, int], ...] = ({}, {}, {})
    for e, c in p._num.items():
        parts[e[i]][e[:i] + (0,) + e[i + 1:]] = c
    c, b, a = parts
    out = _add_products({}, b, b)
    _add_products(out, a, {e: -4 * v for e, v in c.items()})
    return _make(out, p._den * p._den)


def _add_products(out: dict[Exponent, int], a: Mapping[Exponent, int],
                  b: Mapping[Exponent, int]) -> dict[Exponent, int]:
    """Add the term-by-term product of numerators a * b into ``out``."""
    get = out.get
    for (a0, a1, a2, a3), c1 in a.items():
        for (b0, b1, b2, b3), c2 in b.items():
            e = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[e] = get(e, 0) + c1 * c2
    return out


def _sum(p: SparsePoly, q: SparsePoly, sign: int) -> SparsePoly:
    """p + sign * q over the lcm of the two denominators."""
    den = math.lcm(p._den, q._den)
    fp, fq = den // p._den, sign * (den // q._den)
    out = dict(p._num) if fp == 1 else {e: c * fp for e, c in p._num.items()}
    get = out.get
    for e, c in q._num.items():
        out[e] = get(e, 0) + c * fq
    return _make(out, den)


def _coerce(value) -> SparsePoly:
    return value if isinstance(value, SparsePoly) else SparsePoly.const(value)


T = SparsePoly.variable("t")
X = SparsePoly.variable("x")
Y = SparsePoly.variable("y")
Z = SparsePoly.variable("z")
