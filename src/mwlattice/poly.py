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
(they are sums or shifts of valid exponents).

``terms`` gives the rational view, exponent -> ``Fraction``, built afresh
on each call; code that needs only the exponents reads ``exponents()``.
The string form lists terms in graded lexicographic order, which also
fixes the serialization order.

Public construction (``SparsePoly(...)``, ``const``, ``monomial``,
``variable``) validates every exponent and converts every coefficient
exactly; a float is refused.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import KeysView, Mapping

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


def _rational(value) -> Fraction:
    """An exact coefficient: an int or a Fraction, as in the ring operations.

    A float, a string or a Decimal is refused; a Fraction passes unchanged.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError("cannot coerce %r to SparsePoly" % (value,))


@dataclass(frozen=True, eq=False, init=False, repr=False)
class SparsePoly:
    """Polynomial sum_e (_num[e] / _den) t^e0 x^e1 y^e2 z^e3, kept canonical."""

    _num: dict[Exponent, int]
    _den: int

    def __init__(self, terms: Mapping[Exponent, Fraction] | None = None):
        clean = {}
        for exp, coef in (terms or {}).items():
            # Four nonnegative ints; booleans and non-integers are refused.
            try:
                key = tuple(operator.index(e) for e in exp)
            except TypeError:
                key = ()
            if len(key) != 4 or min(key) < 0 or any(isinstance(e, bool) for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            coef = _rational(coef)
            if coef:
                clean[key] = coef
        # Over the lcm of reduced denominators, gcd(den, numerators) = 1.
        den = math.lcm(*(c.denominator for c in clean.values()))
        object.__setattr__(self, "_num", {
            e: int(c.numerator) * (den // int(c.denominator)) for e, c in clean.items()})
        object.__setattr__(self, "_den", den)

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
        if isinstance(other, (int, Fraction)):
            other = SparsePoly.const(other)
        if not isinstance(other, SparsePoly):
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

    def order(self, var: str) -> int:
        """Smallest exponent of ``var`` over all terms; -1 if zero poly."""
        i = _index(var)
        return min((e[i] for e in self._num), default=-1)

    def uses(self, var: str) -> bool:
        i = _index(var)
        return any(e[i] for e in self._num)

    def coefficient(self, var: str, power: int) -> "SparsePoly":
        """Coefficient of var^power, as a polynomial in the other variables."""
        i = _index(var)
        return _make({e[:i] + (0,) + e[i + 1:]: c
                      for e, c in self._num.items() if e[i] == power}, self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get(_ONE, 0), self._den)

    def substitute_value(self, var: str, value) -> "SparsePoly":
        """Plug a rational constant into one variable."""
        return self.substitute(var, SparsePoly.const(value))

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

    def divide_by(self, var: str, power: int) -> "SparsePoly":
        """Exact division by var^power; raises if any term lacks the factor."""
        i = _index(var)
        if power < 0:
            raise ValueError("negative power")
        if any(e[i] < power for e in self._num):
            raise ValueError("%s^%d does not divide every term" % (var, power))
        return _new({e[:i] + (e[i] - power,) + e[i + 1:]: c
                     for e, c in self._num.items()}, self._den)

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for exp in sorted(terms, key=lambda e: (sum(e), tuple(-x for x in e))):
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
    if isinstance(value, SparsePoly):
        return value
    if isinstance(value, (int, Fraction)):
        return SparsePoly.const(value)
    raise TypeError("cannot coerce %r to SparsePoly" % (value,))


T = SparsePoly.variable("t")
X = SparsePoly.variable("x")
Y = SparsePoly.variable("y")
Z = SparsePoly.variable("z")
