"""Sparse exact polynomials in the fixed variables (t, x, y, z).

Coefficients are ``fractions.Fraction``; exponent vectors are 4-tuples of
nonnegative ints.  Zero coefficients are never stored, so ``terms`` is a
canonical representation and equality is plain dict equality.  The string
form lists terms in graded lexicographic order, which also fixes the
serialization order.

Public construction (``SparsePoly(...)``, ``const``, ``monomial``,
``variable``) validates every exponent and converts every coefficient.
Every ring result goes through the one term collector ``_collect``, which
sums like terms into one dict, drops zeros and builds the result without
validating again: its exponents are sums or shifts of valid exponents and
its coefficients come out of ``Fraction`` arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

VARIABLES = ("t", "x", "y", "z")
Exponent = tuple[int, int, int, int]

_VAR_INDEX = {name: i for i, name in enumerate(VARIABLES)}


def _index(var: str) -> int:
    """Slot of a variable name in the exponent vector."""
    try:
        return _VAR_INDEX[var]
    except KeyError:
        raise ValueError("unknown variable %r" % (var,)) from None


@dataclass(frozen=True, eq=False)
class SparsePoly:
    """Polynomial as a mapping exponent -> nonzero rational coefficient."""

    terms: Mapping[Exponent, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for exp, coef in self.terms.items():
            # Four nonnegative ints; booleans and non-integers are refused.
            try:
                key = tuple(operator.index(e) for e in exp)
            except TypeError:
                key = ()
            if len(key) != 4 or min(key) < 0 or any(isinstance(e, bool) for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            coef = Fraction(coef)
            if coef:
                clean[key] = coef
        object.__setattr__(self, "terms", clean)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly({})

    @staticmethod
    def const(value) -> "SparsePoly":
        return SparsePoly({(0, 0, 0, 0): Fraction(value)})

    @staticmethod
    def variable(name: str) -> "SparsePoly":
        return SparsePoly.monomial(1, **{name: 1})

    @staticmethod
    def monomial(coef, **powers: int) -> "SparsePoly":
        e = [0, 0, 0, 0]
        for var, p in powers.items():
            e[_index(var)] = p
        return SparsePoly({tuple(e): Fraction(coef)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "SparsePoly":
        return _collect([*self.terms.items(), *_coerce(other).terms.items()])

    def __radd__(self, other) -> "SparsePoly":
        return self.__add__(other)

    def __neg__(self) -> "SparsePoly":
        return _collect((e, -c) for e, c in self.terms.items())

    def __sub__(self, other) -> "SparsePoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "SparsePoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "SparsePoly":
        return _collect(_products(self.terms, _coerce(other).terms))

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
        return self.terms == other.terms

    __hash__ = None

    # -- structure queries --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        i = _index(var)
        return max((e[i] for e in self.terms), default=-1)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def order(self, var: str) -> int:
        """Smallest exponent of ``var`` over all terms; -1 if zero poly."""
        i = _index(var)
        return min((e[i] for e in self.terms), default=-1)

    def uses(self, var: str) -> bool:
        i = _index(var)
        return any(e[i] for e in self.terms)

    def coefficient(self, var: str, power: int) -> "SparsePoly":
        """Coefficient of var^power, as a polynomial in the other variables."""
        i = _index(var)
        return _collect((e[:i] + (0,) + e[i + 1:], c)
                        for e, c in self.terms.items() if e[i] == power)

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0, 0, 0), Fraction(0))

    def substitute_value(self, var: str, value) -> "SparsePoly":
        """Plug a rational constant into one variable."""
        return self.substitute(var, SparsePoly.const(value))

    def substitute(self, var: str, replacement: "SparsePoly") -> "SparsePoly":
        """Plug a polynomial into one variable, exactly.

        Terms are grouped by their power k of ``var``; each group times
        replacement^k, from one list of powers, goes into one collector.
        """
        i = _index(var)
        groups: dict[int, dict[Exponent, Fraction]] = {}
        for e, c in self.terms.items():
            groups.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
        powers = [SparsePoly.const(1)]
        for _ in range(max(groups, default=0)):
            powers.append(powers[-1] * replacement)
        return _collect(pair for k, rest in groups.items()
                        for pair in _products(rest, powers[k].terms))

    def divide_by(self, var: str, power: int) -> "SparsePoly":
        """Exact division by var^power; raises if any term lacks the factor."""
        i = _index(var)
        if any(e[i] < power for e in self.terms):
            raise ValueError("%s^%d does not divide every term" % (var, power))
        return _collect((e[:i] + (e[i] - power,) + e[i + 1:], c)
                        for e, c in self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), tuple(-x for x in e))):
            coef = self.terms[exp]
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


def _collect(pairs: Iterable[tuple[Exponent, Fraction]]) -> SparsePoly:
    """Sum (exponent, coefficient) pairs into one polynomial, zeros dropped.

    The trusted constructor of every ring result: ``__post_init__`` is not
    run, so the pairs must already be valid exponents and ``Fraction``s.
    """
    out: dict[Exponent, Fraction] = {}
    for exp, coef in pairs:
        out[exp] = out[exp] + coef if exp in out else coef
    poly = object.__new__(SparsePoly)
    object.__setattr__(poly, "terms", {e: c for e, c in out.items() if c})
    return poly


def _products(a: Mapping[Exponent, Fraction], b: Mapping[Exponent, Fraction]):
    """The (exponent, coefficient) pairs of the term-by-term product a * b."""
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            yield (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3]), c1 * c2


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
