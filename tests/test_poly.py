"""Sparse polynomial ring over the rationals in (t, x, y, z)."""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import poly
from mwlattice.poly import VARIABLES, T, X, Y, Z, SparsePoly


def _random_poly(rng, max_terms=5, max_exp=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(4))
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return SparsePoly(terms)


def test_constructors():
    assert SparsePoly.zero().is_zero()
    assert SparsePoly.const(0).is_zero()
    five = SparsePoly.const(5)
    assert five.term() == 5
    assert SparsePoly.variable("t") == T
    assert SparsePoly.monomial(3, x=2, y=1) == SparsePoly.const(3) * X * X * Y
    with pytest.raises(ValueError):
        SparsePoly.variable("w")
    with pytest.raises(ValueError):
        SparsePoly.monomial(1, x=-1)
    with pytest.raises(ValueError):
        SparsePoly({(1, 2, 3): Fraction(1)})


@pytest.mark.parametrize("exp", [
    (1.5, 0, 0, 0),
    (Fraction(1), 0, 0, 0),
    ("1", 0, 0, 0),
    (True, 0, 0, 0),
    (1, 0, 0, False),
    (-1, 0, 0, 0),
    (1, 2, 3),
    (1, 2, 3, 4, 5),
])
def test_constructor_rejects_bad_exponents(exp):
    with pytest.raises(ValueError, match="bad exponent vector"):
        SparsePoly({exp: 1})
    with pytest.raises(ValueError, match="bad exponent vector"):
        SparsePoly({exp: 0})


@pytest.mark.parametrize("power", [1.5, True, -1])
def test_monomial_rejects_bad_powers(power):
    with pytest.raises(ValueError):
        SparsePoly.monomial(1, x=power)


@pytest.mark.parametrize("call", [
    lambda p: p.degree("w"),
    lambda p: p.uses("w"),
    lambda p: p.coefficient("w", 1),
    lambda p: p.substitute("w", T),
    lambda p: SparsePoly.variable("w"),
    lambda p: SparsePoly.monomial(1, w=1),
    lambda p: p.term(w=1),
], ids=["degree", "uses", "coefficient", "substitute", "variable", "monomial", "term"])
def test_unknown_variable_is_a_value_error(call):
    with pytest.raises(ValueError, match="unknown variable 'w'"):
        call(T * Y + 1)


@pytest.mark.parametrize("call", [
    lambda: SparsePoly({(1, 0, 0, 0): 0.5}),
    lambda: SparsePoly.const(0.5),
    lambda: SparsePoly.monomial(0.5, x=1),
    lambda: T.substitute("t", 0.5),
    lambda: T * 0.5,
], ids=["constructor", "const", "monomial", "substitute", "mul"])
def test_float_coefficients_are_refused(call):
    with pytest.raises(TypeError, match=r"^cannot coerce 0\.5 to SparsePoly$"):
        call()


@pytest.mark.parametrize("value", ["1/2", Decimal("0.1")], ids=["str", "decimal"])
@pytest.mark.parametrize("call", [
    lambda v: SparsePoly({(1, 0, 0, 0): v}),
    lambda v: SparsePoly.const(v),
    lambda v: SparsePoly.monomial(v, x=1),
    lambda v: T.substitute("t", v),
    lambda v: T * v,
], ids=["constructor", "const", "monomial", "substitute", "mul"])
def test_only_ints_and_fractions_are_coefficients(call, value):
    # Fraction("1/2") parses, so the constructors took what T * "1/2" refused.
    with pytest.raises(TypeError, match=r"^cannot coerce .* to SparsePoly$"):
        call(value)


def test_fraction_coefficients_pass_through():
    half = Fraction(1, 2)
    assert poly._rational(half) is half
    assert poly._rational(3) == Fraction(3)
    assert SparsePoly.const(half).term() == half


def test_zero_coefficients_dropped():
    p = SparsePoly({(1, 0, 0, 0): Fraction(0), (0, 1, 0, 0): Fraction(2)})
    assert p == SparsePoly.const(2) * X
    assert len(p.terms) == 1


def test_ring_laws_random():
    rng = random.Random(2024)
    for _ in range(200):
        a = _random_poly(rng)
        b = _random_poly(rng)
        c = _random_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == SparsePoly.zero()
        assert a + SparsePoly.zero() == a
        assert a * SparsePoly.const(1) == a
        assert a * SparsePoly.zero() == SparsePoly.zero()


def test_scalar_mixing():
    assert 2 * T == T + T
    assert T * 2 == T + T
    assert T + 1 == T + SparsePoly.const(1)
    assert 1 - T == SparsePoly.const(1) - T
    assert Fraction(1, 2) * (T + T) == T


def test_pow():
    assert (T + Y) ** 0 == SparsePoly.const(1)
    assert (T + Y) ** 1 == T + Y
    assert (T + Y) ** 2 == T * T + 2 * T * Y + Y * Y
    with pytest.raises(ValueError):
        (T + Y) ** -1


def test_degree_order_uses():
    p = T * T * Y + T * Y ** 4
    assert p.degree("t") == 2
    assert p.degree("y") == 4
    assert p.degree("x") == 0
    assert p.total_degree() == 5
    assert p.uses("t") and p.uses("y")
    assert not p.uses("x") and not p.uses("z")
    z = SparsePoly.zero()
    assert z.degree("t") == -1
    assert z.total_degree() == -1


def test_coefficient_extraction():
    p = 3 * T * T * Y + 2 * T * Y - Y
    # coefficient of t^1 as a polynomial in the remaining variables
    assert p.coefficient("t", 1) == 2 * Y
    assert p.coefficient("t", 2) == 3 * Y
    assert p.coefficient("t", 0) == -Y
    assert p.coefficient("t", 5).is_zero()
    assert p.term() == 0
    assert (p + 7).term() == 7


def test_term_reads_one_coefficient():
    p = 3 * T * T * Y + Fraction(2, 3) * T * Y - Y + 5
    assert p.term(t=2, y=1) == 3
    assert p.term(t=1, y=1) == Fraction(2, 3)
    assert p.term(y=1) == -1
    assert p.term() == 5
    assert p.term(t=1) == 0
    assert type(p.term(x=4)) is Fraction
    with pytest.raises(ValueError, match="negative power"):
        p.term(y=-1)


def test_substitute_polynomial():
    p = T * T + Y
    q = p.substitute("t", T - Y)
    assert q == T * T - 2 * T * Y + Y * Y + Y
    # substitution is a ring homomorphism
    rng = random.Random(9)
    for _ in range(40):
        a = _random_poly(rng, max_terms=3, max_exp=2)
        b = _random_poly(rng, max_terms=3, max_exp=2)
        r = _random_poly(rng, max_terms=2, max_exp=2)
        assert (a * b).substitute("y", r) == a.substitute("y", r) * b.substitute("y", r)
        assert (a + b).substitute("y", r) == a.substitute("y", r) + b.substitute("y", r)


def test_str_graded_lex():
    p = Y ** 3 + T * T + 1
    assert str(p) == "1 + t^2 + y^3"
    assert str(SparsePoly.zero()) == "0"
    assert str(-T) == "-t"
    assert str(2 * T * Y - 3 * Z) == "-3*z + 2*t*y"
    assert str(Fraction(1, 2) * X) == "1/2*x"


def test_equality_and_hashing_not_required():
    assert T == SparsePoly.variable("t")
    assert T != Y
    assert T != "t"
    assert not (T == 1)


_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=5,
).map(SparsePoly)


def _substitute_by_coefficients(f, var, r):
    """sum_k coefficient(var, k) * r^k: the reference for ``substitute``."""
    out = SparsePoly.zero()
    for k in range(f.degree(var) + 1):
        out = out + f.coefficient(var, k) * r ** k
    return out


def _assert_canonical(p):
    for exp, coef in p.terms.items():
        assert type(exp) is tuple and len(exp) == 4
        assert all(type(e) is int and e >= 0 for e in exp)
        assert type(coef) is Fraction and coef != 0


def _assert_kernel_canonical(p):
    """Integer numerators over one positive denominator, nothing to cancel."""
    assert all(type(c) is int and c != 0 for c in p._num.values())
    assert type(p._den) is int and p._den > 0
    assert math.gcd(p._den, *p._num.values()) == 1


# A reference model of the ring: a dict exponent -> nonzero Fraction.

def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_pow(a, k):
    out = {(0, 0, 0, 0): Fraction(1)}
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_coefficient(a, i, k):
    return {e[:i] + (0,) + e[i + 1:]: c for e, c in a.items() if e[i] == k}


def _ref_substitute(a, i, r):
    out = {}
    for e, c in a.items():
        rest = {e[:i] + (0,) + e[i + 1:]: c}
        out = _ref_add(out, _ref_mul(rest, _ref_pow(r, e[i])))
    return out


def _ref_str(a):
    parts = []
    for e in sorted(a, key=lambda e: (sum(e), [-x for x in e])):
        mono = "*".join(v + ("^%d" % p if p > 1 else "") for v, p in zip(VARIABLES, e) if p)
        if not mono:
            parts.append(str(a[e]))
        elif abs(a[e]) == 1:
            parts.append(("-" if a[e] < 0 else "") + mono)
        else:
            parts.append("%s*%s" % (a[e], mono))
    return " + ".join(parts).replace("+ -", "- ") or "0"


# Mixed denominators: small ones, and large primes that stay coprime.
_DENOMINATORS = (1, 1, 2, 3, 4, 6, 10 ** 9 + 7, 2 ** 61 - 1, 998244353)


def _random_model(rng, max_terms=4, max_exp=2):
    model = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in range(4))
        model[exp] = Fraction(rng.randint(-7, 7), rng.choice(_DENOMINATORS))
    return {e: c for e, c in model.items() if c}


def test_integer_kernel_matches_fraction_model():
    rng = random.Random(1607)
    for _ in range(150):
        ma, mb, mr = (_random_model(rng) for _ in range(3))
        a, b, r = SparsePoly(ma), SparsePoly(mb), SparsePoly(mr)
        i = rng.randrange(4)
        var = VARIABLES[i]
        k = rng.randint(0, 3)
        value = Fraction(rng.randint(-5, 5), rng.choice(_DENOMINATORS))
        cases = [
            (a + b, _ref_add(ma, mb)),
            (a - b, _ref_add(ma, mb, -1)),
            ((a + b) - b, ma),
            (a * r - r * a, {}),
            (a * b, _ref_mul(ma, mb)),
            (a ** k, _ref_pow(ma, k)),
            (a.coefficient(var, k), _ref_coefficient(ma, i, k)),
            (a.substitute(var, r), _ref_substitute(ma, i, mr)),
            (a.substitute(var, SparsePoly.const(value)),
             _ref_substitute(ma, i, {(0, 0, 0, 0): value} if value else {})),
        ]
        for got, want in cases:
            _assert_kernel_canonical(got)
            assert got.terms == want
            assert got == SparsePoly(want)
            assert str(got) == _ref_str(want)
        assert (a == b) == (ma == mb)
        assert a.term() == ma.get((0, 0, 0, 0), 0)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(f=_polys, r=_polys, var=st.sampled_from(VARIABLES))
def test_substitute_matches_reference(f, r, var):
    assert f.substitute(var, r) == _substitute_by_coefficients(f, var, r)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(f=_polys, e=st.tuples(*[st.integers(0, 3)] * 4))
def test_term_matches_terms(f, e):
    # e ranges over the exponents _polys draws from, so it often names no term
    assert f.term(**dict(zip(VARIABLES, e))) == f.terms.get(e, 0)
    for present in f.exponents():
        assert f.term(**dict(zip(VARIABLES, present))) == f.terms[present]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(f=_polys, g=_polys, var=st.sampled_from(VARIABLES),
       k=st.integers(0, 3), value=st.integers(-2, 2))
def test_results_are_canonical(f, g, var, k, value):
    results = [
        f + g, f - g, -f, f * g, f ** k, (f + g) - g, f - f, 2 * f + value,
        f.coefficient(var, k), f.substitute(var, g), f.substitute(var, SparsePoly.const(value)),
    ]
    for p in results:
        _assert_canonical(p)
        _assert_kernel_canonical(p)
    assert results[5] == f
    assert results[6].is_zero()
