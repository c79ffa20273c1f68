"""Pencil discriminant, branch curve, contact order, coefficient transfer."""

import dataclasses
import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import pencil
from mwlattice.errors import CoefficientError, ContactError, InternalConsistencyError, ShapeError
from mwlattice.oracles import factored_pencil_discriminant
from mwlattice.pencil import (
    DoubleCoverCoefficients,
    PencilCoefficients,
    branch_decomposition,
    contact_order_at_origin,
    discriminant_in_x,
    double_cover_branch_germ,
    double_cover_equation,
    pencil_equation,
    pencil_to_double_cover,
    random_pencil,
)
from mwlattice.poly import T, X, Y, Z, SparsePoly


def _pc(g, coeffs):
    return PencilCoefficients.from_map(g, coeffs)


MINIMAL_G1 = {(2, 0): 1, (0, 1): 1}
WITH_C11_G1 = {(2, 0): 1, (0, 1): 1, (1, 1): 1}


def test_coefficient_validation():
    _pc(1, MINIMAL_G1)
    with pytest.raises(CoefficientError):
        _pc(0, MINIMAL_G1)
    with pytest.raises(CoefficientError):
        _pc(1, {(2, 0): 1})  # c_{0,1} missing
    with pytest.raises(CoefficientError):
        _pc(1, {(0, 1): 1})  # c_{2,0} missing
    with pytest.raises(CoefficientError):
        _pc(1, {**MINIMAL_G1, (0, 0): 1})
    with pytest.raises(CoefficientError):
        _pc(1, {**MINIMAL_G1, (1, 0): 2})
    with pytest.raises(CoefficientError):
        _pc(1, {**MINIMAL_G1, (3, 0): 1})  # x-degree too high
    with pytest.raises(CoefficientError):
        _pc(1, {**MINIMAL_G1, (1, 3): 1})  # j > i*g + 1
    with pytest.raises(CoefficientError):
        PencilCoefficients(1, ((2, 0, Fraction(1)), (2, 0, Fraction(2)),
                              (0, 1, Fraction(1))))


def test_coefficient_access():
    pc = _pc(2, {(2, 0): 3, (0, 1): Fraction(1, 2), (1, 2): -1})
    assert pc.coefficient(2, 0) == 3
    assert pc.coefficient(0, 1) == Fraction(1, 2)
    assert pc.coefficient(1, 1) == 0
    assert pc.row(1) == {2: Fraction(-1)}
    assert pc.row(0) == {1: Fraction(1, 2)}
    # zero entries are dropped from the canonical form
    pc2 = _pc(1, {**MINIMAL_G1, (1, 1): 0})
    assert all(v for _, _, v in pc2.entries)


def test_pencil_equation_minimal():
    eq = pencil_equation(_pc(1, MINIMAL_G1))
    assert eq == X * X * Y ** 3 - T * X * X - T * Y
    assert eq.degree("x") == 2


def test_discriminant_minimal_frozen():
    disc = discriminant_in_x(pencil_equation(_pc(1, MINIMAL_G1)))
    assert disc == 4 * T * Y ** 4 - 4 * T * T * Y


def test_discriminant_shape_errors():
    with pytest.raises(ShapeError):
        discriminant_in_x(T * Y)  # no x at all
    with pytest.raises(ShapeError):
        discriminant_in_x(X ** 3)


def test_discriminant_matches_factored_oracle():
    rng = random.Random(71)
    for g in (1, 2, 3):
        for _ in range(25):
            pc = random_pencil(g, rng)
            direct = discriminant_in_x(pencil_equation(pc))
            assert direct == factored_pencil_discriminant(pc)


def test_branch_decomposition_minimal():
    disc = discriminant_in_x(pencil_equation(_pc(1, MINIMAL_G1)))
    bd = branch_decomposition(disc)
    assert bd.unit == 1
    assert bd.t_exponent == 1
    assert bd.y_exponent == 1
    assert bd.branch == 4 * Y ** 3 - 4 * T
    assert bd.genus == 1


def test_branch_decomposition_with_c11():
    disc = discriminant_in_x(pencil_equation(_pc(1, WITH_C11_G1)))
    bd = branch_decomposition(disc)
    assert bd.branch == 4 * Y ** 3 - 4 * T + T * Y
    assert bd.genus == 1


def test_branch_decomposition_recovers_genus():
    rng = random.Random(72)
    for g in (1, 2, 3):
        for _ in range(10):
            pc = random_pencil(g, rng)
            bd = branch_decomposition(discriminant_in_x(pencil_equation(pc)))
            assert bd.genus == g
            assert bd.branch.degree("y") == 2 * g + 1
            assert bd.branch.degree("t") == 1
            # decomposition reassembles to the discriminant
            assert T * Y * bd.branch == discriminant_in_x(pencil_equation(pc))


def test_branch_decomposition_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        branch_decomposition(SparsePoly.zero())
    with pytest.raises(ShapeError):
        branch_decomposition(X * T * Y)
    with pytest.raises(ShapeError):
        branch_decomposition(T * T * Y * (Y ** 3 + T))  # t divides twice
    with pytest.raises(ShapeError):
        branch_decomposition(T * Y * Y * (Y ** 3 + T))  # y divides twice
    with pytest.raises(ShapeError):
        branch_decomposition(T * Y * (Y ** 3 + T * T))  # t-degree 2 remains
    with pytest.raises(ShapeError):
        branch_decomposition(T * Y * (Y ** 4 + T))  # even y-degree
    with pytest.raises(ShapeError):
        branch_decomposition(T * Y * (Y + T))  # y-degree too small


@pytest.mark.parametrize("disc,message", [
    (SparsePoly.zero(), "discriminant is identically zero"),
    # each input below also breaks every check after the one it names
    (X * T * T * Y * Y * (Y ** 5 + T ** 3), "discriminant must be a polynomial in t and y only"),
    (Z * T * T * Y * Y * (Y ** 5 + T ** 3), "discriminant must be a polynomial in t and y only"),
    (T * T * Y * Y * (Y ** 5 + T ** 3), "t must divide the discriminant exactly once"),
    (1 + Y * Y * (Y ** 5 + T ** 3), "t must divide the discriminant exactly once"),
    (T * Y * Y * (Y ** 5 + T * T), "y must divide the discriminant exactly once"),
    (T * Y * (Y ** 4 + T * T), "branch curve must have degree 1 in t"),
    (T * Y * (Y ** 4 + T), "branch curve must have odd y-degree at least 3"),
    (T * Y * (Y + T), "branch curve must have odd y-degree at least 3"),
])
def test_branch_decomposition_checks_in_order(disc, message):
    with pytest.raises(ShapeError) as excinfo:
        branch_decomposition(disc)
    assert str(excinfo.value) == message


def test_contact_order():
    bd = branch_decomposition(
        discriminant_in_x(pencil_equation(_pc(1, MINIMAL_G1)))
    )
    assert contact_order_at_origin(bd.branch) == 3
    rng = random.Random(73)
    for g in (1, 2, 3):
        pc = random_pencil(g, rng)
        bd = branch_decomposition(discriminant_in_x(pencil_equation(pc)))
        assert contact_order_at_origin(bd.branch) == 2 * g + 1


def test_contact_order_rejects_contained_line():
    with pytest.raises(ContactError):
        contact_order_at_origin(T * Y ** 3 - T)


_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    max_size=6,
).map(SparsePoly)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(f=_polys)
def test_contact_order_matches_restriction_to_t_zero(f):
    # the reference restricts to the line t = 0 and reads the y-order there;
    # x and z terms stay in the restriction and count as they do there
    restricted = f.substitute("t", SparsePoly.const(0))
    if restricted.is_zero():
        with pytest.raises(ContactError):
            contact_order_at_origin(f)
        with pytest.raises(ContactError):
            contact_order_at_origin(T * f)
    else:
        assert contact_order_at_origin(f) == min(e[2] for e in restricted.exponents())


def test_transfer_minimal_frozen():
    dc = pencil_to_double_cover(_pc(1, MINIMAL_G1))
    assert (dc.b0, dc.b10) == (4, -4)
    assert dc.b1 == (0, 0, 0)
    dc2 = pencil_to_double_cover(_pc(1, WITH_C11_G1))
    assert (dc2.b0, dc2.b10) == (4, -4)
    assert dc2.b1 == (1, 0, 0)


def test_transfer_random_consistency():
    # the transfer itself re-derives the branch through the discriminant
    # and raises on any mismatch, so surviving is already the assertion
    rng = random.Random(74)
    for g in (1, 2, 3):
        for _ in range(10):
            pc = random_pencil(g, rng)
            dc = pencil_to_double_cover(pc)
            assert dc.g == g
            assert dc.b0 == 4 * pc.coefficient(0, 1)
            assert dc.b10 == -4 * pc.coefficient(2, 0) * pc.coefficient(0, 1)
            assert len(dc.b1) == 2 * g + 1


def test_double_cover_coefficients_validation():
    with pytest.raises(CoefficientError):
        DoubleCoverCoefficients(1, 0, 1, (0, 0, 0))
    with pytest.raises(CoefficientError):
        DoubleCoverCoefficients(1, 1, 0, (0, 0, 0))
    with pytest.raises(CoefficientError):
        DoubleCoverCoefficients(1, 1, 1, (0, 0))
    with pytest.raises(CoefficientError):
        DoubleCoverCoefficients(0, 1, 1, ())


@pytest.mark.parametrize("value", [0.1, "1/2", Decimal("0.1")], ids=["float", "str", "decimal"])
@pytest.mark.parametrize("build", [
    lambda v: PencilCoefficients(1, ((2, 0, v), (0, 1, 1))),
    lambda v: PencilCoefficients.from_map(1, {(2, 0): 1, (0, 1): 1, (1, 1): v}),
    lambda v: DoubleCoverCoefficients(1, v, 1, (1, 1, 1)),
    lambda v: DoubleCoverCoefficients(1, 1, v, (1, 1, 1)),
    lambda v: DoubleCoverCoefficients(1, 1, 1, (1, v, 1)),
], ids=["constructor", "from_map", "b0", "b10", "b1"])
def test_coefficients_must_be_exact(build, value):
    # Fraction(0.1) would have stored 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="cannot coerce"):
        build(value)


@pytest.mark.parametrize("build", [
    lambda v: PencilCoefficients(v, ((2, 0, 1), (0, 1, 1))),
    lambda v: PencilCoefficients(1, ((v, 0, 1), (0, 1, 1))),
    lambda v: PencilCoefficients(1, ((2, 0, 1), (0, v, 1))),
], ids=["genus", "i", "j"])
@pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
def test_pencil_genus_and_indices_must_be_integers(build, value):
    # Index 2.0 used to construct and fail later in pencil_equation.
    with pytest.raises(TypeError, match="expected an integer"):
        build(value)


@pytest.mark.parametrize("value", [1.5, True, "1"])
def test_double_cover_genus_must_be_an_integer(value):
    with pytest.raises(TypeError, match="expected an integer"):
        DoubleCoverCoefficients(value, 1, 1, (1, 1, 1))


def test_exact_coefficients_are_kept():
    pc = PencilCoefficients.from_map(1, {(2, 0): Fraction(1, 10), (0, 1): 1})
    assert pc.coefficient(2, 0) == Fraction(1, 10)
    assert all(type(v) is Fraction for _, _, v in pc.entries)
    dc = DoubleCoverCoefficients(1, Fraction(1, 10), 1, (1, 0, Fraction(-2, 3)))
    assert (dc.b0, dc.b10, dc.b1) == (Fraction(1, 10), 1, (1, 0, Fraction(-2, 3)))
    assert all(type(v) is Fraction for v in (dc.b0, dc.b10, *dc.b1))


def test_double_cover_equation_and_germ():
    dc = pencil_to_double_cover(_pc(1, WITH_C11_G1))
    psi = double_cover_equation(dc)
    germ = double_cover_branch_germ(dc)
    assert psi == Z * Z - germ
    assert germ == 4 * T * Y ** 4 - 4 * T * T * Y + T * T * Y * Y
    # psi restricted to z = 0 is minus the germ
    assert psi.substitute("z", SparsePoly.const(0)) == -germ


def test_random_pencil_is_deterministic():
    a = random_pencil(2, random.Random(99))
    b = random_pencil(2, random.Random(99))
    assert a == b
    c = random_pencil(2, random.Random(100))
    assert a != c


def test_random_pencil_draws_are_pinned():
    # Digest of the tuples, and of the next draw of each generator, as
    # random_pencil(g, rng) gave them when it still took a sparsity option
    # (default 1/2): the fixed rate keeps every draw.
    h = hashlib.sha256()
    for g in range(1, 6):
        for s in range(10):
            rng = random.Random(s)
            pc = random_pencil(g, rng)
            entries = [(i, j, str(v)) for i, j, v in pc.entries]
            h.update(("%d %d %r %d\n" % (g, s, entries, rng.getrandbits(32))).encode())
    assert h.hexdigest() == (
        "ac1b731d8df845d53cfee78800229e604a7431cc509fb756bfa6ede35fb8710d"
    )


# -- the trusted builders ------------------------------------------------
#
# The builders hand checked coefficients to the kernel's unvalidated path.
# The references below are the earlier constructions through the
# validating SparsePoly(...) and the ring operations; the builders must
# give the same polynomials, in canonical form.


def _reference_pencil_equation(pc):
    terms = {(1, i, j, 0): -value for i, j, value in pc.entries}
    terms[(0, 2, 2 * pc.g + 1, 0)] = 1
    return SparsePoly(terms)


def _reference_discriminant(p):
    a, b, c = (p.coefficient("x", k) for k in (2, 1, 0))
    return b * b - SparsePoly.const(4) * a * c


def _reference_branch_polynomial(dc):
    terms = {(1, 0, j, 0): value for j, value in enumerate(dc.b1, start=1)}
    terms[(0, 0, 2 * dc.g + 1, 0)] = dc.b0
    terms[(1, 0, 0, 0)] = dc.b10
    return SparsePoly(terms)


def _reference_transfer(pc):
    c01 = pc.coefficient(0, 1)
    linear = SparsePoly({(0, 0, k - 1, 0): v for k, v in pc.row(1).items()})
    square = linear * linear
    row2 = pc.row(2)
    b1 = tuple(square.term(y=j - 1) - 4 * c01 * row2.get(j, 0) for j in range(1, 2 * pc.g + 2))
    return DoubleCoverCoefficients(pc.g, 4 * c01, -4 * pc.coefficient(2, 0) * c01, b1)


def _assert_canonical(p):
    assert 0 not in p._num.values()
    assert p._den > 0
    assert math.gcd(p._den, *p._num.values()) == 1


_rationals = st.fractions(min_value=-60, max_value=60, max_denominator=15)
_nonzero = _rationals.filter(bool)


@st.composite
def _pencils(draw):
    g = draw(st.integers(1, 8))
    coeffs = {(2, 0): draw(_nonzero), (0, 1): draw(_nonzero)}
    for i in (1, 2):
        for j in range(1, i * g + 2):
            if draw(st.booleans()):
                coeffs[(i, j)] = draw(_rationals)
    return _pc(g, coeffs)


@st.composite
def _covers(draw):
    g = draw(st.integers(1, 8))
    b1 = draw(st.lists(st.one_of(st.just(0), _rationals), min_size=2 * g + 1, max_size=2 * g + 1))
    return DoubleCoverCoefficients(g, draw(_nonzero), draw(_nonzero), tuple(b1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pc=_pencils())
def test_pencil_builders_match_the_validated_construction(pc):
    member = pencil_equation(pc)
    assert member == _reference_pencil_equation(pc)
    disc = discriminant_in_x(member)
    assert disc == _reference_discriminant(member)
    dc = pencil_to_double_cover(pc)
    assert dc == _reference_transfer(pc)
    for p in (member, disc, dc.branch_polynomial(), double_cover_branch_germ(dc)):
        _assert_canonical(p)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(dc=_covers())
def test_cover_builders_match_the_validated_construction(dc):
    # zero b1 entries are dropped, as SparsePoly(...) drops them
    branch = dc.branch_polynomial()
    assert branch == _reference_branch_polynomial(dc)
    germ = double_cover_branch_germ(dc)
    assert germ == T * Y * _reference_branch_polynomial(dc)
    assert double_cover_equation(dc) == Z * Z - germ
    for p in (branch, germ):
        _assert_canonical(p)


def test_fractions_of_numpy_integers_do_not_wrap():
    # a Fraction may hold numpy integers; the builders must see Python ints
    big = 2 ** 40
    wide = _pc(1, {(2, 0): Fraction(np.int64(big), np.int64(3)), (0, 1): 1,
                   (1, 1): Fraction(np.int64(big))})
    exact = _pc(1, {(2, 0): Fraction(big, 3), (0, 1): 1, (1, 1): big})
    assert pencil_to_double_cover(wide) == pencil_to_double_cover(exact)
    assert pencil_to_double_cover(wide).b1[0] == big * big
    for p in (pencil_equation(wide), double_cover_branch_germ(pencil_to_double_cover(wide))):
        assert {type(c) for c in p._num.values()} == {int}


def test_transfer_self_check_fires(monkeypatch):
    # the transfer re-derives the branch curve through the discriminant; a
    # branch that disagrees with its coefficients must not pass silently
    real = pencil.branch_decomposition

    def perturbed(disc):
        decomposition = real(disc)
        return dataclasses.replace(decomposition, branch=decomposition.branch + T * Y)

    monkeypatch.setattr(pencil, "branch_decomposition", perturbed)
    with pytest.raises(InternalConsistencyError):
        pencil_to_double_cover(_pc(1, WITH_C11_G1))


def test_pencil_chain_builds_no_validated_polynomial(monkeypatch):
    # one pencil job's chain, as the pencil-germs benchmark runs it, builds
    # every polynomial from checked coefficients: no SparsePoly(...) and no
    # ring product
    pc = random_pencil(5, random.Random(0))
    calls = {"__init__": 0, "__mul__": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(SparsePoly, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(SparsePoly, name, counted)
    disc = discriminant_in_x(pencil_equation(pc))
    contact_order_at_origin(branch_decomposition(disc).branch)
    double_cover_branch_germ(pencil_to_double_cover(pc))
    assert calls == {"__init__": 0, "__mul__": 0}
