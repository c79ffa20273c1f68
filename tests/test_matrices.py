"""Exact linear algebra: determinants, Smith forms, kernels, saturation."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwlattice import matrices as mx
from mwlattice.oracles import determinant_by_expansion, invariant_factors_by_minors


def test_det_known_values():
    assert mx.det(()) == 1
    assert mx.det(((5,),)) == 5
    assert mx.det(((1, 2), (3, 4))) == -2
    assert mx.det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert mx.det(((1, 2), (2, 4))) == 0


def test_det_rational_entries():
    m = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 4), Fraction(1, 5)))
    assert mx.det(m) == Fraction(1, 10) - Fraction(1, 12)


def test_det_is_multiplicative():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        b = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n))
        assert mx.det(mx.matmul(a, b)) == mx.det(a) * mx.det(b)


def test_inverse_round_trip():
    rng = random.Random(3)
    found = 0
    while found < 20:
        n = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        if mx.det(a) == 0:
            continue
        found += 1
        assert mx.matmul(a, mx.inverse(a)) == mx.identity(n)


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        mx.inverse(((1, 1), (1, 1)))


def test_rank():
    assert mx.rank(()) == 0
    assert mx.rank(((0, 0),)) == 0
    assert mx.rank(((1, 2), (2, 4))) == 1
    assert mx.rank(((1, 0), (0, 1), (1, 1))) == 2


def test_smith_normal_form_reconstructs():
    rng = random.Random(7)
    for _ in range(30):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(
            tuple(rng.randint(-9, 9) for _ in range(cols)) for _ in range(rows)
        )
        u, s, v = mx.smith_normal_form(m)
        assert mx.is_unimodular(u)
        assert mx.is_unimodular(v)
        assert mx.matmul(mx.matmul(u, m), v) == tuple(tuple(r) for r in s)
        diag = mx.diagonal_of(s)
        for a, b in zip(diag, diag[1:]):
            if a != 0:
                assert b % a == 0
            else:
                assert b == 0
        for i in range(len(s)):
            for j in range(len(s[0])):
                if i != j:
                    assert s[i][j] == 0


def test_invariant_factors_known():
    assert mx.invariant_factors(((2, 0), (0, 3))) == (1, 6)
    assert mx.invariant_factors(((2, 4), (6, 8))) == (2, 4)
    assert mx.invariant_factors(((1, 0), (0, 1))) == (1, 1)
    assert mx.invariant_factors(((0, 0), (0, 0))) == ()
    assert mx.invariant_factors(((6,),)) == (6,)


def test_solve_right_and_left():
    a = ((1, 2), (3, 4))
    x = mx.solve_right(a, (5, 11))
    assert x is not None
    assert mx.mat_vec(a, x) == (5, 11)
    assert mx.solve_right(((1, 1), (1, 1)), (0, 1)) is None
    y = mx.solve_left(a, (4, 6))
    assert y is not None
    assert mx.vec_mat(y, a) == (4, 6)


def test_left_kernel_basis_annihilates():
    m = ((1, 2, 3), (2, 4, 6), (0, 1, 1))
    k = mx.left_kernel_basis(m)
    assert len(k) == 1
    for row in k:
        assert mx.vec_mat(row, m) == (0, 0, 0)
    # kernel of the 2x-duplicated row is spanned by a primitive vector
    assert mx.gcd_all(k[0]) == 1


def test_row_lattice_basis_spans_same_lattice():
    rng = random.Random(19)
    for _ in range(20):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = tuple(
            tuple(rng.randint(-6, 6) for _ in range(cols)) for _ in range(rows)
        )
        basis = mx.row_lattice_basis(m)
        assert len(basis) == mx.rank(m) if any(any(r) for r in m) else not basis
        # every original row is an integer combination of the basis
        for row in m:
            if not any(row):
                continue
            sol = mx.solve_left(basis, row) if basis else None
            assert sol is not None
            assert all(Fraction(x).denominator == 1 for x in sol)
        # and conversely
        for row in basis:
            sol = mx.solve_left(m, row)
            assert sol is not None


def test_saturation_basis_index():
    m = ((2, 0), (0, 3))
    sat = mx.saturation_basis(m)
    assert len(sat) == 2
    assert abs(mx.det(sat)) == 1
    # saturation of a primitive single row is itself up to sign
    sat1 = mx.saturation_basis(((2, 3),))
    assert len(sat1) == 1
    assert mx.gcd_all(sat1[0]) == 1


def test_is_unimodular():
    assert mx.is_unimodular(((1, 5), (0, 1)))
    assert not mx.is_unimodular(((2, 0), (0, 1)))
    assert not mx.is_unimodular(((1, 0),))
    assert not mx.is_unimodular(((Fraction(1, 2), 0), (0, 2)))


def _matrices(rows, cols, entries):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(lambda m: tuple(map(tuple, m)))


_ENTRIES = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=5))
_SQUARE = st.integers(1, 5).flatmap(lambda n: _matrices(n, n, _ENTRIES))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(_SQUARE)
def test_det_and_inverse_match_cofactor_expansion(m):
    n = len(m)
    d = mx.det(m)
    assert isinstance(d, Fraction)
    assert d == determinant_by_expansion(m)
    if d == 0:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            mx.inverse(m)
    else:
        inv = mx.inverse(m)
        assert all(isinstance(x, Fraction) for row in inv for x in row)
        assert mx.matmul(inv, m) == mx.identity(n)
        assert mx.matmul(m, inv) == mx.identity(n)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 4), st.integers(1, 5)).flatmap(
    lambda shape: _matrices(*shape, st.integers(-9, 9))),
    st.lists(st.sampled_from((1, 2, 3, 4, 6)), min_size=4, max_size=4))
def test_smith_form_properties(m, row_scales):
    # scaled rows make pivots that do not divide the rest of the matrix
    m = tuple(tuple(c * x for x in row) for c, row in zip(row_scales, m))
    u, s, v = mx.smith_normal_form(m)
    assert mx.is_unimodular(u) and mx.is_unimodular(v)
    assert mx.matmul(mx.matmul(u, m), v) == s
    assert all(s[i][j] == 0 for i in range(len(s)) for j in range(len(s[0])) if i != j)
    diag = mx.diagonal_of(s)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0
    factors = mx.invariant_factors(m)
    assert factors == tuple(x for x in diag if x)
    assert factors == invariant_factors_by_minors(m)
